#include "models/trainer.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>

#include "autograd/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hosr::models {

namespace {

constexpr uint32_t kTrainStateMagic = 0x4854434b;     // "HTCK"
// v2 appends sparse_steps to the config block (v1 states load iff the
// trainer runs with sparse_steps off — dense steps are what v1 recorded).
constexpr uint32_t kTrainStateVersion = 2;
constexpr uint32_t kTrainStateMinVersion = 1;
constexpr uint32_t kEndianMarker = 0x01020304;
constexpr uint32_t kTrainStateSentinel = 0x4b435448;  // magic reversed

// Per-phase timeline counters: cumulative microseconds per training phase,
// turned into windowed rates by the timeseries recorder (/timeseriez) and
// into per-epoch utilization gauges by RunEpoch. Counters are always live
// (unlike spans, which need obs::SetEnabled), so the timeline exists even
// when tracing is off; the cost is two NowNanos() calls per phase.
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::Counter& counter)
      : counter_(counter), begin_ns_(obs::NowNanos()) {}
  ~PhaseTimer() {
    counter_.Increment(
        static_cast<uint64_t>((obs::NowNanos() - begin_ns_) / 1000));
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Counter& counter_;
  int64_t begin_ns_;
};

#define HOSR_PHASE_US(name)                                     \
  PhaseTimer HOSR_OBS_CONCAT_(hosr_phase_timer_at_line_,        \
                              __LINE__)(HOSR_COUNTER(name))

// Every phase counter the per-epoch utilization gauges cover (sample counts
// the prefetcher waits on the consumer side).
constexpr const char* kPhaseCounterNames[] = {
    "trainer/sample_us", "trainer/forward_us", "trainer/backward_us",
    "trainer/step_us",
};

// "trainer/<phase>_us" -> "trainer/<phase>_util".
std::string PhaseUtilName(std::string_view counter_name) {
  std::string name(counter_name.substr(0, counter_name.size() - 3));
  name.append("_util");
  return name;
}

template <typename T>
void WritePod(std::ostream* out, const T& v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(std::istream* in, T* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(*in);
}

void WriteString(std::ostream* out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

util::StatusOr<std::string> ReadString(std::istream* in) {
  uint64_t len = 0;
  if (!ReadPod(in, &len) || len > 4096) {
    return util::Status::DataLoss("bad string length in training state");
  }
  std::string s(len, '\0');
  in->read(s.data(), static_cast<std::streamsize>(len));
  if (!*in) return util::Status::DataLoss("truncated string in training state");
  return s;
}

void WriteRngState(std::ostream* out, const util::RngState& state) {
  for (const uint64_t word : state.s) WritePod(out, word);
  WritePod<uint8_t>(out, state.has_spare_gaussian ? 1 : 0);
  WritePod(out, state.spare_gaussian);
}

util::StatusOr<util::RngState> ReadRngState(std::istream* in) {
  util::RngState state;
  for (uint64_t& word : state.s) {
    if (!ReadPod(in, &word)) {
      return util::Status::DataLoss("truncated RNG state");
    }
  }
  uint8_t has_spare = 0;
  if (!ReadPod(in, &has_spare) || !ReadPod(in, &state.spare_gaussian)) {
    return util::Status::DataLoss("truncated RNG state");
  }
  if (has_spare > 1) {
    return util::Status::DataLoss("bad RNG spare flag");
  }
  state.has_spare_gaussian = has_spare == 1;
  if (state.s[0] == 0 && state.s[1] == 0 && state.s[2] == 0 &&
      state.s[3] == 0) {
    return util::Status::DataLoss("all-zero RNG state");
  }
  return state;
}

// The config fields a checkpoint bakes in: restoring under a different
// config would silently train a different run, so they are written out and
// compared verbatim on load. prefetch is deliberately ABSENT: it never
// changes the trajectory (trainer_parallel_test). sparse_steps does (lazy
// weight decay) and is part of the identity.
void WriteConfig(std::ostream* out, const TrainConfig& config) {
  WritePod(out, config.epochs);
  WritePod(out, config.batch_size);
  WritePod(out, config.learning_rate);
  WritePod(out, config.weight_decay);
  WritePod(out, config.seed);
  WritePod<uint32_t>(out,
                     static_cast<uint32_t>(config.negative_sampling));
  WriteString(out, config.optimizer);
  WritePod<uint8_t>(out, config.sparse_steps ? 1 : 0);
}

util::Status CheckConfig(std::istream* in, uint32_t version,
                         const TrainConfig& config) {
  TrainConfig saved;
  uint32_t negative_sampling = 0;
  if (!ReadPod(in, &saved.epochs) || !ReadPod(in, &saved.batch_size) ||
      !ReadPod(in, &saved.learning_rate) ||
      !ReadPod(in, &saved.weight_decay) || !ReadPod(in, &saved.seed) ||
      !ReadPod(in, &negative_sampling)) {
    return util::Status::DataLoss("truncated training config");
  }
  HOSR_ASSIGN_OR_RETURN(saved.optimizer, ReadString(in));
  // v1 predates sparse steps: those checkpoints recorded dense-step runs.
  uint8_t sparse_steps = 0;
  if (version >= 2) {
    if (!ReadPod(in, &sparse_steps) || sparse_steps > 1) {
      return util::Status::DataLoss("bad sparse_steps flag");
    }
  }
  if (saved.epochs != config.epochs ||
      saved.batch_size != config.batch_size ||
      saved.learning_rate != config.learning_rate ||
      saved.weight_decay != config.weight_decay ||
      saved.seed != config.seed ||
      negative_sampling !=
          static_cast<uint32_t>(config.negative_sampling) ||
      saved.optimizer != config.optimizer ||
      (sparse_steps == 1) != config.sparse_steps) {
    return util::Status::FailedPrecondition(
        "training state was written under a different TrainConfig");
  }
  return util::Status::Ok();
}

}  // namespace

util::Status TrainConfig::Validate() const {
  if (epochs == 0) return util::Status::InvalidArgument("epochs must be > 0");
  if (batch_size == 0) {
    return util::Status::InvalidArgument("batch_size must be > 0");
  }
  if (learning_rate <= 0.0f) {
    return util::Status::InvalidArgument("learning_rate must be > 0");
  }
  if (weight_decay < 0.0f) {
    return util::Status::InvalidArgument("weight_decay must be >= 0");
  }
  return util::Status::Ok();
}

BprTrainer::BprTrainer(RankingModel* model,
                       const data::InteractionMatrix* train,
                       const TrainConfig& config)
    : model_(model),
      train_(train),
      config_(config),
      sampler_(train, config.seed ^ 0xb5297a4d3f84d5a5ULL,
               config.negative_sampling),
      optimizer_(optim::MakeOptimizer(config.optimizer, config.learning_rate,
                                      config.weight_decay)),
      rng_(config.seed) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
}

void BprTrainer::StepSparse(const autograd::Tape& tape) {
  autograd::ParamStore* params = model_->params();
  // Parameters the batch never reached keep an empty, non-dense RowSet and
  // skip the step.
  std::vector<optim::RowSet> plan(params->size());
  size_t sparse_rows = 0;
  for (const autograd::ParamGradRows& written : tape.grad_rows()) {
    size_t i = 0;
    while (i < params->size() && params->at(i) != written.param) ++i;
    HOSR_CHECK(i < params->size())
        << "gradient written to a parameter outside the model's store";
    optim::RowSet& set = plan[i];
    set.dense = written.dense;
    if (set.dense) continue;
    set.rows = written.rows;
    std::sort(set.rows.begin(), set.rows.end());
    set.rows.erase(std::unique(set.rows.begin(), set.rows.end()),
                   set.rows.end());
    sparse_rows += set.rows.size();
  }
  HOSR_COUNTER("trainer/sparse_rows").Increment(sparse_rows);
  optimizer_->StepRows(params, plan);
  for (size_t i = 0; i < plan.size(); ++i) {
    tensor::Matrix& grad = params->at(i)->grad;
    if (plan[i].dense) {
      grad.SetZero();
      continue;
    }
    for (const uint32_t r : plan[i].rows) {
      std::fill(grad.row(r), grad.row(r) + grad.cols(), 0.0f);
    }
  }
}

EpochStats BprTrainer::RunEpoch() {
  HOSR_TRACE_SPAN("trainer/epoch");
  util::WallTimer timer;
  model_->OnEpochBegin(epoch_, &rng_);

  // One epoch = enough batches to cover every observed interaction once in
  // expectation (the standard BPR protocol).
  const size_t num_batches = std::max<size_t>(
      1, (sampler_.num_positives() + config_.batch_size - 1) /
             config_.batch_size);
  // The prefetcher draws exactly this epoch's batches in order, so the
  // sampler's RNG ends the epoch in the same state as synchronous sampling.
  data::BatchPrefetcher prefetcher(&sampler_, config_.batch_size, num_batches,
                                   config_.prefetch);

  // Phase-counter checkpoint: the deltas across this epoch become the
  // per-epoch utilization gauges below. Registry lookups (not the caching
  // macros) because the names vary per loop iteration.
  constexpr size_t kNumPhases = std::size(kPhaseCounterNames);
  uint64_t phase_us_before[kNumPhases];
  for (size_t i = 0; i < kNumPhases; ++i) {
    phase_us_before[i] =
        obs::Registry::Global().GetCounter(kPhaseCounterNames[i])->Get();
  }
  const double stall_us_before =
      obs::Registry::Global().GetHistogram("sampler/prefetch_stall_us")->Sum();

  EpochStats stats;
  stats.epoch = epoch_;
  stats.batches = num_batches;
  autograd::ParamStore* params = model_->params();
  // Sparse steps keep the gradients clean by re-zeroing what each batch
  // wrote, so they need one dense clear per epoch instead of one per batch.
  if (config_.sparse_steps) params->ZeroGrad();
  double total_loss = 0.0;
  for (size_t b = 0; b < num_batches; ++b) {
    const data::BprBatch batch = [&] {
      HOSR_PHASE_US("trainer/sample_us");
      return prefetcher.Next();
    }();
    stats.samples += batch.size();
    autograd::Tape tape;
    autograd::Value loss = [&] {
      HOSR_TRACE_SPAN("trainer/forward");
      HOSR_PHASE_US("trainer/forward_us");
      return model_->BuildLoss(&tape, batch, &rng_);
    }();
    {
      HOSR_TRACE_SPAN("trainer/backward");
      HOSR_PHASE_US("trainer/backward_us");
      if (!config_.sparse_steps) params->ZeroGrad();
      tape.Backward(loss);
    }
    {
      HOSR_TRACE_SPAN("trainer/step");
      HOSR_PHASE_US("trainer/step_us");
      if (config_.sparse_steps) {
        StepSparse(tape);
      } else {
        optimizer_->Step(params);
      }
    }
    total_loss += loss.value()(0, 0);
  }
  stats.avg_loss = total_loss / static_cast<double>(num_batches);

  stats.seconds = timer.ElapsedSeconds();
  stats.samples_per_sec =
      stats.seconds > 0.0
          ? static_cast<double>(stats.samples) / stats.seconds
          : 0.0;

  HOSR_GAUGE("trainer/epoch_loss").Set(stats.avg_loss);
  HOSR_GAUGE("trainer/epoch_seconds").Set(stats.seconds);
  HOSR_GAUGE("trainer/samples_per_sec").Set(stats.samples_per_sec);
  HOSR_COUNTER("trainer/epochs").Increment();
  HOSR_COUNTER("trainer/batches").Increment(num_batches);

  // Per-phase epoch timeline: fraction of this epoch's wall clock spent in
  // each phase.
  const double epoch_us = stats.seconds * 1e6;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const uint64_t delta_us =
        obs::Registry::Global().GetCounter(kPhaseCounterNames[i])->Get() -
        phase_us_before[i];
    obs::Registry::Global()
        .GetGauge(PhaseUtilName(kPhaseCounterNames[i]))
        ->Set(epoch_us > 0.0 ? static_cast<double>(delta_us) / epoch_us
                             : 0.0);
  }
  // Stall time (not just counts) the prefetcher consumer spent blocked on
  // an empty queue, as a fraction of the epoch.
  const double stall_us =
      obs::Registry::Global()
          .GetHistogram("sampler/prefetch_stall_us")
          ->Sum() -
      stall_us_before;
  HOSR_GAUGE("trainer/prefetch_stall_ratio")
      .Set(epoch_us > 0.0 ? stall_us / epoch_us : 0.0);

  if (config_.verbose) {
    HOSR_LOG(Info) << model_->name() << " epoch " << epoch_ << " loss "
                   << stats.avg_loss << " (" << stats.seconds << "s, "
                   << stats.batches << " batches, " << stats.samples_per_sec
                   << " samples/s)";
  }
  ++epoch_;
  return stats;
}

std::vector<EpochStats> BprTrainer::Train() {
  std::vector<EpochStats> history;
  if (epoch_ >= config_.epochs) return history;
  history.reserve(config_.epochs - epoch_);
  while (epoch_ < config_.epochs) {
    history.push_back(RunEpoch());
  }
  return history;
}

util::Status BprTrainer::SaveTrainingState(const std::string& path) const {
  std::ostringstream body;
  WritePod(&body, kTrainStateMagic);
  WritePod(&body, kTrainStateVersion);
  WritePod(&body, kEndianMarker);
  WritePod(&body, epoch_);
  WriteConfig(&body, config_);
  WriteString(&body, model_->name());
  WriteRngState(&body, rng_.GetState());
  WriteRngState(&body, sampler_.rng_state());
  HOSR_RETURN_IF_ERROR(optimizer_->SaveState(&body));
  HOSR_RETURN_IF_ERROR(autograd::WriteParams(*model_->params(), &body));
  WritePod(&body, kTrainStateSentinel);
  if (!body) return util::Status::IoError("training state serialization failed");
  return util::WriteFileAtomicWithCrc(path, body.str());
}

util::Status BprTrainer::RestoreTrainingState(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string raw, util::ReadFileVerifyCrc(path));
  std::istringstream in(raw);

  uint32_t magic = 0, version = 0, endian = 0, epoch = 0;
  if (!ReadPod(&in, &magic) || magic != kTrainStateMagic) {
    return util::Status::InvalidArgument("not a HOSR training state: " + path);
  }
  if (!ReadPod(&in, &version) || version < kTrainStateMinVersion ||
      version > kTrainStateVersion) {
    return util::Status::InvalidArgument(
        util::StrFormat("unsupported training state version %u", version));
  }
  if (!ReadPod(&in, &endian) || endian != kEndianMarker) {
    return util::Status::InvalidArgument(
        "training state written on a foreign-endian machine");
  }
  if (!ReadPod(&in, &epoch) || epoch > config_.epochs) {
    return util::Status::DataLoss("implausible epoch counter");
  }
  HOSR_RETURN_IF_ERROR(CheckConfig(&in, version, config_));
  HOSR_ASSIGN_OR_RETURN(std::string model_name, ReadString(&in));
  if (model_name != model_->name()) {
    return util::Status::FailedPrecondition(
        "training state is for model '" + model_name + "', trainer has '" +
        model_->name() + "'");
  }
  HOSR_ASSIGN_OR_RETURN(util::RngState trainer_rng, ReadRngState(&in));
  HOSR_ASSIGN_OR_RETURN(util::RngState sampler_rng, ReadRngState(&in));

  // Stage the mutable state: the optimizer and params restore in place
  // only after every header check above has passed, and the stream is
  // validated down to the sentinel before the cheap scalar state flips.
  HOSR_RETURN_IF_ERROR(optimizer_->LoadState(&in));
  HOSR_RETURN_IF_ERROR(autograd::ReadParams(&in, model_->params()));
  uint32_t sentinel = 0;
  if (!ReadPod(&in, &sentinel) || sentinel != kTrainStateSentinel) {
    return util::Status::DataLoss("training state missing trailing sentinel");
  }

  rng_.SetState(trainer_rng);
  sampler_.set_rng_state(sampler_rng);
  epoch_ = epoch;
  HOSR_COUNTER("train/resumes").Increment();
  return util::Status::Ok();
}

}  // namespace hosr::models
