#include "models/trainer.h"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "autograd/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"
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

void WriteRngState(util::ByteWriter* out, const util::RngState& state) {
  for (const uint64_t word : state.s) out->Put(word);
  out->Put<uint8_t>(state.has_spare_gaussian ? 1 : 0);
  out->Put(state.spare_gaussian);
}

util::StatusOr<util::RngState> ReadRngState(util::ByteReader* in) {
  util::RngState state;
  uint8_t has_spare = 0;
  if (!in->Get(&state.s[0]) || !in->Get(&state.s[1]) ||
      !in->Get(&state.s[2]) || !in->Get(&state.s[3]) ||
      !in->Get(&has_spare) || !in->Get(&state.spare_gaussian)) {
    return in->Truncated("RNG state");
  }
  if (has_spare > 1) return util::Status::DataLoss("bad RNG spare flag");
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
void WriteConfig(util::ByteWriter* out, const TrainConfig& config) {
  out->Put(config.epochs);
  out->Put(config.batch_size);
  out->Put(config.learning_rate);
  out->Put(config.weight_decay);
  out->Put(config.seed);
  out->Put(static_cast<uint32_t>(config.negative_sampling));
  out->PutString<uint64_t>(config.optimizer);
  out->Put<uint8_t>(config.sparse_steps ? 1 : 0);
}

util::Status CheckConfig(util::ByteReader* in, uint32_t version,
                         const TrainConfig& config) {
  TrainConfig saved;
  uint32_t negative_sampling = 0;
  // v1 predates sparse steps: those checkpoints recorded dense-step runs.
  uint8_t sparse_steps = 0;
  if (!in->Get(&saved.epochs) || !in->Get(&saved.batch_size) ||
      !in->Get(&saved.learning_rate) || !in->Get(&saved.weight_decay) ||
      !in->Get(&saved.seed) || !in->Get(&negative_sampling) ||
      !in->GetString<uint64_t>(&saved.optimizer) ||
      (version >= 2 && !in->Get(&sparse_steps))) {
    return in->Truncated("training config");
  }
  if (sparse_steps > 1) return util::Status::DataLoss("bad sparse_steps flag");
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
  // The plan covers every row the batch wrote, and StepRows zeroes the
  // gradient of each row it steps.
  optimizer_->StepRows(params, plan);
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
  // Every step leaves the gradients it stepped at zero, and a batch's steps
  // cover every gradient its backward pass wrote, so the batch loop never
  // clears them. One clear per epoch drops gradients that code outside the
  // loop accumulated without a step.
  params->ZeroGrad();
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

util::StatusOr<TrainResult> BprTrainer::Train(const EvaluateFn& evaluate,
                                              const EpochCallback& on_epoch) {
  TrainResult result;
  autograd::ParamSnapshot best_params;
  uint32_t evals_without_gain = 0;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;
  while (epoch_ < config_.epochs) {
    const double cpu_before = util::ProcessCpuSeconds();
    result.epochs.push_back(RunEpoch());
    cpu_seconds += util::ProcessCpuSeconds() - cpu_before;
    wall_seconds += result.epochs.back().seconds;
    if (evaluate &&
        ((config_.eval_every > 0 && epoch_ % config_.eval_every == 0) ||
         epoch_ == config_.epochs)) {
      result.evaluations.push_back(
          {epoch_, cpu_seconds, wall_seconds, evaluate(model_)});
      const double recall = result.evaluations.back().result.recall;
      HOSR_GAUGE("trainer/eval_recall").Set(recall);
      if (result.evaluations.size() == 1 ||
          recall > result.evaluations[result.best].result.recall) {
        result.best = result.evaluations.size() - 1;
        best_params = autograd::ParamSnapshot::Capture(*model_->params());
        evals_without_gain = 0;
      } else {
        ++evals_without_gain;
      }
    }
    if (on_epoch) HOSR_RETURN_IF_ERROR(on_epoch(result.epochs.back()));
    if (config_.patience > 0 && evals_without_gain >= config_.patience) break;
  }
  if (!best_params.empty()) best_params.Restore(model_->params());
  return result;
}

util::Status BprTrainer::SaveTrainingState(const std::string& path) const {
  std::string body;
  util::ByteWriter out(&body);
  out.PutHeader(kTrainStateMagic, kTrainStateVersion);
  out.Put(epoch_);
  WriteConfig(&out, config_);
  out.PutString<uint64_t>(model_->name());
  WriteRngState(&out, rng_.GetState());
  WriteRngState(&out, sampler_.rng_state());
  optimizer_->SaveState(&out);
  autograd::WriteParams(*model_->params(), &out);
  out.Put(kTrainStateSentinel);
  return util::WriteFileAtomicWithCrc(path, body);
}

util::Status BprTrainer::RestoreTrainingState(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string raw, util::ReadFileVerifyCrc(path));
  util::ByteReader in(raw);
  HOSR_ASSIGN_OR_RETURN(
      const uint32_t version,
      in.GetHeader(kTrainStateMagic, kTrainStateMinVersion,
                   kTrainStateVersion, "training state"));
  uint32_t epoch = 0;
  if (!in.Get(&epoch)) return in.Truncated("epoch counter");
  if (epoch > config_.epochs) {
    return util::Status::DataLoss("implausible epoch counter");
  }
  HOSR_RETURN_IF_ERROR(CheckConfig(&in, version, config_));
  std::string model_name;
  if (!in.GetString<uint64_t>(&model_name)) return in.Truncated("model name");
  if (model_name != model_->name()) {
    return util::Status::FailedPrecondition(
        "training state is for model '" + model_name + "', trainer has '" +
        model_->name() + "'");
  }
  HOSR_ASSIGN_OR_RETURN(util::RngState trainer_rng, ReadRngState(&in));
  HOSR_ASSIGN_OR_RETURN(util::RngState sampler_rng, ReadRngState(&in));
  // The optimizer state loads into a fresh optimizer, so the whole body
  // decodes, down to the sentinel, before anything in the trainer changes.
  std::unique_ptr<optim::Optimizer> optimizer = optim::MakeOptimizer(
      config_.optimizer, config_.learning_rate, config_.weight_decay);
  HOSR_RETURN_IF_ERROR(optimizer->LoadState(&in, *model_->params()));
  HOSR_ASSIGN_OR_RETURN(const autograd::ParamSnapshot params,
                        autograd::ReadParams(&in, *model_->params()));
  uint32_t sentinel = 0;
  if (!in.Get(&sentinel) || sentinel != kTrainStateSentinel) {
    return util::Status::DataLoss("training state missing trailing sentinel");
  }

  optimizer_ = std::move(optimizer);
  params.Restore(model_->params());
  rng_.SetState(trainer_rng);
  sampler_.set_rng_state(sampler_rng);
  epoch_ = epoch;
  HOSR_COUNTER("train/resumes").Increment();
  return util::Status::Ok();
}

}  // namespace hosr::models
