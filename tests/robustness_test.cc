// Robustness suite (docs/ROBUSTNESS.md): crash-safe file primitives,
// retry/degraded/deadline serving behavior under deterministic fault
// injection, bit-flip corruption sweeps over every binary artifact, one
// table-driven test over the decoders of all six binary formats, and the
// kill-and-resume contract — training restored from a checkpoint finishes
// bit-identical to a run that never died.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "autograd/checkpoint.h"
#include "core/model_zoo.h"
#include "data/synthetic.h"
#include "fault/fault.h"
#include "models/trainer.h"
#include "net/wire.h"
#include "optim/optimizer.h"
#include "serve/degraded.h"
#include "serve/engine.h"
#include "serve/hardened.h"
#include "serve/retry.h"
#include "serve/snapshot.h"
#include "tensor/serialize.h"
#include "util/bytes.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"

namespace hosr {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const data::Dataset& TestDataset() {
  static const data::Dataset* dataset = [] {
    data::SyntheticConfig config;
    config.name = "robustness-test";
    config.num_users = 60;
    config.num_items = 80;
    config.avg_interactions_per_user = 8;
    config.avg_relations_per_user = 5;
    config.seed = 23;
    auto result = data::GenerateSynthetic(config);
    HOSR_CHECK(result.ok());
    return new data::Dataset(std::move(result).value());
  }();
  return *dataset;
}

std::unique_ptr<models::RankingModel> MakeTestModel(const std::string& name) {
  core::ZooConfig zoo;
  zoo.embedding_dim = 6;
  zoo.hosr_graph_dropout = 0.0f;
  auto model = core::MakeModel(name, TestDataset(), zoo);
  HOSR_CHECK(model.ok()) << model.status();
  return std::move(model).value();
}

serve::InferenceEngine MakeTestEngine() {
  auto model = MakeTestModel("BPR");
  auto snapshot = serve::BuildSnapshot(*model);
  HOSR_CHECK(snapshot.ok());
  return serve::InferenceEngine(std::move(snapshot).value(),
                                &TestDataset().interactions);
}

// Fault suites leave the global registry disarmed for the other tests
// sharing the binary.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().Disarm(); }
  void TearDown() override { fault::FaultRegistry::Global().Disarm(); }
};

// --- crash-safe file primitives ----------------------------------------------

TEST(AtomicWriteFileTest, CommitPublishesAndDestructionWithoutCommitDoesNot) {
  const std::string path = TempPath("hosr_atomic_basic.txt");
  std::remove(path.c_str());
  {
    util::AtomicWriteFile file(path);
    ASSERT_TRUE(file.status().ok());
    file.stream() << "payload";
    // Not yet committed: the target must not exist, only the temp file.
    EXPECT_FALSE(std::filesystem::exists(path));
    ASSERT_TRUE(file.Commit().ok());
  }
  EXPECT_EQ(ReadRaw(path), "payload");

  {
    util::AtomicWriteFile file(path);
    file.stream() << "torn write that must never land";
  }  // destroyed without Commit
  EXPECT_EQ(ReadRaw(path), "payload") << "abandoned write clobbered target";
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, AbortRemovesTempAndKeepsTarget) {
  const std::string path = TempPath("hosr_atomic_abort.txt");
  ASSERT_TRUE(util::WriteFileAtomic(path, "original").ok());
  util::AtomicWriteFile file(path);
  file.stream() << "doomed";
  file.Abort();
  EXPECT_EQ(ReadRaw(path), "original");
  // The temp directory holds no leftover .tmp files for this target.
  const auto dir = std::filesystem::path(path).parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp."), std::string::npos);
  }
  std::remove(path.c_str());
}

// Two in-process writers of one path (like an interval metrics reporter and
// an epoch one) each publish whole files, and a reader never sees a torn one.
TEST(AtomicWriteFileTest, ConcurrentWritersOfOnePathPublishWholeFiles) {
  const std::string path = TempPath("hosr_atomic_concurrent.txt");
  const std::string payloads[] = {std::string(200 << 10, 'a'),
                                  std::string(100 << 10, 'b')};
  ASSERT_TRUE(util::WriteFileAtomic(path, payloads[0]).ok());
  std::atomic<bool> done{false};
  std::atomic<int> failed_writes{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> writers;
  for (const std::string& payload : payloads) {
    writers.emplace_back([&path, &payload, &failed_writes] {
      for (int i = 0; i < 200; ++i) {
        if (!util::WriteFileAtomic(path, payload).ok()) ++failed_writes;
      }
    });
  }
  std::thread reader([&] {
    while (!done) {
      const std::string read = ReadRaw(path);
      if (read != payloads[0] && read != payloads[1]) ++torn_reads;
    }
  });
  for (std::thread& writer : writers) writer.join();
  done = true;
  reader.join();
  EXPECT_EQ(failed_writes, 0);
  EXPECT_EQ(torn_reads, 0);
  std::remove(path.c_str());
}

TEST(CrcFileTest, RoundTripsAndRejectsEverySingleBitFlip) {
  const std::string path = TempPath("hosr_crc_roundtrip.bin");
  const std::string body = "binary\x00payload with \xff bytes";
  ASSERT_TRUE(util::WriteFileAtomicWithCrc(path, body).ok());
  auto loaded = util::ReadFileVerifyCrc(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, body);

  // Exhaustive single-bit-flip sweep over body AND footer: every flip must
  // surface as DataLoss, never load as garbage.
  const std::string bytes = ReadRaw(path);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      WriteRaw(path, corrupted);
      const auto result = util::ReadFileVerifyCrc(path);
      ASSERT_FALSE(result.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
    }
  }
  std::remove(path.c_str());
}

TEST(CrcFileTest, TruncationAndMissingFile) {
  const std::string path = TempPath("hosr_crc_trunc.bin");
  ASSERT_TRUE(util::WriteFileAtomicWithCrc(path, "0123456789").ok());
  const std::string bytes = ReadRaw(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteRaw(path, bytes.substr(0, len));
    const auto result = util::ReadFileVerifyCrc(path);
    ASSERT_FALSE(result.ok()) << "prefix " << len;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
  EXPECT_EQ(util::ReadFileVerifyCrc(path).status().code(),
            util::StatusCode::kIoError);
}

// --- retry policy ------------------------------------------------------------

TEST(RetryPolicyTest, EveryCanonicalCodeClassifies) {
  using util::Status;
  // Transient — worth retrying.
  EXPECT_TRUE(serve::RetryPolicy::ShouldRetry(Status::Unavailable("x")));
  EXPECT_TRUE(serve::RetryPolicy::ShouldRetry(Status::ResourceExhausted("x")));
  // Deterministic failures — retrying repeats the failure.
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::Ok()));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::InvalidArgument("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::NotFound("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::OutOfRange("x")));
  EXPECT_FALSE(
      serve::RetryPolicy::ShouldRetry(Status::FailedPrecondition("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::IoError("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::Internal("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::Unimplemented("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(serve::RetryPolicy::ShouldRetry(Status::DataLoss("x")));
}

TEST(RetryPolicyTest, FirstDelayIsBaseThenJitteredWithinBounds) {
  serve::RetryPolicy::Options options;
  options.max_attempts = 6;
  options.initial_backoff_ms = 2.0;
  options.max_backoff_ms = 10.0;
  serve::RetryPolicy retry(options, /*seed=*/3);
  // Decorrelated jitter with no previous delay: exactly the base.
  EXPECT_DOUBLE_EQ(retry.NextDelayMs(), 2.0);
  for (int i = 0; i < 4; ++i) {
    const double delay = retry.NextDelayMs();
    EXPECT_GE(delay, 2.0);
    EXPECT_LE(delay, 10.0);
  }
  // Attempt cap reached.
  EXPECT_LT(retry.NextDelayMs(), 0.0);
  EXPECT_FALSE(retry.BudgetBlown());
}

TEST(RetryPolicyTest, BudgetStopsScheduleAndFlagsBlown) {
  serve::RetryPolicy::Options options;
  options.max_attempts = 100;
  options.initial_backoff_ms = 2.0;
  options.max_backoff_ms = 2.0;  // deterministic 2ms per retry
  options.budget_ms = 5.0;
  serve::RetryPolicy retry(options, /*seed=*/1);
  EXPECT_DOUBLE_EQ(retry.NextDelayMs(), 2.0);  // spent 2
  EXPECT_DOUBLE_EQ(retry.NextDelayMs(), 2.0);  // spent 4
  EXPECT_LT(retry.NextDelayMs(), 0.0);         // 6 > 5: refused
  EXPECT_TRUE(retry.BudgetBlown());
  EXPECT_DOUBLE_EQ(retry.spent_ms(), 4.0);
}

TEST(RetryPolicyTest, ScheduleIsAPureFunctionOfSeed) {
  serve::RetryPolicy::Options options;
  options.max_attempts = 8;
  auto schedule = [&](uint64_t seed) {
    serve::RetryPolicy retry(options, seed);
    std::vector<double> delays;
    for (double d = retry.NextDelayMs(); d >= 0.0; d = retry.NextDelayMs()) {
      delays.push_back(d);
    }
    return delays;
  };
  EXPECT_EQ(schedule(5), schedule(5));
  EXPECT_NE(schedule(5), schedule(6));
}

// --- degraded ranker ---------------------------------------------------------

TEST(DegradedRankerTest, ServesPopularityOrderExcludingSeen) {
  const serve::InferenceEngine engine = MakeTestEngine();
  const serve::DegradedRanker degraded(&engine);
  for (uint32_t u = 0; u < engine.num_users(); ++u) {
    const auto ranked = degraded.TopK(u, 15);
    EXPECT_EQ(ranked.size(), 15u);
    for (const uint32_t item : ranked) {
      EXPECT_FALSE(TestDataset().interactions.Contains(u, item))
          << "user " << u;
    }
  }
  // Deterministic: two rankers over the same engine agree exactly.
  const serve::DegradedRanker again(&engine);
  EXPECT_EQ(degraded.TopK(7, 20), again.TopK(7, 20));
}

// --- hardened executor -------------------------------------------------------

TEST_F(RobustnessTest, CertainFaultWithFallbackDegradesEveryRequest) {
  ASSERT_TRUE(
      fault::FaultRegistry::Global().Configure("engine.score:p=1", 1).ok());
  const serve::InferenceEngine engine = MakeTestEngine();
  const serve::DegradedRanker degraded(&engine);
  serve::HardenedOptions options;
  options.degraded = &degraded;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  const serve::HardenedExecutor executor(&engine, options);

  const auto response = executor.Execute(3, 10, /*token=*/0);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->items, degraded.TopK(3, 10));
}

TEST_F(RobustnessTest, CertainFaultWithoutFallbackPropagates) {
  ASSERT_TRUE(
      fault::FaultRegistry::Global().Configure("engine.score:p=1", 1).ok());
  const serve::InferenceEngine engine = MakeTestEngine();
  serve::HardenedOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.0;
  options.retry.max_backoff_ms = 0.0;
  const serve::HardenedExecutor executor(&engine, options);
  const auto response = executor.Execute(3, 10, /*token=*/0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kUnavailable);
}

TEST_F(RobustnessTest, NonTransientFaultIsNeverRetried) {
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .Configure("engine.score:p=1:code=internal", 1)
                  .ok());
  const serve::InferenceEngine engine = MakeTestEngine();
  const serve::DegradedRanker degraded(&engine);
  serve::HardenedOptions options;
  options.degraded = &degraded;  // fallback must NOT mask hard errors
  options.retry.max_attempts = 5;
  const serve::HardenedExecutor executor(&engine, options);
  const auto response = executor.Execute(3, 10, /*token=*/0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(fault::FaultRegistry::Global().StatsFor("engine.score").hits, 1u);
}

TEST_F(RobustnessTest, BlownBudgetIsDeadlineExceededNotDegraded) {
  ASSERT_TRUE(
      fault::FaultRegistry::Global().Configure("engine.score:p=1", 1).ok());
  const serve::InferenceEngine engine = MakeTestEngine();
  const serve::DegradedRanker degraded(&engine);
  serve::HardenedOptions options;
  options.degraded = &degraded;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff_ms = 2.0;
  options.retry.max_backoff_ms = 2.0;
  options.deadline_ms = 3.0;  // covers one 2ms backoff, not two
  const serve::HardenedExecutor executor(&engine, options);
  const auto response = executor.Execute(3, 10, /*token=*/0);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST_F(RobustnessTest, OutcomesAreBitReproducibleAcrossRuns) {
  const serve::InferenceEngine engine = MakeTestEngine();
  const serve::DegradedRanker degraded(&engine);
  auto outcomes = [&] {
    fault::FaultRegistry::Global().Disarm();
    EXPECT_TRUE(fault::FaultRegistry::Global()
                    .Configure("engine.score:p=0.2", 99)
                    .ok());
    serve::HardenedOptions options;
    options.degraded = &degraded;
    options.retry.max_attempts = 3;
    options.retry.initial_backoff_ms = 0.01;
    options.retry.max_backoff_ms = 0.04;
    options.deadline_ms = 0.05;
    const serve::HardenedExecutor executor(&engine, options);
    // Encode each request's outcome: 0 ok, 1 degraded, 2+code errors.
    std::vector<int> encoded;
    for (uint64_t token = 0; token < 400; ++token) {
      const auto r =
          executor.Execute(static_cast<uint32_t>(token % engine.num_users()),
                           10, token);
      encoded.push_back(r.ok() ? (r->degraded ? 1 : 0)
                               : 2 + static_cast<int>(r.status().code()));
    }
    return encoded;
  };
  const auto first = outcomes();
  EXPECT_EQ(first, outcomes());
  // The mix is non-trivial: some full-fidelity, some degraded.
  EXPECT_GT(std::count(first.begin(), first.end(), 0), 0);
  EXPECT_GT(std::count(first.begin(), first.end(), 1), 0);
}

// --- optimizer state round-trip ----------------------------------------------

void FillGrads(autograd::ParamStore* store, util::Rng* rng) {
  for (size_t i = 0; i < store->size(); ++i) {
    autograd::Param* p = store->at(i);
    for (size_t j = 0; j < p->grad.size(); ++j) {
      p->grad.data()[j] = rng->Gaussian();
    }
  }
}

class OptimizerStateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerStateTest, SaveLoadContinuesBitIdentically) {
  auto make_store = [] {
    auto store = std::make_unique<autograd::ParamStore>();
    util::Rng init(4);
    store->CreateGaussian("emb", 8, 4, 0.1f, &init);
    store->CreateGaussian("bias", 1, 8, 0.1f, &init);
    return store;
  };
  auto reference_store = make_store();
  auto resumed_store = make_store();
  auto reference_opt = optim::MakeOptimizer(GetParam(), 0.05f, 0.001f);
  auto warm_opt = optim::MakeOptimizer(GetParam(), 0.05f, 0.001f);

  // Identical first phase on both optimizers.
  util::Rng grads_a(9), grads_b(9);
  for (int step = 0; step < 3; ++step) {
    FillGrads(reference_store.get(), &grads_a);
    reference_opt->Step(reference_store.get());
    FillGrads(resumed_store.get(), &grads_b);
    warm_opt->Step(resumed_store.get());
  }

  // Serialize the warm optimizer, load into a FRESH one.
  std::string saved;
  util::ByteWriter writer(&saved);
  warm_opt->SaveState(&writer);
  auto resumed_opt = optim::MakeOptimizer(GetParam(), 0.05f, 0.001f);
  util::ByteReader loaded(saved);
  ASSERT_TRUE(resumed_opt->LoadState(&loaded, *resumed_store).ok());
  EXPECT_EQ(loaded.remaining(), 0u);

  // Second phase: reference continues, resumed picks up from the state.
  for (int step = 0; step < 3; ++step) {
    FillGrads(reference_store.get(), &grads_a);
    reference_opt->Step(reference_store.get());
    FillGrads(resumed_store.get(), &grads_b);
    resumed_opt->Step(resumed_store.get());
  }
  for (size_t i = 0; i < reference_store->size(); ++i) {
    const auto* a = reference_store->at(i);
    const auto* b = resumed_store->at(i);
    ASSERT_EQ(0, std::memcmp(a->value.data(), b->value.data(),
                             a->value.size() * sizeof(float)))
        << GetParam() << " diverged on " << a->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Optimizers, OptimizerStateTest,
                         ::testing::Values("sgd", "rmsprop", "adam",
                                           "adagrad"));

// --- trainer kill-and-resume -------------------------------------------------

models::TrainConfig ResumeTrainConfig() {
  models::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 64;
  config.learning_rate = 0.01f;
  config.weight_decay = 1e-4f;
  config.optimizer = "rmsprop";
  config.seed = 5;
  return config;
}

void ExpectParamsBitIdentical(const autograd::ParamStore& a,
                              const autograd::ParamStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i)->name, b.at(i)->name);
    ASSERT_EQ(0, std::memcmp(a.at(i)->value.data(), b.at(i)->value.data(),
                             a.at(i)->value.size() * sizeof(float)))
        << "parameter " << a.at(i)->name << " diverged";
  }
}

class ResumeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ResumeTest, ResumedTrainingIsBitIdenticalToUninterrupted) {
  const auto config = ResumeTrainConfig();
  const auto& train = TestDataset().interactions;

  // Reference: 4 epochs straight through.
  auto reference = MakeTestModel(GetParam());
  models::BprTrainer straight(reference.get(), &train, config);
  straight.Train();

  // Interrupted: 2 epochs, checkpoint, then a brand-new process-equivalent
  // (fresh model + trainer) restores and finishes.
  const std::string path = TempPath("hosr_resume_" + GetParam() + ".state");
  {
    auto model = MakeTestModel(GetParam());
    models::BprTrainer trainer(model.get(), &train, config);
    trainer.RunEpoch();
    trainer.RunEpoch();
    ASSERT_TRUE(trainer.SaveTrainingState(path).ok());
  }  // "crash": model and trainer destroyed
  auto resumed = MakeTestModel(GetParam());
  models::BprTrainer trainer(resumed.get(), &train, config);
  ASSERT_TRUE(trainer.RestoreTrainingState(path).ok());
  EXPECT_EQ(trainer.epoch(), 2u);
  EXPECT_EQ(trainer.Train()->epochs.size(), 2u);

  ExpectParamsBitIdentical(*reference->params(), *resumed->params());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Models, ResumeTest,
                         ::testing::Values("BPR", "HOSR"));

TEST(ResumeTest, RefusesForeignModelConfigAndCorruption) {
  const auto config = ResumeTrainConfig();
  const auto& train = TestDataset().interactions;
  const std::string path = TempPath("hosr_resume_guards.state");
  auto model = MakeTestModel("BPR");
  models::BprTrainer trainer(model.get(), &train, config);
  trainer.RunEpoch();
  ASSERT_TRUE(trainer.SaveTrainingState(path).ok());

  // Wrong model.
  {
    auto other = MakeTestModel("HOSR");
    models::BprTrainer foreign(other.get(), &train, config);
    const auto status = foreign.RestoreTrainingState(path);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  }
  // Wrong config.
  {
    auto other = MakeTestModel("BPR");
    auto drifted = config;
    drifted.learning_rate = 0.02f;
    models::BprTrainer foreign(other.get(), &train, drifted);
    const auto status = foreign.RestoreTrainingState(path);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  }
  // Bit flips anywhere in the file: clean DataLoss, never a crash or a
  // silently-garbled restore.
  const std::string bytes = ReadRaw(path);
  for (size_t byte = 0; byte < bytes.size();
       byte += std::max<size_t>(1, bytes.size() / 97)) {
    std::string corrupted = bytes;
    corrupted[byte] ^= 0x40;
    WriteRaw(path, corrupted);
    auto other = MakeTestModel("BPR");
    models::BprTrainer victim(other.get(), &train, config);
    const auto status = victim.RestoreTrainingState(path);
    ASSERT_FALSE(status.ok()) << "byte " << byte;
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << "byte " << byte;
  }
  // Missing file is IoError (so callers can treat it as "start fresh").
  std::remove(path.c_str());
  EXPECT_EQ(trainer.RestoreTrainingState(path).code(),
            util::StatusCode::kIoError);
}

// --- artifact corruption sweeps ----------------------------------------------

TEST(CorruptionSweepTest, ParamCheckpointBitFlipsAreDataLoss) {
  auto model = MakeTestModel("BPR");
  const std::string path = TempPath("hosr_ckpt_sweep.bin");
  ASSERT_TRUE(autograd::SaveCheckpoint(*model->params(), path).ok());
  const std::string bytes = ReadRaw(path);
  for (size_t byte = 0; byte < bytes.size();
       byte += std::max<size_t>(1, bytes.size() / 97)) {
    std::string corrupted = bytes;
    corrupted[byte] ^= 0x01;
    WriteRaw(path, corrupted);
    const auto status = autograd::LoadCheckpoint(path, model->params());
    ASSERT_FALSE(status.ok()) << "byte " << byte;
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << "byte " << byte;
  }
  std::remove(path.c_str());
}

TEST(CorruptionSweepTest, SnapshotBitFlipsAreDataLoss) {
  auto model = MakeTestModel("BPR");
  auto snapshot = serve::BuildSnapshot(*model);
  ASSERT_TRUE(snapshot.ok());
  const std::string path = TempPath("hosr_snap_sweep.bin");
  ASSERT_TRUE(serve::SaveSnapshot(*snapshot, path).ok());
  const std::string bytes = ReadRaw(path);
  for (size_t byte = 0; byte < bytes.size();
       byte += std::max<size_t>(1, bytes.size() / 97)) {
    std::string corrupted = bytes;
    corrupted[byte] ^= 0x80;
    WriteRaw(path, corrupted);
    const auto loaded = serve::LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "byte " << byte;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
        << "byte " << byte;
  }
  std::remove(path.c_str());
}


// --- decoders of every binary format -----------------------------------------
//
// The matrix block, the parameter checkpoint, the optimizer and training
// states, the snapshot and the wire all decode through util::ByteReader.
// Each file case holds a valid body (what sits below the CRC footer) and a
// decoder that sees it exactly as written, so the format's own checks run.

template <typename Fn>
std::string Encode(Fn&& write) {
  std::string bytes;
  util::ByteWriter out(&bytes);
  write(&out);
  return bytes;
}

std::string BodyOf(const std::string& path) {
  auto body = util::ReadFileVerifyCrc(path);
  HOSR_CHECK(body.ok()) << body.status();
  return std::move(body).value();
}

struct FileCase {
  std::string name;
  std::string body;
  std::function<util::Status(std::string_view)> decode;
};

const std::vector<FileCase>& FileCases() {
  static const std::vector<FileCase>* cases = [] {
    auto* out = new std::vector<FileCase>;
    util::Rng rng(41);
    tensor::Matrix matrix(13, 7);
    for (size_t i = 0; i < matrix.size(); ++i) {
      matrix.data()[i] = rng.Gaussian();
    }
    out->push_back({"matrix",
                    Encode([&](auto* w) { tensor::WriteMatrix(matrix, w); }),
                    [](std::string_view body) {
                      util::ByteReader in(body);
                      return tensor::ReadMatrix(&in).status();
                    }});

    static auto checkpoint_model = MakeTestModel("BPR");
    const autograd::ParamStore& store = *checkpoint_model->params();
    out->push_back({"checkpoint",
                    Encode([&](auto* w) { autograd::WriteParams(store, w); }),
                    [&store](std::string_view body) {
                      util::ByteReader in(body);
                      return autograd::ReadParams(&in, store).status();
                    }});

    // A BPR state after one epoch holds RMSprop slots. Restores go through
    // the file, re-wrapped with a valid CRC, into one trainer: a rejected
    // restore leaves it as it was.
    static auto state_model = MakeTestModel("BPR");
    static models::BprTrainer trainer(
        state_model.get(), &TestDataset().interactions, ResumeTrainConfig());
    const std::string path = TempPath("hosr_decoder_case.state");
    trainer.RunEpoch();
    HOSR_CHECK(trainer.SaveTrainingState(path).ok());
    out->push_back({"training state", BodyOf(path),
                    [path](std::string_view body) {
                      HOSR_CHECK(util::WriteFileAtomicWithCrc(path, body).ok());
                      const util::Status status =
                          trainer.RestoreTrainingState(path);
                      std::remove(path.c_str());
                      return status;
                    }});

    serve::ModelSnapshot snapshot;
    snapshot.model_name = "biased";
    snapshot.factors.user_factors = tensor::Matrix(3, 2, 0.25f);
    snapshot.factors.item_factors = tensor::Matrix(4, 2, -0.5f);
    snapshot.factors.user_bias = {0.1f, 0.2f, 0.3f};
    snapshot.factors.item_bias = {1.0f, -1.0f, 0.0f, 2.0f};
    snapshot.factors.global_bias = 7.5f;
    out->push_back({"snapshot", Encode([&](auto* w) {
                      HOSR_CHECK(serve::WriteSnapshot(snapshot, w).ok());
                    }),
                    [](std::string_view body) {
                      util::ByteReader in(body);
                      return serve::ReadSnapshot(&in).status();
                    }});
    return out;
  }();
  return *cases;
}

net::QueryRequest GoldenRequest() {
  net::QueryRequest request;
  request.trace_id = 0x0123456789abcdefULL;
  request.user = 7;
  request.k = 20;
  request.deadline_ms = 250;
  return request;
}

net::QueryResponse GoldenResponse() {
  net::QueryResponse response;
  response.flags = net::kResponseFromCache;
  response.items = {3, 1, 4};
  response.scores = {1.5f, -0.25f, 0.0f};
  response.message = "ok";
  return response;
}

net::ServerInfo GoldenInfo() {
  net::ServerInfo info;
  info.num_users = 211;
  info.num_items = 285;
  info.dim = 10;
  info.model_name = "HOSR";
  return info;
}

// Each wire payload with its decoder.
std::vector<std::pair<std::string, std::function<util::Status(
                                       std::string_view)>>>
WirePayloads() {
  return {
      {net::EncodeQueryRequest(GoldenRequest()),
       [](std::string_view p) {
         return net::DecodeQueryRequest(p).status();
       }},
      {net::EncodeQueryResponse(GoldenResponse()),
       [](std::string_view p) {
         return net::DecodeQueryResponse(p).status();
       }},
      {net::EncodeServerInfo(GoldenInfo()),
       [](std::string_view p) { return net::DecodeServerInfo(p).status(); }},
  };
}

TEST(DecoderTest, EveryStrictPrefixOfAFileBodyIsRefused) {
  for (const FileCase& c : FileCases()) {
    ASSERT_TRUE(c.decode(c.body).ok()) << c.name;
    for (size_t len = 0; len < c.body.size(); ++len) {
      const util::Status status =
          c.decode(std::string_view(c.body).substr(0, len));
      ASSERT_FALSE(status.ok()) << c.name << " prefix " << len;
      ASSERT_TRUE(status.code() == util::StatusCode::kDataLoss ||
                  status.code() == util::StatusCode::kInvalidArgument)
          << c.name << " prefix " << len << ": " << status;
    }
  }
}

TEST(DecoderTest, EveryStrictPrefixOfAFrameWaitsForMore) {
  const std::string frame = net::EncodeFrame(
      net::FrameType::kQueryReply, net::EncodeQueryResponse(GoldenResponse()));
  net::Frame decoded;
  for (size_t len = 0; len < frame.size(); ++len) {
    const auto used =
        net::TryDecodeFrame(std::string_view(frame).substr(0, len), &decoded);
    ASSERT_TRUE(used.ok()) << "prefix " << len << ": " << used.status();
    EXPECT_EQ(*used, 0u) << "prefix " << len;
  }
  ASSERT_EQ(net::TryDecodeFrame(frame, &decoded).value(), frame.size());
  for (const auto& [payload, decode] : WirePayloads()) {
    ASSERT_TRUE(decode(payload).ok());
    for (size_t len = 0; len < payload.size(); ++len) {
      EXPECT_EQ(decode(payload.substr(0, len)).code(),
                util::StatusCode::kInvalidArgument)
          << "prefix " << len;
    }
  }
}

// A change may touch only the low byte of a matrix block's rows and cols
// and of the u64 before the block (an optimizer slot count), so no changed
// body declares more than 1 MiB, even to a decoder that allocates first.
bool MayChange(const std::string& body, size_t at) {
  const std::string_view magic("RSOH", 4);  // "HOSR", little-endian
  for (size_t o = body.find(magic); o != std::string::npos;
       o = body.find(magic, o + 1)) {
    for (const size_t field : {o - 8, o + 4, o + 12}) {
      if (at > field && at < field + 8) return false;
    }
  }
  return true;
}

// Fixed-seed single-byte changes: any status may come back, but no decoder
// may crash or read outside its input (the suite also runs under ASan).
TEST(DecoderTest, SingleByteChangesNeverCrash) {
  util::Rng rng(2024);
  auto mutate = [&rng](std::string bytes) {
    size_t at = 0;
    do {
      at = rng.UniformInt(bytes.size());
    } while (!MayChange(bytes, at));
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.UniformInt(255)));
    return bytes;
  };
  for (const FileCase& c : FileCases()) {
    for (int i = 0; i < 300; ++i) {
      const util::Status status = c.decode(mutate(c.body));
      EXPECT_NE(status.code(), util::StatusCode::kIoError) << c.name;
    }
  }
  const std::string frame = net::EncodeFrame(
      net::FrameType::kQuery, net::EncodeQueryRequest(GoldenRequest()));
  net::Frame decoded;
  for (int i = 0; i < 300; ++i) {
    const auto used = net::TryDecodeFrame(mutate(frame), &decoded);
    if (used.ok() && *used > 0) {
      (void)net::DecodeQueryRequest(decoded.payload);
    }
  }
  for (const auto& [payload, decode] : WirePayloads()) {
    for (int i = 0; i < 300; ++i) (void)decode(mutate(payload));
  }
}

TEST(DecoderTest, MatrixHeaderWithoutItsPayloadIsDataLoss) {
  auto header = [](uint64_t rows) {
    return Encode([rows](util::ByteWriter* w) {
      w->Put<uint32_t>(0x484f5352);  // "HOSR"
      w->Put<uint64_t>(rows);
      w->Put<uint64_t>(64);
    });
  };
  const std::string declared = header(1024);
  util::ByteReader in(declared);
  EXPECT_EQ(tensor::ReadMatrix(&in).status().code(),
            util::StatusCode::kDataLoss);
  // A block with no rows has no payload to miss.
  const std::string empty = header(0);
  util::ByteReader empty_in(empty);
  const auto loaded = tensor::ReadMatrix(&empty_in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows(), 0u);
  EXPECT_EQ(loaded->cols(), 64u);
}

// The bytes every encoder wrote before the codec was shared.
TEST(DecoderTest, EncodersKeepTheirGoldenBytes) {
  using namespace std::string_view_literals;
  EXPECT_EQ(net::EncodeQueryRequest(GoldenRequest()),
            "\xef\xcd\xab\x89\x67\x45\x23\x01\x07\x00\x00\x00\x14\x00\x00\x00"
            "\xfa\x00\x00\x00\x00\x00\x00\x00"sv);
  EXPECT_EQ(net::EncodeQueryResponse(GoldenResponse()),
            "\x00\x00\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00\x02\x00\x00\x00"
            "\x03\x00\x00\x00\x01\x00\x00\x00\x04\x00\x00\x00\x00\x00\xc0\x3f"
            "\x00\x00\x80\xbe\x00\x00\x00\x00\x6f\x6b"sv);
  EXPECT_EQ(net::EncodeServerInfo(GoldenInfo()),
            "\xd3\x00\x00\x00\x1d\x01\x00\x00\x0a\x00\x00\x00\x04\x00\x00\x00"
            "\x48\x4f\x53\x52"sv);
  EXPECT_EQ(net::EncodeFrame(net::FrameType::kQuery,
                             net::EncodeQueryRequest(GoldenRequest())),
            "\x31\x4e\x53\x48\x01\x00\x01\x00\x18\x00\x00\x00\x03\xe3\x95\x9e"
            "\xef\xcd\xab\x89\x67\x45\x23\x01\x07\x00\x00\x00\x14\x00\x00\x00"
            "\xfa\x00\x00\x00\x00\x00\x00\x00"sv);
  tensor::Matrix m(2, 3);
  const float values[] = {1.0f, -2.0f, 0.5f, 3.25f, 0.0f, -0.125f};
  std::copy(values, values + 6, m.data());
  EXPECT_EQ(Encode([&](auto* w) { tensor::WriteMatrix(m, w); }),
            "\x52\x53\x4f\x48\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00"
            "\x00\x00\x00\x00\x00\x00\x80\x3f\x00\x00\x00\xc0\x00\x00\x00\x3f"
            "\x00\x00\x50\x40\x00\x00\x00\x00\x00\x00\x00\xbe"sv);

  // And they decode back to what was encoded.
  const auto response =
      net::DecodeQueryResponse(net::EncodeQueryResponse(GoldenResponse()));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->items, GoldenResponse().items);
  EXPECT_EQ(response->scores, GoldenResponse().scores);
  EXPECT_EQ(response->message, "ok");
  const auto info = net::DecodeServerInfo(net::EncodeServerInfo(GoldenInfo()));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->model_name, "HOSR");
  EXPECT_EQ(info->num_items, 285u);
}

// A CRC-valid training state with exactly one defect is DataLoss, and the
// trainer it was offered to goes on as if it had never seen it: one more
// epoch saves the state of a trainer that never tried the restore.
TEST(DecoderTest, DefectiveTrainingStateLeavesTheTrainerUntouched) {
  const auto config = ResumeTrainConfig();
  const auto& train = TestDataset().interactions;
  const std::string path = TempPath("hosr_defect.state");
  const std::string ref_path = TempPath("hosr_defect_ref.state");

  auto reference = MakeTestModel("BPR");
  models::BprTrainer straight(reference.get(), &train, config);
  straight.RunEpoch();
  ASSERT_TRUE(straight.SaveTrainingState(path).ok());
  const std::string body = BodyOf(path);
  straight.RunEpoch();
  straight.RunEpoch();
  ASSERT_TRUE(straight.SaveTrainingState(ref_path).ok());

  // The body ends with the RMSprop slots (a u64 count, then one matrix
  // block per parameter), the parameters and the 4-byte sentinel.
  const autograd::ParamStore& params = *reference->params();
  const size_t params_size =
      Encode([&](auto* w) { autograd::WriteParams(params, w); }).size();
  size_t optimizer_size = sizeof(uint64_t);
  for (size_t i = 0; i < params.size(); ++i) {
    optimizer_size +=
        Encode([&](auto* w) { tensor::WriteMatrix(params.at(i)->value, w); })
            .size();
  }
  const size_t params_begin = body.size() - 4 - params_size;
  const size_t optimizer_begin = params_begin - optimizer_size;
  std::string bad_sentinel = body;
  bad_sentinel.back() ^= 0x01;
  // Slots that decode but do not fit the model: the second one declared a
  // single row (its payload cut to match), or the second one left out and
  // the count saying 1. Restored, the next step would run past the short
  // slot or abort on the count.
  ASSERT_EQ(params.size(), 2u);
  const size_t first_slot_end =
      optimizer_begin + sizeof(uint64_t) +
      Encode([&](auto* w) { tensor::WriteMatrix(params.at(0)->value, w); })
          .size();
  const size_t cols = params.at(1)->value.cols();
  const std::string one_row_slot =
      body.substr(0, first_slot_end) + Encode([cols](util::ByteWriter* w) {
        w->Put<uint32_t>(0x484f5352);  // "HOSR"
        w->Put<uint64_t>(1);
        w->Put<uint64_t>(cols);
      }) +
      body.substr(first_slot_end + 20, cols * sizeof(float)) +
      body.substr(params_begin);
  const std::string one_slot =
      body.substr(0, optimizer_begin) +
      Encode([](util::ByteWriter* w) { w->Put<uint64_t>(1); }) +
      body.substr(optimizer_begin + sizeof(uint64_t),
                  first_slot_end - optimizer_begin - sizeof(uint64_t)) +
      body.substr(params_begin);
  const std::vector<std::pair<std::string, std::string>> defects = {
      {"bad sentinel", bad_sentinel},
      {"cut inside the parameters",
       body.substr(0, params_begin + params_size / 2)},
      {"cut inside the optimizer section",
       body.substr(0, optimizer_begin + optimizer_size / 2)},
      {"second slot one row", one_row_slot},
      {"one slot for two parameters", one_slot},
  };
  for (const auto& [name, defective] : defects) {
    auto model = MakeTestModel("BPR");
    models::BprTrainer trainer(model.get(), &train, config);
    trainer.RunEpoch();
    trainer.RunEpoch();
    ASSERT_TRUE(util::WriteFileAtomicWithCrc(path, defective).ok());
    EXPECT_EQ(trainer.RestoreTrainingState(path).code(),
              util::StatusCode::kDataLoss)
        << name;
    EXPECT_EQ(trainer.epoch(), 2u) << name;
    trainer.RunEpoch();
    ASSERT_TRUE(trainer.SaveTrainingState(path).ok());
    EXPECT_EQ(ReadRaw(path), ReadRaw(ref_path)) << name;
  }
  std::remove(path.c_str());
  std::remove(ref_path.c_str());
}

}  // namespace
}  // namespace hosr
