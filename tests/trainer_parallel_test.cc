// Trainer suite (docs/PERFORMANCE.md "Sparse optimizer steps"): the one
// training loop must be BIT-identical whether its kernels fan out over the
// thread pool or run inline on a single thread — proven by byte-comparing
// full training states (params + optimizer state + RNG streams) for dense
// and row-sparse steps — plus the sparse step plan, the optimizer's
// row-sparse path, prefetcher shutdown/sequence contracts, and
// kill-and-resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "autograd/checkpoint.h"
#include "core/hosr.h"
#include "core/hosr_gat.h"
#include "core/hosr_joint.h"
#include "core/model_zoo.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "models/bpr_mf.h"
#include "models/trainer.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "tensor/serialize.h"
#include "util/bytes.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hosr {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

data::Dataset MakeDataset(const std::string& name, uint32_t num_users,
                          uint32_t num_items, double avg_interactions) {
  data::SyntheticConfig config;
  config.name = name;
  config.num_users = num_users;
  config.num_items = num_items;
  config.avg_interactions_per_user = avg_interactions;
  config.avg_relations_per_user = 5;
  config.seed = 91;
  auto result = data::GenerateSynthetic(config);
  HOSR_CHECK(result.ok());
  return std::move(result).value();
}

const data::Dataset& TestDataset() {
  static const data::Dataset* dataset =
      new data::Dataset(MakeDataset("trainer-test", 60, 80, 8));
  return *dataset;
}

// Big enough that Gemm and Spmm split into several ParallelFor chunks.
const data::Dataset& PoolSizedDataset() {
  static const data::Dataset* dataset =
      new data::Dataset(MakeDataset("trainer-pool-test", 6144, 1024, 3));
  return *dataset;
}

using ModelFactory = std::function<std::unique_ptr<models::RankingModel>()>;

ModelFactory ZooFactory(const std::string& name,
                        const data::Dataset& dataset = TestDataset(),
                        uint32_t dim = 6) {
  return [name, &dataset, dim] {
    core::ZooConfig zoo;
    zoo.embedding_dim = dim;
    zoo.hosr_layers = 2;
    zoo.hosr_graph_dropout = 0.3f;
    auto model = core::MakeModel(name, dataset, zoo);
    HOSR_CHECK(model.ok()) << model.status();
    return std::move(model).value();
  };
}

models::TrainConfig BaseConfig() {
  models::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 48;
  config.learning_rate = 0.01f;
  config.weight_decay = 0.001f;
  config.seed = 5;
  return config;
}

// Trains a freshly built model to config.epochs and returns the raw bytes
// of its saved training state — the strongest equality oracle the trainer
// has (parameters, optimizer state, and both RNG streams).
std::string TrainedStateBytes(const ModelFactory& factory,
                              const models::TrainConfig& config,
                              const std::string& tag,
                              const data::Dataset& dataset = TestDataset()) {
  auto model = factory();
  models::BprTrainer trainer(model.get(), &dataset.interactions, config);
  trainer.Train();
  const std::string path = TempPath("hosr_ptrain_" + tag);
  HOSR_CHECK(trainer.SaveTrainingState(path).ok());
  std::string bytes = ReadRaw(path);
  std::remove(path.c_str());
  HOSR_CHECK(!bytes.empty());
  return bytes;
}

// Runs `fn` inside a ParallelFor body: of two one-item chunks, chunk 0 runs
// on the calling thread, where every nested ParallelFor (Gemm, Spmm, ...)
// runs inline instead of fanning out.
std::string InsidePoolTask(const std::function<std::string()>& fn) {
  std::string result;
  util::ParallelFor(
      0, 2,
      [&](size_t begin, size_t) {
        if (begin == 0) result = fn();
      },
      /*min_chunk=*/1);
  return result;
}

// Number of byte positions at which two equally long strings differ.
size_t DifferingBytes(const std::string& a, const std::string& b) {
  HOSR_CHECK(a.size() == b.size());
  size_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) count += a[i] != b[i] ? 1 : 0;
  return count;
}

// The body of a saved training state without its CRC footer.
std::string StateBody(const std::string& path) {
  auto body = util::ReadFileVerifyCrc(path);
  HOSR_CHECK(body.ok()) << body.status();
  return std::move(body).value();
}

// --- thread-count invariance -------------------------------------------------

TEST(TrainerDeterminismTest, BitIdenticalOnPoolAndInsidePoolTask) {
  const data::Dataset& dataset = PoolSizedDataset();
  for (const std::string name : {"HOSR", "BPR"}) {
    const ModelFactory factory = ZooFactory(name, dataset, /*dim=*/64);
    for (const bool sparse : {false, true}) {
      models::TrainConfig config = BaseConfig();
      config.epochs = 1;
      config.batch_size = 512;
      config.sparse_steps = sparse;
      const std::string tag = name + (sparse ? "_sparse" : "_dense");
      const std::string pooled =
          TrainedStateBytes(factory, config, tag + "_pool", dataset);
      const std::string inlined = InsidePoolTask([&] {
        return TrainedStateBytes(factory, config, tag + "_inline", dataset);
      });
      // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print megabytes.
      EXPECT_TRUE(pooled == inlined)
          << tag << ": training on the pool and inline on one thread "
                    "diverged";
    }
  }
}

// The AVX2 table carries a 16-lane GEMM tile on CPUs with AVX-512F; it
// returns the 8-lane tile's bits, so a HOSR training state is the same
// with either table. Both runs force their table, so the comparison holds
// under HOSR_FORCE_SCALAR too.
TEST(TrainerDeterminismTest, EightLaneGemmTileGivesTheSameState) {
  const kernels::KernelTable* narrow = kernels::EightLaneTable();
  if (narrow == nullptr) GTEST_SKIP() << "no AVX2 table on this CPU";
  const data::Dataset& dataset = PoolSizedDataset();
  const ModelFactory factory = ZooFactory("HOSR", dataset, /*dim=*/64);
  models::TrainConfig config = BaseConfig();
  config.epochs = 1;
  config.batch_size = 512;
  kernels::SetActiveForTesting(&kernels::Best());
  const std::string best = TrainedStateBytes(factory, config, "best", dataset);
  kernels::SetActiveForTesting(narrow);
  const std::string eight_lane =
      TrainedStateBytes(factory, config, "eight_lane", dataset);
  kernels::SetActiveForTesting(nullptr);
  EXPECT_TRUE(best == eight_lane)
      << kernels::Best().gemm_tile_cols << "-column tiles and "
      << narrow->gemm_tile_cols << "-column tiles trained different states";
}

TEST(TrainerDeterminismTest, PrefetchDoesNotChangeTrajectory) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  const std::string prefetched = TrainedStateBytes(factory, config, "pf");
  config.prefetch = false;
  EXPECT_EQ(prefetched, TrainedStateBytes(factory, config, "nopf"))
      << "prefetch toggle changed the trajectory";
}

// --- uninitialised storage ---------------------------------------------------

// The raw bytes of every parameter value, in store order.
std::string ParamBytes(const autograd::ParamStore& params) {
  std::string bytes;
  for (size_t i = 0; i < params.size(); ++i) {
    const tensor::Matrix& value = params.at(i)->value;
    bytes.append(reinterpret_cast<const char*>(value.data()),
                 value.size() * sizeof(float));
  }
  return bytes;
}

// Ops write their outputs and first gradient contributions into
// uninitialised storage. Poisoning that storage with NaN must change
// nothing: an op that reads an element before writing it turns the
// parameters NaN. The unpoisoned run may reuse the heap of a poisoned one,
// so the poisoned parameters must also be finite.
TEST(UninitializedStorageTest, TwoBatchesIgnorePoisonedStorage) {
  const data::Dataset& dataset = TestDataset();
  std::vector<std::pair<std::string, ModelFactory>> factories;
  for (const auto& [tag, aggregation] :
       {std::pair{"last", core::LayerAggregation::kLast},
        std::pair{"average", core::LayerAggregation::kAverage},
        std::pair{"attention", core::LayerAggregation::kAttention}}) {
    factories.emplace_back(std::string("HOSR ") + tag, [&dataset,
                                                        aggregation] {
      core::Hosr::Config config;
      config.embedding_dim = 6;
      config.num_layers = 2;
      config.aggregation = aggregation;
      config.embedding_dropout = 0.1f;
      return std::make_unique<core::Hosr>(dataset, config);
    });
  }
  factories.emplace_back("HOSR-GAT", [&dataset] {
    core::HosrGat::Config config;
    config.embedding_dim = 6;
    config.num_layers = 2;
    return std::make_unique<core::HosrGat>(dataset, config);
  });
  factories.emplace_back("HOSR-Joint", [&dataset] {
    core::HosrJoint::Config config;
    config.embedding_dim = 6;
    config.num_layers = 2;
    return std::make_unique<core::HosrJoint>(dataset, config);
  });
  factories.emplace_back("NCF", ZooFactory("NCF"));
  factories.emplace_back("DeepInf", ZooFactory("DeepInf"));

  // One epoch of two batches.
  models::TrainConfig config = BaseConfig();
  config.epochs = 1;
  config.batch_size = (dataset.interactions.nnz() + 1) / 2;
  for (const bool sparse_steps : {false, true}) {
    config.sparse_steps = sparse_steps;
    for (const auto& [name, factory] : factories) {
      std::string bytes[2];
      for (const bool poison : {false, true}) {
        tensor::SetPoisonUninitializedForTesting(poison);
        auto model = factory();
        models::BprTrainer trainer(model.get(), &dataset.interactions,
                                   config);
        const std::vector<models::EpochStats> history =
            trainer.Train()->epochs;
        tensor::SetPoisonUninitializedForTesting(false);
        ASSERT_EQ(history.size(), 1u);
        ASSERT_EQ(history[0].batches, 2u) << name;
        bytes[poison] = ParamBytes(*model->params());
      }
      const auto* floats = reinterpret_cast<const float*>(bytes[1].data());
      const size_t num_floats = bytes[1].size() / sizeof(float);
      EXPECT_TRUE(std::all_of(floats, floats + num_floats,
                              [](float x) { return std::isfinite(x); }))
          << name << ": a parameter is not finite under poison";
      EXPECT_TRUE(bytes[0] == bytes[1])
          << name << (sparse_steps ? " sparse" : " dense") << ": "
          << DifferingBytes(bytes[0], bytes[1])
          << " parameter bytes differ under poison";
    }
  }
}

// --- sparse optimizer steps --------------------------------------------------

// Forwards to a model and records every batch the trainer hands it, so a
// test can tell which rows a training step gathered.
class RecordingModel : public models::RankingModel {
 public:
  explicit RecordingModel(models::RankingModel* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  uint32_t num_users() const override { return inner_->num_users(); }
  uint32_t num_items() const override { return inner_->num_items(); }
  autograd::Value BuildLoss(autograd::Tape* tape, const data::BprBatch& batch,
                            util::Rng* rng) override {
    batches.push_back(batch);
    return inner_->BuildLoss(tape, batch, rng);
  }
  autograd::Value ScorePairs(autograd::Tape* tape,
                             const std::vector<uint32_t>& users,
                             const std::vector<uint32_t>& items,
                             bool training) override {
    return inner_->ScorePairs(tape, users, items, training);
  }
  tensor::Matrix ScoreAllItems(const std::vector<uint32_t>& users) override {
    return inner_->ScoreAllItems(users);
  }
  autograd::ParamStore* params() override { return inner_->params(); }

  std::vector<data::BprBatch> batches;

 private:
  models::RankingModel* inner_;
};

// The RMSprop mean-square matrices of a saved training state. The body ends
// with the optimizer section, the parameters and a 4-byte sentinel; the
// optimizer section's length follows from the parameter shapes (a slot
// count, then one tensor::WriteMatrix record per parameter).
std::vector<tensor::Matrix> SavedMeanSquares(
    const std::string& path, const autograd::ParamStore& params) {
  const std::string body = StateBody(path);
  std::string param_bytes;
  util::ByteWriter param_writer(&param_bytes);
  autograd::WriteParams(params, &param_writer);
  size_t optimizer_bytes = sizeof(uint64_t);
  for (size_t i = 0; i < params.size(); ++i) {
    std::string matrix_bytes;
    util::ByteWriter matrix_writer(&matrix_bytes);
    tensor::WriteMatrix(params.at(i)->value, &matrix_writer);
    optimizer_bytes += matrix_bytes.size();
  }
  const size_t end = body.size() - sizeof(uint32_t) - param_bytes.size();
  HOSR_CHECK(end >= optimizer_bytes);
  util::ByteReader in(
      std::string_view(body).substr(end - optimizer_bytes, optimizer_bytes));
  uint64_t count = 0;
  HOSR_CHECK(in.Get(&count));
  HOSR_CHECK(count == params.size());
  std::vector<tensor::Matrix> mean_squares;
  for (uint64_t i = 0; i < count; ++i) {
    auto m = tensor::ReadMatrix(&in);
    HOSR_CHECK(m.ok()) << m.status();
    mean_squares.push_back(std::move(m).value());
  }
  return mean_squares;
}

bool RowEquals(const tensor::Matrix& a, const tensor::Matrix& b, size_t r) {
  for (size_t c = 0; c < a.cols(); ++c) {
    if (a(r, c) != b(r, c)) return false;
  }
  return true;
}

TEST(SparseStepsTest, UngatheredRowsKeepValuesAndOptimizerState) {
  // Users 0..3 each hold three items, so every epoch is one batch of 12
  // triples over those users: users 4..39 are never gathered, and most
  // items are neither a positive nor a sampled negative.
  constexpr uint32_t kUsers = 40;
  constexpr uint32_t kItems = 60;
  std::vector<data::Interaction> interactions;
  for (uint32_t u = 0; u < 4; ++u) {
    for (uint32_t k = 0; k < 3; ++k) interactions.push_back({u, 3 * u + k});
  }
  auto train = data::InteractionMatrix::FromInteractions(
      kUsers, kItems, std::move(interactions));
  ASSERT_TRUE(train.ok());

  models::BprMf::Config bpr_config;
  bpr_config.embedding_dim = 4;
  models::BprMf bpr(kUsers, kItems, bpr_config);
  RecordingModel model(&bpr);
  models::TrainConfig config = BaseConfig();
  config.batch_size = 12;
  config.sparse_steps = true;
  models::BprTrainer trainer(&model, &train.value(), config);
  const std::string path = TempPath("hosr_ptrain_sparse_rows");

  // The first batch gives the touched rows nonzero optimizer state, so the
  // second batch shows that rows it does not gather keep theirs.
  trainer.RunEpoch();
  ASSERT_TRUE(trainer.SaveTrainingState(path).ok());
  const std::vector<tensor::Matrix> state_before =
      SavedMeanSquares(path, *bpr.params());
  const tensor::Matrix users_before = bpr.user_embeddings();
  const tensor::Matrix items_before = bpr.item_embeddings();

  trainer.RunEpoch();
  ASSERT_TRUE(trainer.SaveTrainingState(path).ok());
  const std::vector<tensor::Matrix> state_after =
      SavedMeanSquares(path, *bpr.params());
  std::remove(path.c_str());
  ASSERT_EQ(model.batches.size(), 2u);
  const data::BprBatch& batch = model.batches[1];

  const std::set<uint32_t> gathered_users(batch.users.begin(),
                                          batch.users.end());
  std::set<uint32_t> gathered_items(batch.pos_items.begin(),
                                    batch.pos_items.end());
  gathered_items.insert(batch.neg_items.begin(), batch.neg_items.end());
  ASSERT_LT(gathered_items.size(), kItems) << "every item was gathered";

  struct Table {
    const char* name;
    size_t param_index;
    const tensor::Matrix& before;
    const tensor::Matrix& after;
    const std::set<uint32_t>& gathered;
  };
  const Table tables[] = {
      {"user", 0, users_before, bpr.user_embeddings(), gathered_users},
      {"item", 1, items_before, bpr.item_embeddings(), gathered_items},
  };
  size_t kept_nonzero_state = 0;
  for (const Table& t : tables) {
    // Re-zeroing the written rows leaves every gradient clean for the next
    // batch.
    const tensor::Matrix& grad = bpr.params()->at(t.param_index)->grad;
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(0.0f, grad.data()[i]) << t.name << " gradient left dirty";
    }
    for (size_t r = 0; r < t.before.rows(); ++r) {
      const bool touched = t.gathered.count(static_cast<uint32_t>(r)) > 0;
      const bool value_kept = RowEquals(t.before, t.after, r);
      const bool state_kept = RowEquals(state_before[t.param_index],
                                        state_after[t.param_index], r);
      if (touched) {
        EXPECT_FALSE(value_kept) << t.name << " row " << r << " was gathered "
                                 << "but did not move";
      } else {
        EXPECT_TRUE(value_kept) << t.name << " row " << r << " moved";
        EXPECT_TRUE(state_kept)
            << t.name << " row " << r << " changed its optimizer state";
        if (state_before[t.param_index](r, 0) != 0.0f) ++kept_nonzero_state;
      }
    }
  }
  // Some row the first batch stepped sits out the second one, so the state
  // check above compares real optimizer state, not just zeros.
  EXPECT_GT(kept_nonzero_state, 0u);
}

TEST(SparseStepsTest, HosrStepsEveryParameterDensely) {
  // Every HOSR parameter feeds propagation or attention ops, so sparse
  // steps plan them all dense: the states differ only in the config's
  // sparse_steps byte.
  const ModelFactory factory = ZooFactory("HOSR");
  models::TrainConfig config = BaseConfig();
  const std::string path = TempPath("hosr_ptrain_hosr_dense_plan");
  std::string bodies[2];
  for (const bool sparse : {false, true}) {
    config.sparse_steps = sparse;
    auto model = factory();
    models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                               config);
    trainer.Train();
    ASSERT_TRUE(trainer.SaveTrainingState(path).ok());
    bodies[sparse ? 1 : 0] = StateBody(path);
  }
  std::remove(path.c_str());
  EXPECT_EQ(1u, DifferingBytes(bodies[0], bodies[1]));
}

TEST(SparseStepsTest, GatherOnlyModelsTrainSparse) {
  // BPR-MF's tables and NCF's four embedding tables are reached only by
  // GatherRows, so their untouched rows skip weight decay and the sparse
  // run genuinely differs from the dense one (NCF used to fall back to
  // dense steps).
  for (const std::string name : {"BPR", "NCF"}) {
    const ModelFactory factory = ZooFactory(name);
    models::TrainConfig config = BaseConfig();
    const std::string dense = TrainedStateBytes(factory, config, "dense");
    config.sparse_steps = true;
    const std::string sparse = TrainedStateBytes(factory, config, "sparse");
    // More than the sparse_steps byte and the CRC footer.
    EXPECT_GT(DifferingBytes(dense, sparse), 5u)
        << name << " sparse steps should not match dense steps";
  }
}

TEST(SparseOptimizerTest, DenseRowPlanMatchesStepBitwise) {
  for (const std::string name : {"sgd", "rmsprop", "adam", "adagrad"}) {
    util::Rng rng(77);
    autograd::ParamStore store_a;
    autograd::ParamStore store_b;
    autograd::Param* a = store_a.CreateGaussian("p", 5, 3, 1.0f, &rng);
    autograd::Param* b = store_b.Create("p", 5, 3);
    b->value = a->value;

    auto opt_a = optim::MakeOptimizer(name, 0.05f, 0.01f);
    auto opt_b = optim::MakeOptimizer(name, 0.05f, 0.01f);
    std::vector<optim::RowSet> plan(1);
    plan[0].dense = true;
    for (int step = 0; step < 3; ++step) {
      // A step consumes the gradient, so both get the same one each step.
      for (size_t i = 0; i < a->grad.size(); ++i) {
        a->grad.data()[i] = 0.25f * static_cast<float>(i) - 1.5f;
      }
      b->grad = a->grad;
      opt_a->Step(&store_a);
      opt_b->StepRows(&store_b, plan);
    }
    for (size_t i = 0; i < a->value.size(); ++i) {
      ASSERT_EQ(a->value.data()[i], b->value.data()[i])
          << name << " dense StepRows != Step at element " << i;
    }
  }
}

TEST(SparseOptimizerTest, PartialPlanUpdatesOnlySelectedRows) {
  for (const std::string name : {"sgd", "rmsprop", "adam", "adagrad"}) {
    util::Rng rng(78);
    autograd::ParamStore store_a;
    autograd::ParamStore store_b;
    autograd::Param* a = store_a.CreateGaussian("p", 6, 2, 1.0f, &rng);
    autograd::Param* b = store_b.Create("p", 6, 2);
    b->value = a->value;
    const tensor::Matrix original = a->value;
    for (size_t i = 0; i < a->grad.size(); ++i) {
      a->grad.data()[i] = 0.1f * static_cast<float>(i + 1);
    }
    b->grad = a->grad;

    auto opt_a = optim::MakeOptimizer(name, 0.05f, 0.01f);
    auto opt_b = optim::MakeOptimizer(name, 0.05f, 0.01f);
    opt_a->Step(&store_a);
    std::vector<optim::RowSet> plan(1);
    plan[0].rows = {1, 4};
    opt_b->StepRows(&store_b, plan);

    for (size_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < 2; ++c) {
        if (r == 1 || r == 4) {
          // A planned row steps exactly as the dense step would (the
          // per-row arithmetic is shared).
          ASSERT_EQ(b->value(r, c), a->value(r, c))
              << name << " touched row " << r << " differs from dense step";
        } else {
          // An unplanned row is untouched: no update, no (lazy) decay.
          ASSERT_EQ(b->value(r, c), original(r, c))
              << name << " untouched row " << r << " moved";
        }
      }
    }

    // An empty-rows plan must be a no-op for the parameter.
    std::vector<optim::RowSet> empty_plan(1);
    const tensor::Matrix before = b->value;
    opt_b->StepRows(&store_b, empty_plan);
    for (size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(b->value.data()[i], before.data()[i])
          << name << " empty plan changed values";
    }
  }
}

// --- batch prefetcher --------------------------------------------------------

TEST(BatchPrefetcherTest, DeliversTheSynchronousSequence) {
  const auto& interactions = TestDataset().interactions;
  data::BprSampler plain(&interactions, 1234);
  data::BprSampler prefetched(&interactions, 1234);
  const size_t kBatches = 7;
  data::BatchPrefetcher prefetcher(&prefetched, 32, kBatches,
                                   /*enabled=*/true);
  for (size_t b = 0; b < kBatches; ++b) {
    const data::BprBatch expected = plain.SampleBatch(32);
    const data::BprBatch got = prefetcher.Next();
    ASSERT_EQ(expected.users, got.users) << "batch " << b;
    ASSERT_EQ(expected.pos_items, got.pos_items) << "batch " << b;
    ASSERT_EQ(expected.neg_items, got.neg_items) << "batch " << b;
  }
  // Having drawn exactly the epoch's batches, the RNG states agree — the
  // property that keeps checkpoints bit-identical under prefetch.
  EXPECT_EQ(plain.rng_state().s[0], prefetched.rng_state().s[0]);
  EXPECT_EQ(plain.rng_state().s[3], prefetched.rng_state().s[3]);
}

TEST(BatchPrefetcherTest, DestructionWithUnconsumedBatchesDoesNotDeadlock) {
  const auto& interactions = TestDataset().interactions;
  data::BprSampler sampler(&interactions, 99);
  {
    data::BatchPrefetcher prefetcher(&sampler, 16, 100, /*enabled=*/true);
    (void)prefetcher.Next();  // consume 1 of 100, then destroy
  }
  {
    data::BatchPrefetcher untouched(&sampler, 16, 100, /*enabled=*/true);
  }  // consume none at all
  SUCCEED();
}

TEST(BatchPrefetcherTest, DisabledModeSamplesSynchronously) {
  const auto& interactions = TestDataset().interactions;
  data::BprSampler plain(&interactions, 4321);
  data::BprSampler wrapped(&interactions, 4321);
  data::BatchPrefetcher prefetcher(&wrapped, 24, 3, /*enabled=*/false);
  for (size_t b = 0; b < 3; ++b) {
    const data::BprBatch expected = plain.SampleBatch(24);
    const data::BprBatch got = prefetcher.Next();
    ASSERT_EQ(expected.users, got.users);
    ASSERT_EQ(expected.neg_items, got.neg_items);
  }
}

// --- resume ------------------------------------------------------------------

TEST(TrainerResumeTest, ResumeInsidePoolTaskStaysBitIdentical) {
  const ModelFactory factory = ZooFactory("BPR");
  for (const bool sparse : {false, true}) {
    models::TrainConfig config = BaseConfig();
    config.epochs = 3;
    config.sparse_steps = sparse;
    const std::string straight =
        TrainedStateBytes(factory, config, "straight");

    // Interrupted run: one epoch on the pool, checkpoint, then resume
    // inside a ParallelFor body, where the kernels run inline.
    const std::string state_path = TempPath("hosr_ptrain_resume_state");
    {
      auto model = factory();
      models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                                 config);
      trainer.RunEpoch();
      ASSERT_TRUE(trainer.SaveTrainingState(state_path).ok());
    }
    const std::string resumed = InsidePoolTask([&] {
      auto model = factory();
      models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                                 config);
      HOSR_CHECK(trainer.RestoreTrainingState(state_path).ok());
      HOSR_CHECK(trainer.epoch() == 1u);
      trainer.Train();
      HOSR_CHECK(trainer.SaveTrainingState(state_path).ok());
      return ReadRaw(state_path);
    });
    EXPECT_EQ(straight, resumed)
        << "kill-and-resume diverged (sparse_steps=" << sparse << ")";
    std::remove(state_path.c_str());
  }
}

TEST(TrainerResumeTest, SparseStepsIsPartOfCheckpointIdentity) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  config.sparse_steps = true;

  const std::string state_path = TempPath("hosr_ptrain_sparse_state");
  {
    auto model = factory();
    models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                               config);
    trainer.RunEpoch();
    ASSERT_TRUE(trainer.SaveTrainingState(state_path).ok());
  }
  // Restoring a sparse-step checkpoint into a dense-step trainer must be
  // refused: lazy decay makes them different trajectories.
  models::TrainConfig dense = config;
  dense.sparse_steps = false;
  auto model = factory();
  models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                             dense);
  const util::Status status = trainer.RestoreTrainingState(state_path);
  EXPECT_FALSE(status.ok());
  std::remove(state_path.c_str());
}

// --- stats -------------------------------------------------------------------

TEST(TrainerStatsTest, EpochStatsCountActuallySampledTriples) {
  const ModelFactory factory = ZooFactory("BPR");
  models::TrainConfig config = BaseConfig();
  config.epochs = 1;
  auto model = factory();
  models::BprTrainer trainer(model.get(), &TestDataset().interactions,
                             config);
  const models::EpochStats stats = trainer.RunEpoch();
  EXPECT_EQ(stats.samples, stats.batches * config.batch_size)
      << "samples must sum the actual batch sizes";
  EXPECT_GT(stats.batches, 0u);
  if (stats.seconds > 0.0) {
    EXPECT_NEAR(stats.samples_per_sec,
                static_cast<double>(stats.samples) / stats.seconds,
                1e-9 * stats.samples_per_sec + 1e-9);
  }
}

}  // namespace
}  // namespace hosr
