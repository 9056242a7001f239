// hosr_cli — command-line workflow around the HOSR library.
//
// Subcommands:
//   generate  --out=DIR [--preset=yelp|douban] [--scale=F] [--seed=N]
//       Write a synthetic social-recommendation dataset as TSV files.
//   train     --data=DIR --checkpoint=FILE [--model=HOSR] [--dim=N]
//             [--epochs=N] [--lr=F] [--layers=N] [--early-stop]
//             [--snapshot_out=FILE] [--train_state=FILE] [--resume]
//             [--sparse_steps] [--train_prefetch=0]
//             [--admin_port=N]  live /metricsz, /healthz, /varz, /profilez,
//                               /timeseriez on 127.0.0.1:N while training
//                               runs (starts the timeseries recorder too)
//       Train a model on an on-disk dataset and save its parameters.
//       --sparse_steps applies row-sparse optimizer updates with lazy
//       weight decay (docs/PERFORMANCE.md "Sparse optimizer steps"; changes
//       the trajectory and is recorded in the training-state identity).
//       --snapshot_out additionally freezes the trained model into a
//       serving snapshot for hosr_serve (docs/SERVING.md).
//       --train_state saves a crash-safe full training checkpoint (params,
//       optimizer state, RNG streams, epoch) after every epoch; --resume
//       restores it and continues, bit-identical to an uninterrupted run
//       (docs/ROBUSTNESS.md).
//   evaluate  --data=DIR --checkpoint=FILE [--model=HOSR] [--dim=N] [--k=N]
//       Reload a checkpoint and report Recall/MAP/NDCG/Precision@K.
//   recommend --data=DIR --checkpoint=FILE --user=N [--model=HOSR]
//             [--dim=N] [--k=N]
//       Print the top-K item ids for one user.
//
// Every subcommand also accepts the observability flags (docs/OBSERVABILITY.md):
//   --trace_out=FILE        dump a Chrome trace_event JSON at exit
//   --metrics_out=FILE      dump the metrics registry JSON at exit
//   --metrics_interval=SECS background metrics snapshots every SECS seconds
//   --profile_out=FILE      continuous sampling CPU profile: collapsed
//                           stacks to FILE (+ FILE.summary.json) at exit
//   --profile_hz=N          profiler sampling rate (default 99)
//   --timeseries_out=FILE   windowed metric history (CRC-footed JSON) at exit
//   --timeseries_interval=S timeseries snapshot cadence (default 1.0)
//   --log_level=debug|info|warning|error
// and the fault-injection flags (docs/ROBUSTNESS.md):
//   --fault_spec=SPEC       arm deterministic fault injection points
//   --fault_seed=N          seed for probabilistic triggers (default 1)
// The point `cli.train_crash` fires right after an epoch's training state
// is saved and hard-kills the process (exit 42), simulating a crash for
// resume testing: cli.train_crash:once=2 dies after the 2nd epoch.
//
// The train/evaluate/recommend trio demonstrates that checkpoints fully
// capture a model: evaluation is reproducible across processes.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "autograd/checkpoint.h"
#include "core/model_zoo.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "models/early_stopping.h"
#include "models/trainer.h"
#include "obs/admin_server.h"
#include "obs/reporter.h"
#include "obs/timeseries.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace hosr;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hosr_cli <generate|train|evaluate|recommend> "
               "[flags]\n  see the header of tools/hosr_cli.cpp\n");
  return 2;
}

int RunGenerate(const util::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out=DIR\n");
    return 2;
  }
  const std::string preset = flags.GetString("preset", "yelp");
  const double scale = flags.GetDouble("scale", 0.05);
  data::SyntheticConfig config =
      preset == "douban" ? data::SyntheticConfig::DoubanLike(scale)
                         : data::SyntheticConfig::YelpLike(scale);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto dataset = data::GenerateSynthetic(config);
  if (!dataset.ok()) return Fail(dataset.status());
  if (auto status = data::SaveDataset(*dataset, out); !status.ok()) {
    return Fail(status);
  }
  const auto stats = dataset->Summarize();
  std::printf("wrote %s: %u users, %u items, %zu interactions, %zu social "
              "edges\n", out.c_str(), stats.num_users, stats.num_items,
              stats.num_interactions, stats.num_social_edges);
  return 0;
}

// Loads the dataset, splits deterministically, and builds the model.
struct Session {
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<models::RankingModel> model;
};

util::StatusOr<Session> OpenSession(const util::Flags& flags) {
  const std::string data_dir = flags.GetString("data", "");
  if (data_dir.empty()) {
    return util::Status::InvalidArgument("missing --data=DIR");
  }
  Session session;
  HOSR_ASSIGN_OR_RETURN(session.dataset, data::LoadDataset(data_dir));
  util::Rng split_rng(static_cast<uint64_t>(flags.GetInt("split-seed", 99)));
  HOSR_ASSIGN_OR_RETURN(session.split,
                        data::SplitDataset(session.dataset, 0.2, &split_rng));
  core::ZooConfig zoo;
  zoo.embedding_dim = static_cast<uint32_t>(flags.GetInt("dim", 10));
  zoo.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  zoo.hosr_layers = static_cast<uint32_t>(flags.GetInt("layers", 3));
  HOSR_ASSIGN_OR_RETURN(session.model,
                        core::MakeModel(flags.GetString("model", "HOSR"),
                                        session.split.train, zoo));
  return session;
}

int RunTrain(const util::Flags& flags) {
  auto session = OpenSession(flags);
  if (!session.ok()) return Fail(session.status());
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "train requires --checkpoint=FILE\n");
    return 2;
  }

  // Optional live admin endpoint for long training runs: watch loss gauges
  // via /metricsz and liveness via /healthz while the job runs.
  std::unique_ptr<obs::AdminServer> admin;
  const int admin_port = static_cast<int>(flags.GetInt("admin_port", -1));
  if (admin_port >= 0) {
    // Give /timeseriez live history (idempotent if --timeseries_out
    // already started the recorder via InitFromFlags).
    if (!obs::TimeseriesRecorder::Global().running()) {
      obs::TimeseriesRecorder::Options ts_options;
      ts_options.snapshot_interval_s =
          flags.GetDouble("timeseries_interval", 1.0);
      if (auto status = obs::TimeseriesRecorder::Global().Start(ts_options);
          !status.ok()) {
        std::fprintf(stderr, "note: timeseries recorder: %s\n",
                     status.ToString().c_str());
      }
    }
    admin = std::make_unique<obs::AdminServer>(
        obs::AdminServer::Options{.port = admin_port});
    if (auto status = admin->Start(); !status.ok()) return Fail(status);
    admin->SetVar("binary", "hosr_cli train");
    admin->SetVar("model", flags.GetString("model", "HOSR"));
    admin->SetVar("dispatch_level", kernels::Active().name);
    // Training has no serving probe; the data/model loading above is the
    // readiness gate.
    obs::HealthTracker::Global().SetReady(true);
  }

  models::TrainConfig config;
  config.epochs = static_cast<uint32_t>(flags.GetInt("epochs", 40));
  config.batch_size = static_cast<uint32_t>(flags.GetInt("batch", 256));
  config.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 0.001));
  config.weight_decay =
      static_cast<float>(flags.GetDouble("weight-decay", 1e-5));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.verbose = flags.GetBool("verbose", false);
  config.sparse_steps = flags.GetBool("sparse_steps", false);
  config.prefetch = flags.GetBool("train_prefetch", true);

  const auto& train = session->split.train.interactions;
  if (flags.GetBool("early-stop", false)) {
    eval::Evaluator evaluator(&train, &session->split.test, 20);
    models::EarlyStoppingConfig es;
    es.max_epochs = config.epochs;
    es.eval_stride = 5;
    es.patience = 3;
    const auto result = models::TrainWithEarlyStopping(
        session->model.get(), &train, config, es,
        [&](models::RankingModel* m) {
          return evaluator
              .Evaluate([&](const std::vector<uint32_t>& users) {
                return m->ScoreAllItems(users);
              })
              .recall;
        });
    std::printf("early stopping: best Recall@20 %.4f at epoch %u "
                "(%u epochs run%s)\n", result.best_metric, result.best_epoch,
                result.epochs_run, result.stopped_early ? ", stopped early"
                                                        : "");
  } else {
    models::BprTrainer trainer(session->model.get(), &train, config);
    const std::string train_state = flags.GetString("train_state", "");
    if (flags.GetBool("resume", false)) {
      if (train_state.empty()) {
        std::fprintf(stderr, "--resume requires --train_state=FILE\n");
        return 2;
      }
      auto restored = trainer.RestoreTrainingState(train_state);
      if (restored.ok()) {
        std::printf("resumed from %s at epoch %u/%u\n", train_state.c_str(),
                    trainer.epoch(), config.epochs);
      } else if (restored.code() == util::StatusCode::kIoError) {
        // No checkpoint yet (first run of a --resume-always launcher):
        // start from scratch. Corruption or config drift still aborts.
        std::printf("no training state at %s, starting fresh\n",
                    train_state.c_str());
      } else {
        return Fail(restored);
      }
    }
    // Epoch-cadence reporting: rewrite --metrics_out after every epoch so a
    // long run always has a current artifact on disk.
    obs::StatsReporter reporter(
        {.interval_seconds = 0.0,
         .metrics_path = flags.GetString("metrics_out", "")});
    models::EpochStats last;
    while (trainer.epoch() < config.epochs) {
      last = trainer.RunEpoch();
      reporter.Snapshot();
      if (!train_state.empty()) {
        if (auto status = trainer.SaveTrainingState(train_state);
            !status.ok()) {
          return Fail(status);
        }
      }
      // Simulated crash for resume testing: the epoch's state is on disk,
      // the process dies without running atexit flushes.
      if (auto crash = fault::Inject("cli.train_crash"); !crash.ok()) {
        std::fprintf(stderr, "injected crash after epoch %u: %s\n",
                     trainer.epoch() - 1, crash.ToString().c_str());
        std::_Exit(42);
      }
    }
    std::printf("trained %u epochs, final loss %.4f (%.1f samples/s)\n",
                config.epochs, last.avg_loss, last.samples_per_sec);
  }

  // Post-training evaluation: reports ranking quality and exercises the
  // eval path so latency metrics land in --metrics_out.
  const auto k = static_cast<uint32_t>(flags.GetInt("k", 20));
  eval::Evaluator evaluator(&train, &session->split.test, k);
  const auto result =
      evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
        return session->model->ScoreAllItems(users);
      });
  std::printf("final: Recall@%u=%.4f MAP@%u=%.4f (%zu users)\n", k,
              result.recall, k, result.map, result.num_users);

  if (auto status = autograd::SaveCheckpoint(*session->model->params(),
                                             checkpoint);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("checkpoint written to %s\n", checkpoint.c_str());

  const std::string snapshot_out = flags.GetString("snapshot_out", "");
  if (!snapshot_out.empty()) {
    auto snapshot = serve::BuildSnapshot(*session->model);
    if (!snapshot.ok()) return Fail(snapshot.status());
    if (auto status = serve::SaveSnapshot(*snapshot, snapshot_out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("serving snapshot written to %s (%s, %u users x %u items, "
                "dim %u)\n", snapshot_out.c_str(),
                snapshot->model_name.c_str(), snapshot->num_users(),
                snapshot->num_items(), snapshot->dim());
  }
  return 0;
}

int RunEvaluate(const util::Flags& flags) {
  auto session = OpenSession(flags);
  if (!session.ok()) return Fail(session.status());
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (!checkpoint.empty()) {
    if (auto status = autograd::LoadCheckpoint(
            checkpoint, session->model->params());
        !status.ok()) {
      return Fail(status);
    }
  }
  const auto k = static_cast<uint32_t>(flags.GetInt("k", 20));
  eval::Evaluator evaluator(&session->split.train.interactions,
                            &session->split.test, k);
  const auto result =
      evaluator.Evaluate([&](const std::vector<uint32_t>& users) {
        return session->model->ScoreAllItems(users);
      });
  std::printf("%s on %s: Recall@%u=%.4f MAP@%u=%.4f NDCG@%u=%.4f "
              "Precision@%u=%.4f (%zu users)\n",
              session->model->name().c_str(), session->dataset.name.c_str(),
              k, result.recall, k, result.map, k, result.ndcg, k,
              result.precision, result.num_users);
  return 0;
}

int RunRecommend(const util::Flags& flags) {
  auto session = OpenSession(flags);
  if (!session.ok()) return Fail(session.status());
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (!checkpoint.empty()) {
    if (auto status = autograd::LoadCheckpoint(
            checkpoint, session->model->params());
        !status.ok()) {
      return Fail(status);
    }
  }
  const int64_t user = flags.GetInt("user", -1);
  if (user < 0 || user >= session->dataset.num_users()) {
    std::fprintf(stderr, "recommend requires --user in [0, %u)\n",
                 session->dataset.num_users());
    return 2;
  }
  const auto k = static_cast<uint32_t>(flags.GetInt("k", 10));
  const auto u = static_cast<uint32_t>(user);
  const tensor::Matrix scores = session->model->ScoreAllItems({u});
  const auto top = eval::TopKExcluding(
      scores.row(0), session->dataset.num_items(), k,
      session->split.train.interactions.ItemsOf(u));
  std::printf("top-%u items for user %u:", k, u);
  for (const uint32_t item : top) std::printf(" %u", item);
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const util::Flags flags = util::Flags::Parse(argc - 1, argv + 1);
  obs::InitFromFlags(flags);
  // Must run before the first kernel call: dispatch resolves once and then
  // stays fixed for the process lifetime.
  if (flags.GetBool("force_scalar", false)) setenv("HOSR_FORCE_SCALAR", "1", 1);
  HOSR_LOG(Info) << "kernels: dispatch level " << kernels::Active().name
                 << (kernels::ForcedScalar() ? " (forced scalar)" : "");
  const std::string fault_spec = flags.GetString("fault_spec", "");
  if (!fault_spec.empty()) {
    auto status = fault::FaultRegistry::Global().Configure(
        fault_spec, static_cast<uint64_t>(flags.GetInt("fault_seed", 1)));
    if (!status.ok()) return Fail(status);
  }
  if (command == "generate") return RunGenerate(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "recommend") return RunRecommend(flags);
  return Usage();
}
