// The traced run: times the public calls into each layer, keeping spans in
// memory and writing them once at exit.
//   perfbench trace <training flags as for `train`> --train_epochs=T
//                   --setup_reps=R --serve_data=DIR --snap_a=F --snap_b=F
//                   --stream=FILE --warmup=W --cache_capacity=C
//                   --publish_at=i,j
//                   --port=P --roundtrip_warmup=M --roundtrip_requests=Q
//                   --out=FILE --spans_out=FILE
// Training side: the benchmark drives SampleBatch -> BuildLoss -> ZeroGrad +
// Backward -> Step/StepRows itself (plus OnEpochBegin per epoch), and times
// the tensor and graph kernels at the model's shapes. Serving side: the
// stream and publishes are replayed in process through Acquire ->
// ResultCache::Get -> HardenedExecutor::Execute -> Put, and
// NetClient::Query is timed against the live server on --port.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "common.h"
#include "core/model_zoo.h"
#include "data/io.h"
#include "data/sampler.h"
#include "graph/csr.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "net/wire.h"
#include "optim/optimizer.h"
#include "serve/cache.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "subcommands.h"
#include "tensor/ops.h"

namespace perfbench {
namespace {

constexpr int kKernelReps = 20;           // timed calls per kernel
constexpr size_t kPostSwapWindow = 1000;  // requests watched after a swap
constexpr size_t kEngineCalls = 500;      // direct engine and codec calls

volatile uint64_t g_sink = 0;  // keeps codec results observable

hosr::tensor::Matrix RandomMatrix(size_t rows, size_t cols,
                                  hosr::util::Rng* rng) {
  hosr::tensor::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->UniformFloat() - 0.5f;
  }
  return m;
}

// HOSR's Eq. 11 item-implicit operator: row i holds 1/sqrt(|I_i|) at each
// item of I_i.
hosr::graph::CsrMatrix ItemTermOperator(
    const hosr::data::InteractionMatrix& interactions) {
  std::vector<hosr::graph::Triplet> triplets;
  for (uint32_t u = 0; u < interactions.num_users(); ++u) {
    const auto& items = interactions.ItemsOf(u);
    if (items.empty()) continue;
    const float w = 1.0f / std::sqrt(static_cast<float>(items.size()));
    for (const uint32_t j : items) triplets.push_back({u, j, w});
  }
  return hosr::graph::CsrMatrix::FromTriplets(
      interactions.num_users(), interactions.num_items(), std::move(triplets));
}

// Touched-row plan of one batch for StepRows: user rows for user-indexed
// parameters, item rows for item-indexed ones, dense otherwise.
std::vector<hosr::optim::RowSet> BatchPlan(hosr::autograd::ParamStore* params,
                                           const hosr::data::BprBatch& batch,
                                           uint32_t num_users,
                                           uint32_t num_items) {
  std::vector<uint32_t> users = batch.users;
  std::vector<uint32_t> items = batch.pos_items;
  items.insert(items.end(), batch.neg_items.begin(), batch.neg_items.end());
  for (auto* v : {&users, &items}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  std::vector<hosr::optim::RowSet> plan;
  for (size_t p = 0; p < params->size(); ++p) {
    const size_t rows = params->at(p)->value.rows();
    hosr::optim::RowSet set;
    if (rows == num_users && rows != num_items) {
      set.rows = users;
    } else if (rows == num_items && rows != num_users) {
      set.rows = items;
    } else {
      set.dense = true;
    }
    plan.push_back(std::move(set));
  }
  return plan;
}

std::string TraceTraining(const hosr::util::Flags& flags, SpanLog* spans) {
  const TrainSetup s = ParseTrainSetup(flags);
  const int traced_epochs = static_cast<int>(flags.GetInt("train_epochs", 2));
  const int setup_reps = static_cast<int>(flags.GetInt("setup_reps", 1));

  const uint16_t n_load = spans->NameId("data.load_dataset.train");
  const uint16_t n_init = spans->NameId("models.init");
  hosr::data::Dataset dataset;
  for (int r = 0; r < setup_reps; ++r) {
    ScopedSpan span(spans, n_load, r, -1);
    dataset = LoadDatasetOrDie(s.data);
  }
  std::unique_ptr<Session> session;
  for (int r = 0; r < setup_reps; ++r) {
    session.reset();
    hosr::data::Dataset copy = dataset;
    ScopedSpan span(spans, n_init, r, -1);
    session = OpenSession(s, std::move(copy));
  }
  hosr::models::RankingModel* model = session->model.get();
  hosr::models::BprTrainer* trainer = session->trainer.get();
  const auto& train = session->split.train.interactions;

  // The manual loop makes the same calls as the sequential trainer.
  hosr::data::BprSampler sampler(&train, s.seed ^ 0x5bd1e995u);
  auto optimizer = hosr::optim::MakeOptimizer(
      s.config.optimizer, s.config.learning_rate, s.config.weight_decay);
  hosr::util::Rng rng(s.seed + 13);
  hosr::autograd::ParamStore* params = model->params();
  const size_t batch_size = s.config.batch_size;
  const size_t num_batches =
      std::max<size_t>(1, (sampler.num_positives() + batch_size - 1) /
                              batch_size);
  const uint16_t names[6] = {
      spans->NameId("core.epoch_begin"), spans->NameId("train.batch"),
      spans->NameId("data.sample_batch"), spans->NameId("models.build_loss"),
      spans->NameId("autograd.backward"), spans->NameId("optim.step")};
  std::vector<double> allocs, alloc_bytes, windows;
  bool finite = true;
  int64_t batch_id = 0;
  uint32_t epoch = 0;
  struct EpochTotals {
    double cpu_seconds = 0;
    double samples = 0;
  };
  // One epoch of the manual loop; a null `log` runs it untraced.
  auto manual_epoch = [&](SpanLog* log, EpochTotals* totals) {
    const int64_t begin = NowNs();
    const int64_t cpu_begin = ProcessCpuNs();
    ArmAllocCounting(log != nullptr);
    {
      ScopedSpan span(log, names[0], epoch, -1);
      model->OnEpochBegin(epoch++, &rng);
    }
    for (size_t b = 0; b < num_batches; ++b, ++batch_id) {
      const AllocCounts before = ReadAllocCounts();
      {
        ScopedSpan root(log, names[1], batch_id, -1);
        hosr::data::BprBatch batch;
        {
          ScopedSpan span(log, names[2], batch_id, root.index());
          batch = sampler.SampleBatch(batch_size);
        }
        hosr::autograd::Tape tape;
        std::optional<hosr::autograd::Value> loss;
        {
          ScopedSpan span(log, names[3], batch_id, root.index());
          loss = model->BuildLoss(&tape, batch, &rng);
        }
        {
          ScopedSpan span(log, names[4], batch_id, root.index());
          params->ZeroGrad();
          tape.Backward(*loss);
        }
        if (s.config.sparse_steps) {
          const auto plan =
              BatchPlan(params, batch, model->num_users(), model->num_items());
          ScopedSpan span(log, names[5], batch_id, root.index());
          optimizer->StepRows(params, plan);
        } else {
          ScopedSpan span(log, names[5], batch_id, root.index());
          optimizer->Step(params);
        }
        finite = finite && std::isfinite(loss->value()(0, 0));
        totals->samples += static_cast<double>(batch.size());
      }
      if (log != nullptr) {
        const AllocCounts after = ReadAllocCounts();
        allocs.push_back(static_cast<double>(after.count - before.count));
        alloc_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
      }
    }
    ArmAllocCounting(false);
    const int64_t end = NowNs();
    totals->cpu_seconds +=
        static_cast<double>(ProcessCpuNs() - cpu_begin) / 1e9;
    if (log != nullptr) {
      windows.push_back(static_cast<double>(begin));
      windows.push_back(static_cast<double>(end));
    }
  };

  // After one warm-up epoch of each, every round runs one epoch of the
  // shipped trainer (for the trainer residual) and one untraced and one
  // traced epoch of the manual loop, in ABBA order (for the tracing
  // overhead, in CPU time so that host steal does not enter it), all on
  // the same model.
  EpochTotals warmup, untraced, traced;
  trainer->RunEpoch();
  manual_epoch(nullptr, &warmup);
  double ref_seconds = 0, ref_batches = 0;
  for (int e = 0; e < traced_epochs; ++e) {
    const hosr::models::EpochStats stats = trainer->RunEpoch();
    ref_seconds += stats.seconds;
    ref_batches += static_cast<double>(stats.batches);
    const bool traced_first = e % 2 == 1;
    for (const bool trace : {traced_first, !traced_first}) {
      manual_epoch(trace ? spans : nullptr, trace ? &traced : &untraced);
    }
  }

  // Kernels at the model's shapes: n users, d columns.
  const size_t n = model->num_users();
  const size_t d = s.dim;
  hosr::util::Rng krng(s.seed + 21);
  const hosr::tensor::Matrix a = RandomMatrix(n, d, &krng);
  const hosr::tensor::Matrix g = RandomMatrix(n, d, &krng);
  const hosr::tensor::Matrix w = RandomMatrix(d, d, &krng);
  hosr::tensor::Matrix nd(n, d), dd(d, d);
  const hosr::graph::CsrMatrix laplacian =
      hosr::graph::NormalizedLaplacian(session->split.train.social.adjacency());
  // The backward of Eq. 11's item term: Tape::SpMM runs Spmm over the
  // operator's transpose (items x users), built once per model.
  const hosr::graph::CsrMatrix item_term_t =
      ItemTermOperator(train).Transpose();
  hosr::tensor::Matrix md(train.num_items(), d);
  const double gemm_flops = 2.0 * static_cast<double>(n) * d * d;
  struct Kernel {
    const char* name;
    double work;
    std::function<void()> run;
  };
  const std::vector<Kernel> kernels = {
      {"tensor.gemm_fwd", gemm_flops,
       [&] { hosr::tensor::Gemm(a, false, w, false, 1.0f, 0.0f, &nd); }},
      {"tensor.gemm_wgrad", gemm_flops,
       [&] { hosr::tensor::Gemm(a, true, g, false, 1.0f, 0.0f, &dd); }},
      {"tensor.gemm_dgrad", gemm_flops,
       [&] { hosr::tensor::Gemm(g, false, w, true, 1.0f, 0.0f, &nd); }},
      {"tensor.tanh", static_cast<double>(n) * d,
       [&] { nd = hosr::tensor::Tanh(a); }},
      {"graph.spmm", 2.0 * static_cast<double>(laplacian.nnz()) * d,
       [&] { hosr::graph::Spmm(laplacian, a, &nd); }},
      {"graph.spmm_t", 2.0 * static_cast<double>(item_term_t.nnz()) * d,
       [&] { hosr::graph::Spmm(item_term_t, g, &md); }},
  };
  Json work;
  for (const Kernel& kernel : kernels) {
    const uint16_t id = spans->NameId(kernel.name);
    kernel.run();  // warm
    for (int r = 0; r < kKernelReps; ++r) {
      ScopedSpan span(spans, id, r, -1);
      kernel.run();
    }
    work.Num(kernel.name, kernel.work);
  }

  return Json()
      .Num("ref_seconds", ref_seconds)
      .Num("ref_batches", ref_batches)
      .Num("untraced_cpu_s", untraced.cpu_seconds)
      .Num("untraced_samples", untraced.samples)
      .Num("traced_cpu_s", traced.cpu_seconds)
      .Num("traced_samples", traced.samples)
      .Nums("traced_windows_ns", windows)
      .Nums("allocs_per_batch", allocs)
      .Nums("alloc_bytes_per_batch", alloc_bytes)
      .Bool("losses_finite", finite)
      .Raw("kernel_work", work.Done())
      .Done();
}

// Totals over the replays of one kind (traced or untraced).
struct ReplayStats {
  std::vector<double> windows_ns;  // begin, end of each timed window
  double timed_cpu_s = 0;
  uint64_t timed_hits = 0;
  uint64_t timed_lookups = 0;
  std::vector<double> post_swap_misses;
  size_t failed = 0;
};

std::string TraceServing(const hosr::util::Flags& flags, SpanLog* spans) {
  const std::string data_dir = flags.GetString("serve_data", "");
  const std::string snap_a = flags.GetString("snap_a", "");
  const std::string snap_b = flags.GetString("snap_b", "");
  const std::vector<uint32_t> users = ReadStream(flags.GetString("stream", ""));
  const size_t warmup = static_cast<size_t>(flags.GetInt("warmup", 0));
  const size_t capacity =
      static_cast<size_t>(flags.GetInt("cache_capacity", 65536));
  const std::vector<int> publish_at =
      ParseInts(flags.GetString("publish_at", ""));
  const int setup_reps = static_cast<int>(flags.GetInt("setup_reps", 1));

  const uint16_t n_load = spans->NameId("data.load_dataset.serve");
  const uint16_t n_snap = spans->NameId("serve.load_snapshot");
  const uint16_t n_create = spans->NameId("serve.manager_create");
  hosr::data::Dataset dataset;
  for (int r = 0; r < setup_reps; ++r) {
    ScopedSpan span(spans, n_load, r, -1);
    dataset = LoadDatasetOrDie(data_dir);
  }
  std::optional<hosr::serve::ModelSnapshot> snapshot;
  for (int r = 0; r < setup_reps; ++r) {
    ScopedSpan span(spans, n_snap, r, -1);
    auto loaded = hosr::serve::LoadSnapshot(snap_a);
    if (!loaded.ok()) Die(loaded.status().ToString());
    snapshot = std::move(loaded).value();
  }
  auto make_manager = [&](hosr::serve::ResultCache* cache) {
    hosr::serve::SnapshotManager::Options options;
    options.path = snap_a;
    options.seen = &dataset.interactions;
    options.cache = cache;
    auto created = hosr::serve::SnapshotManager::Create(options, *snapshot);
    if (!created.ok()) Die(created.status().ToString());
    return std::move(created).value();
  };
  for (int r = 0; r < setup_reps; ++r) {
    hosr::serve::ModelSnapshot copy = *snapshot;
    ScopedSpan span(spans, n_create, r, -1);
    hosr::serve::SnapshotManager::Options options;
    options.path = snap_a;
    options.seen = &dataset.interactions;
    auto created =
        hosr::serve::SnapshotManager::Create(options, std::move(copy));
    if (!created.ok()) Die(created.status().ToString());
  }

  // One replay of the stream and its publishes, as the server handles each
  // frame, added to `stats`. Requests of the timed window are traced into
  // `log`; a null `log` replays untraced.
  const uint16_t names[7] = {
      spans->NameId("serve.request"), spans->NameId("serve.acquire"),
      spans->NameId("serve.cache_get"), spans->NameId("serve.executor"),
      spans->NameId("serve.cache_put"), spans->NameId("serve.scores"),
      spans->NameId("serve.reload")};
  auto replay = [&](SpanLog* timed_log, ReplayStats* stats) {
    hosr::serve::ResultCache cache(
        hosr::serve::ResultCache::Options{.capacity = capacity});
    auto manager = make_manager(&cache);
    size_t next_publish = 0;
    int64_t window_begin = 0, cpu_begin = 0;
    hosr::serve::ResultCache::Stats at_window;
    std::vector<std::pair<size_t, uint64_t>> swap_marks;  // (end index, misses)
    SpanLog* log = nullptr;
    for (size_t i = 0; i < users.size(); ++i) {
      if (i == warmup) {
        window_begin = NowNs();
        cpu_begin = ProcessCpuNs();
        at_window = cache.GetStats();
        log = timed_log;
      }
      if (next_publish < publish_at.size() &&
          i == static_cast<size_t>(publish_at[next_publish])) {
        const std::string& path = next_publish % 2 == 0 ? snap_b : snap_a;
        ScopedSpan span(log, names[6], static_cast<int64_t>(next_publish), -1);
        if (auto status = manager->ReloadNow(path); !status.ok()) {
          Die("reload: " + status.ToString());
        }
        swap_marks.push_back({i + kPostSwapWindow, cache.GetStats().misses});
        ++next_publish;
      }
      for (const auto& mark : swap_marks) {
        if (mark.first == i) {
          stats->post_swap_misses.push_back(
              static_cast<double>(cache.GetStats().misses - mark.second));
        }
      }
      const uint32_t user = users[i];
      const auto unit = static_cast<int64_t>(i);
      ScopedSpan root(log, names[0], unit, -1);
      std::shared_ptr<const hosr::serve::ServingState> state;
      {
        ScopedSpan span(log, names[1], unit, root.index());
        state = manager->Acquire();
      }
      const uint64_t generation = state->version();
      std::optional<std::vector<uint32_t>> hit;
      {
        ScopedSpan span(log, names[2], unit, root.index());
        hit = cache.Get(user, kTopK, generation);
      }
      std::vector<uint32_t> items;
      if (hit) {
        items = std::move(*hit);
      } else {
        hosr::util::StatusOr<hosr::serve::ServeResponse> served =
            hosr::util::Status::Internal("unset");
        {
          ScopedSpan span(log, names[3], unit, root.index());
          served = state->executor().Execute(user, kTopK, /*token=*/i + 1,
                                             hosr::serve::kNoDeadline);
        }
        if (!served.ok() || served->degraded) {
          ++stats->failed;
          continue;
        }
        {
          ScopedSpan span(log, names[4], unit, root.index());
          cache.Put(user, kTopK, served->items, generation);
        }
        items = std::move(served->items);
      }
      {
        ScopedSpan span(log, names[5], unit, root.index());
        std::vector<float> scores;
        for (const uint32_t item : items) {
          scores.push_back(state->engine().snapshot().Score(user, item));
        }
        g_sink = g_sink + scores.size();
      }
    }
    const int64_t window_end = NowNs();
    stats->windows_ns.push_back(static_cast<double>(window_begin));
    stats->windows_ns.push_back(static_cast<double>(window_end));
    stats->timed_cpu_s += static_cast<double>(ProcessCpuNs() - cpu_begin) / 1e9;
    const auto at_end = cache.GetStats();
    stats->timed_hits += at_end.hits - at_window.hits;
    stats->timed_lookups +=
        (at_end.hits + at_end.misses) - (at_window.hits + at_window.misses);
  };
  // Untraced and traced replays in ABBA order, for the tracing overhead
  // in CPU time.
  ReplayStats untraced, traced;
  for (const bool trace : {false, true, true, false}) {
    replay(trace ? spans : nullptr, trace ? &traced : &untraced);
  }

  // The engine alone, and the client-side codec, over the first requests
  // of the timed window.
  auto manager = make_manager(nullptr);
  auto state = manager->Acquire();
  const uint16_t n_topk = spans->NameId("serve.engine_topk");
  const uint16_t n_codec = spans->NameId("net.codec");
  const size_t calls = std::min(kEngineCalls, users.size() - warmup);
  std::vector<std::string> reply_frames;
  for (size_t c = 0; c < calls; ++c) {
    const uint32_t user = users[warmup + c];
    hosr::util::StatusOr<hosr::serve::RankedItems> items =
        hosr::util::Status::Internal("unset");
    {
      ScopedSpan span(spans, n_topk, static_cast<int64_t>(c), -1);
      items = state->engine().TryTopKForUser(user, kTopK);
    }
    if (!items.ok()) Die("engine: " + items.status().ToString());
    hosr::net::QueryResponse response;
    response.items = *items;
    for (const uint32_t item : *items) {
      response.scores.push_back(state->engine().snapshot().Score(user, item));
    }
    reply_frames.push_back(hosr::net::EncodeFrame(
        hosr::net::FrameType::kQueryReply,
        hosr::net::EncodeQueryResponse(response)));
  }
  for (size_t c = 0; c < calls; ++c) {
    ScopedSpan span(spans, n_codec, static_cast<int64_t>(c), -1);
    hosr::net::QueryRequest request;
    request.trace_id = c + 1;
    request.user = users[warmup + c];
    request.k = kTopK;
    const std::string frame = hosr::net::EncodeFrame(
        hosr::net::FrameType::kQuery, hosr::net::EncodeQueryRequest(request));
    hosr::net::Frame decoded;
    auto used = hosr::net::TryDecodeFrame(reply_frames[c], &decoded);
    if (!used.ok() || *used == 0) Die("codec: cannot decode reply frame");
    auto response = hosr::net::DecodeQueryResponse(decoded.payload);
    if (!response.ok()) Die("codec: " + response.status().ToString());
    g_sink = g_sink + frame.size() + response->items.size();
  }

  // Round trips against the live server, one connection.
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const size_t rt_warmup =
      std::min<size_t>(flags.GetInt("roundtrip_warmup", 0), users.size());
  const size_t rt_requests =
      static_cast<size_t>(flags.GetInt("roundtrip_requests", 1000));
  const uint16_t n_rt = spans->NameId("net.roundtrip");
  auto client = hosr::net::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  size_t rt_failed = 0;
  for (size_t i = 0; i < rt_warmup + rt_requests; ++i) {
    const size_t at = i % users.size();
    if (i < rt_warmup) {
      rt_failed += !client->Query(users[at], kTopK, at + 1).ok();
      continue;
    }
    ScopedSpan span(spans, n_rt, static_cast<int64_t>(i), -1);
    auto reply = client->Query(users[at], kTopK, at + 1);
    rt_failed += !reply.ok() || reply->degraded;
  }

  return Json()
      .Num("untraced_cpu_s", untraced.timed_cpu_s)
      .Num("traced_cpu_s", traced.timed_cpu_s)
      .Nums("traced_windows_ns", traced.windows_ns)
      .Int("timed_hits", static_cast<int64_t>(traced.timed_hits))
      .Int("timed_lookups", static_cast<int64_t>(traced.timed_lookups))
      .Nums("post_swap_misses", traced.post_swap_misses)
      .Int("failed",
           static_cast<int64_t>(untraced.failed + traced.failed + rt_failed))
      .Done();
}

}  // namespace

int Trace(const hosr::util::Flags& flags) {
  SpanLog spans(1 << 20);
  const std::string train = TraceTraining(flags, &spans);
  const std::string serve = TraceServing(flags, &spans);
  if (auto status = spans.Write(flags.GetString("spans_out", ""));
      !status.ok()) {
    Die(status.ToString());
  }
  const std::string json = Json()
                               .Str("dispatch", hosr::kernels::Active().name)
                               .Raw("names", spans.NamesJson())
                               .Raw("train", train)
                               .Raw("serve", serve)
                               .Done();
  WriteOrDie(flags.GetString("out", ""), json + "\n");
  return 0;
}

}  // namespace perfbench
