// Closed-loop load generator on net::NetClient, run pinned beside a live
// hosr_serve:
//   perfbench load --port=P --server_pid=PID --stream=FILE --warmup=W
//                  --data=DIR --snap_a=FILE
//                  [--snap_b=FILE --publish_path=FILE --publish_at=i,j,...]
//                  --all_cpus=0,1,2,3 --out=FILE --lat_out=FILE
// The stream file holds one little-endian u32 user id per request. The
// first W requests are warm-up; the rest form the timed window, cut into
// kSlices equal slices bracketed by /proc samples of the server. Each
// thread owns one connection and sends its next request only after the
// previous answer arrived.
// Publishes rename snapshot B, A, B, ... onto --publish_path when the
// stream reaches each position in --publish_at. After the window every
// answer is checked against an in-process engine over A and B.
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/io.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "subcommands.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kThreads = 2;      // one connection each, closed loop
constexpr size_t kSlices = 20;   // of the timed window

void SetAffinity(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

// Publishes by writing a sibling temp file and renaming it over the watched
// path, so the watcher never sees a partial file.
void Publish(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + tmp);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok) Die("short write " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) Die("rename " + tmp);
}

uint64_t AnswerHash(const std::vector<uint32_t>& items,
                    const std::vector<float>& scores) {
  const uint64_t h = Fnv1a(items.data(), items.size() * sizeof(uint32_t));
  return Fnv1a(scores.data(), scores.size() * sizeof(float), h);
}

// Hashes of the exact answer of one snapshot for every user in the stream,
// built the way the server builds a reply: engine top-K, then per-item
// snapshot score.
std::vector<uint64_t> ExpectedAnswers(
    const hosr::serve::InferenceEngine& engine,
    const std::vector<uint8_t>& wanted) {
  std::vector<uint64_t> out(wanted.size());
  hosr::util::ParallelFor(0, wanted.size(), [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      if (!wanted[u]) continue;
      const uint32_t user = static_cast<uint32_t>(u);
      auto items = engine.TryTopKForUser(user, kTopK);
      if (!items.ok()) {
        Die("in-process engine failed: " + items.status().ToString());
      }
      std::vector<float> scores;
      for (const uint32_t item : *items) {
        scores.push_back(engine.snapshot().Score(user, item));
      }
      out[u] = AnswerHash(*items, scores);
    }
  }, 64);
  return out;
}

}  // namespace

int Load(const hosr::util::Flags& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string server_pid = flags.GetString("server_pid", "self");
  const std::vector<uint32_t> users = ReadStream(flags.GetString("stream", ""));
  const size_t warmup = static_cast<size_t>(flags.GetInt("warmup", 0));
  const std::string publish_path = flags.GetString("publish_path", "");
  const std::vector<int> publish_at =
      ParseInts(flags.GetString("publish_at", ""));
  const std::string snap_a = flags.GetString("snap_a", "");
  const std::string snap_b = flags.GetString("snap_b", "");
  if (warmup >= users.size()) Die("warm-up covers the whole stream");
  const size_t total = users.size();

  // Publish payloads are read before the window so publishing costs only
  // the write and the rename.
  std::vector<std::string> payloads;
  if (!publish_at.empty()) {
    payloads = {ReadFileOrDie(snap_a), ReadFileOrDie(snap_b)};
    if (payloads[0].empty() || payloads[1].empty() || publish_path.empty()) {
      Die("publishing needs --snap_a, --snap_b and --publish_path");
    }
  }

  std::vector<hosr::net::NetClient> clients;
  for (int t = 0; t < kThreads; ++t) {
    auto client = hosr::net::NetClient::Connect("127.0.0.1", port);
    if (!client.ok()) Die("connect: " + client.status().ToString());
    clients.push_back(std::move(client).value());
  }

  // Per-request records, indexed by stream position; each index is written
  // only by the thread that claimed it.
  std::vector<int64_t> send_ns(total), recv_ns(total);
  std::vector<uint64_t> hashes(total);
  std::vector<uint8_t> thread_of(total), ok(total), from_cache(total);
  std::atomic<size_t> next{0};
  std::atomic<int> transport_errors{0};
  // The timed window is cut into equal request-count slices; the thread
  // that claims a slice's first request samples /proc before sending it.
  const size_t timed = total - warmup;
  std::vector<int32_t> slice_at(total, -1);
  for (size_t j = 1; j < kSlices; ++j) {
    slice_at[warmup + j * timed / kSlices] = static_cast<int32_t>(j);
  }
  std::vector<ProcSample> slices(kSlices + 1);

  auto run_phase = [&](size_t end) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, end] {
        hosr::net::NetClient& client = clients[t];
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= end) break;
          thread_of[i] = static_cast<uint8_t>(t);
          if (slice_at[i] >= 0) slices[slice_at[i]] = SampleProc(server_pid);
          send_ns[i] = NowNs();
          auto reply = client.Query(users[i], kTopK, /*trace_id=*/i + 1);
          recv_ns[i] = NowNs();
          if (!reply.ok()) {
            transport_errors.fetch_add(1);
            if (!client.Reconnect().ok()) return;
            continue;
          }
          ok[i] = !reply->degraded && !reply->items.empty();
          from_cache[i] = reply->served_from_cache;
          hashes[i] = AnswerHash(reply->items, reply->scores);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    next.store(end);
  };

  run_phase(warmup);
  slices.front() = SampleProc(server_pid);
  const ProcSample& begin = slices.front();

  // The publisher watches the stream position and renames the next
  // snapshot into place as each publish position is reached.
  std::vector<int64_t> publish_ns;
  std::atomic<bool> window_done{false};
  std::thread publisher([&] {
    for (size_t j = 0; j < publish_at.size(); ++j) {
      while (next.load() < static_cast<size_t>(publish_at[j])) {
        if (window_done.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Publish(publish_path, payloads[(j + 1) % 2]);  // B, A, B, ...
      publish_ns.push_back(NowNs());
    }
  });
  run_phase(total);
  slices.back() = SampleProc(server_pid);
  window_done.store(true);
  publisher.join();

  // ---- Verification, off the clock and on every CPU. ------------------
  SetAffinity(ParseInts(flags.GetString("all_cpus", "")));
  const hosr::data::Dataset dataset =
      LoadDatasetOrDie(flags.GetString("data", ""));
  std::vector<uint8_t> wanted(dataset.num_users(), 0);
  for (const uint32_t u : users) {
    if (u >= wanted.size()) Die("stream user out of range");
    wanted[u] = 1;
  }
  std::vector<std::vector<uint64_t>> expected;
  for (const std::string& path : {snap_a, snap_b}) {
    if (path.empty()) continue;
    auto snapshot = hosr::serve::LoadSnapshot(path);
    if (!snapshot.ok()) Die(snapshot.status().ToString());
    hosr::serve::InferenceEngine engine(std::move(snapshot).value(),
                                        &dataset.interactions);
    expected.push_back(ExpectedAnswers(engine, wanted));
  }

  // Stage j of the stream serves snapshot j % 2 (0 = A, 1 = B) once
  // publish j has landed; per connection, stages may only move forward and
  // only after the matching publish.
  size_t failed = 0, mismatched = 0, stale = 0, ambiguous = 0, hits = 0;
  std::vector<size_t> stage(kThreads, 0);
  size_t max_stage_seen = 0;
  for (size_t i = 0; i < total; ++i) {
    hits += from_cache[i];
    if (!ok[i]) {
      ++failed;
      continue;
    }
    const uint32_t u = users[i];
    int label = -1;
    bool both = false;
    for (size_t s = 0; s < expected.size(); ++s) {
      if (hashes[i] == expected[s][u]) {
        if (label >= 0) both = true;
        label = static_cast<int>(s);
      }
    }
    if (label < 0) {
      ++mismatched;
      continue;
    }
    if (both) {
      ++ambiguous;
      continue;
    }
    size_t& current = stage[thread_of[i]];
    if (static_cast<size_t>(label) != current % 2) {
      // The next stage; it must have been published before this reply.
      const size_t next_stage = current + 1;
      if (next_stage > publish_ns.size() ||
          publish_ns[next_stage - 1] > recv_ns[i]) {
        ++stale;
      } else {
        current = next_stage;
      }
    }
    max_stage_seen = std::max(max_stage_seen, current);
  }

  std::string latencies(timed * sizeof(int64_t), '\0');
  for (size_t i = warmup; i < total; ++i) {
    const int64_t lat = recv_ns[i] - send_ns[i];
    std::memcpy(latencies.data() + (i - warmup) * sizeof(int64_t), &lat,
                sizeof(lat));
  }
  WriteOrDie(flags.GetString("lat_out", ""), latencies);

  std::vector<double> publish_offsets_s;
  for (const int64_t t : publish_ns) {
    publish_offsets_s.push_back(static_cast<double>(t - begin.wall_ns) / 1e9);
  }
  const std::string json =
      Json()
          .Str("dispatch", hosr::kernels::Active().name)
          .Int("attempted", static_cast<int64_t>(total))
          .Int("timed", static_cast<int64_t>(timed))
          .Int("failed", static_cast<int64_t>(failed))
          .Int("transport_errors", transport_errors.load())
          .Int("mismatched", static_cast<int64_t>(mismatched))
          .Int("stale", static_cast<int64_t>(stale))
          .Int("ambiguous", static_cast<int64_t>(ambiguous))
          .Int("client_seen_hits", static_cast<int64_t>(hits))
          .Int("publishes", static_cast<int64_t>(publish_ns.size()))
          .Int("max_stage_seen", static_cast<int64_t>(max_stage_seen))
          .Nums("publish_offsets_s", publish_offsets_s)
          .Raw("slices", ProcListJson(slices))
          .Done();
  WriteOrDie(flags.GetString("out", ""), json + "\n");
  return 0;
}

}  // namespace perfbench
