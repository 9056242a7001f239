#ifndef HOSR_NET_STREAM_H_
#define HOSR_NET_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/hardened.h"
#include "util/random.h"
#include "util/statusor.h"

namespace hosr::net {

// Request-stream generation and outcome/latency accounting shared by the
// in-process replay driver (tools/hosr_serve.cpp) and the remote load
// generator (tools/hosr_loadgen.cc), so both replay bit-identical streams
// and report the same JSON shapes.

struct StreamRequest {
  uint32_t user;
  uint32_t k;
};

// Approximate bounded-Zipf sampler via inverse-CDF of the continuous
// analog: heavy head, long tail, exponent `s` in [0, 1). s == 0 is uniform.
uint32_t SampleZipfUser(util::Rng* rng, uint32_t num_users, double s);

// Parses a scripted stream: one "user [k]" pair per line, '#' comments and
// blank lines skipped. Rejects users >= num_users, k == 0, and empty files.
util::StatusOr<std::vector<StreamRequest>> LoadRequestScript(
    const std::string& path, uint32_t num_users, uint32_t default_k);

// `n` zipf-skewed requests from a fresh Rng(seed) — the synthetic stream.
// Same (seed, num_users, zipf, k, n) always yields the same stream, which
// is what lets a remote loadgen replay exactly what hosr_serve replays.
std::vector<StreamRequest> SyntheticStream(uint32_t num_users, size_t n,
                                           uint32_t k, double zipf,
                                           uint64_t seed);

// Exact percentile (nearest-rank) over an ascending-sorted latency vector,
// reported in microseconds.
double PercentileUs(const std::vector<int64_t>& sorted_ns, double p);

// mean/p50/p95/p99 over one run's latencies. Sorts `ns` in place.
struct LatencySummary {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};
LatencySummary SummarizeLatencies(std::vector<int64_t>* ns);

// Per-thread outcome tally, summed after the replay joins. Both drivers
// count with it; "shed" means ResourceExhausted (the network accept queue,
// queue-delay admission or the circuit breaker).
struct Outcomes {
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  uint64_t error = 0;

  void Count(const util::StatusOr<serve::ServeResponse>& response) {
    if (response.ok()) {
      response->degraded ? ++degraded : ++ok;
      return;
    }
    CountStatus(response.status());
  }

  // The network client's view: success is (ok(), degraded flag) from the
  // decoded response rather than a ServeResponse.
  void CountOk(bool is_degraded) { is_degraded ? ++degraded : ++ok; }
  void CountStatus(const util::Status& status);

  uint64_t total() const {
    return ok + degraded + deadline_exceeded + shed + error;
  }

  Outcomes& operator+=(const Outcomes& other);
};

}  // namespace hosr::net

#endif  // HOSR_NET_STREAM_H_
