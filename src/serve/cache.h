#ifndef HOSR_SERVE_CACHE_H_
#define HOSR_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hosr::serve {

// Sharded LRU cache of ranked result lists keyed by (user, K), each stored
// with the scores it was served with. Each shard
// owns an independent mutex + intrusive LRU list, so concurrent request
// threads rarely contend. Hit/miss/eviction totals feed both local Stats
// and the serve/cache_* obs counters.
//
// Entries are tagged with a snapshot generation. Advance() (called by the
// SnapshotManager on every swap) bumps the cache's current generation:
// entries from older generations become misses and are evicted on touch,
// and a Put computed under an older generation is dropped instead of
// stored. The drop closes the race flush-on-swap leaves open — a request
// that ranked under the old engine but reached Put after the swap would
// otherwise re-poison the cache with pre-swap scores.
class ResultCache {
 public:
  struct Options {
    size_t capacity = 1 << 16;  // entries across all shards
    size_t num_shards = 16;
  };

  ResultCache();  // default Options
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The cached list for (user, k), refreshing its recency; nullopt on miss.
  // `generation` is the snapshot generation the caller is serving from
  // (the acquired ServingState's version; 0 for ungenerationed use): an
  // entry written under any other generation is evicted and misses. On a
  // hit, `scores` (optional) receives the scores stored with the list.
  std::optional<std::vector<uint32_t>> Get(uint32_t user, uint32_t k,
                                           uint64_t generation = 0,
                                           std::vector<float>* scores =
                                               nullptr);

  // Inserts or refreshes (user, k) with its scores (empty when the caller
  // has none), evicting the shard's least recently used entry when over
  // budget. `generation` is the generation the result was *computed* under
  // — if the cache has advanced past it since, the value is stale and
  // silently dropped.
  void Put(uint32_t user, uint32_t k, std::vector<uint32_t> items,
           uint64_t generation = 0, std::vector<float> scores = {});

  // Declares `generation` current (snapshot swap). Older entries die
  // lazily on their next touch; older in-flight Puts are dropped.
  void Advance(uint64_t generation);

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t stale_hits = 0;   // generation-mismatched lookups (evicted)
    uint64_t stale_puts = 0;   // Puts dropped for lagging the generation
    size_t entries = 0;
  };
  Stats GetStats() const;

  // hits / (hits + misses), 0 before any lookup.
  double HitRate() const;

  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t generation = 0;
    std::vector<uint32_t> items;
    std::vector<float> scores;
  };
  struct Shard {
    mutable std::mutex mutex;
    // Front = most recently used.
    std::list<std::pair<uint64_t, Entry>> lru;
    std::unordered_map<uint64_t, decltype(lru)::iterator> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t stale_hits = 0;
    uint64_t stale_puts = 0;
  };

  static uint64_t Key(uint32_t user, uint32_t k) {
    return (static_cast<uint64_t>(user) << 32) | k;
  }
  Shard& ShardFor(uint64_t key) {
    // Fibonacci hash spreads sequential user ids across the 2^shard_bits_
    // shards; the top bits of the product pick the shard.
    if (shard_bits_ == 0) return shards_[0];
    return shards_[(key * 0x9E3779B97F4A7C15ull) >> (64 - shard_bits_)];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  unsigned shard_bits_;
  std::atomic<uint64_t> generation_{0};
  std::vector<Shard> shards_;
};

}  // namespace hosr::serve

#endif  // HOSR_SERVE_CACHE_H_
