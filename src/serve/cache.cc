#include "serve/cache.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/logging.h"

namespace hosr::serve {

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options options) : capacity_(options.capacity) {
  HOSR_CHECK(options.capacity > 0);
  HOSR_CHECK(options.num_shards > 0);
  // Round the shard count to a power of two no larger than the capacity so
  // every shard holds at least one entry.
  const size_t shards = std::bit_floor(std::min(options.num_shards,
                                                options.capacity));
  shards_ = std::vector<Shard>(shards);
  per_shard_capacity_ = (capacity_ + shards - 1) / shards;
  shard_bits_ = static_cast<unsigned>(std::bit_width(shards) - 1);
}

std::optional<std::vector<uint32_t>> ResultCache::Get(
    uint32_t user, uint32_t k, uint64_t generation,
    std::vector<float>* scores) {
  const uint64_t key = Key(user, k);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    HOSR_COUNTER("serve/cache_misses").Increment();
    return std::nullopt;
  }
  if (it->second->second.generation != generation) {
    // Written under a different snapshot: never serve it, reclaim now.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.stale_hits;
    ++shard.misses;
    HOSR_COUNTER("serve/cache_stale_hits").Increment();
    HOSR_COUNTER("serve/cache_misses").Increment();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  HOSR_COUNTER("serve/cache_hits").Increment();
  const Entry& entry = it->second->second;
  if (scores != nullptr) *scores = entry.scores;
  return entry.items;
}

void ResultCache::Put(uint32_t user, uint32_t k, std::vector<uint32_t> items,
                      uint64_t generation, std::vector<float> scores) {
  if (generation != generation_.load(std::memory_order_acquire)) {
    // Computed under a snapshot the cache has moved past; storing it would
    // re-poison the cache with pre-swap scores.
    Shard& shard = ShardFor(Key(user, k));
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stale_puts;
    HOSR_COUNTER("serve/cache_stale_puts").Increment();
    return;
  }
  const uint64_t key = Key(user, k);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second =
        Entry{generation, std::move(items), std::move(scores)};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(
      key, Entry{generation, std::move(items), std::move(scores)});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
    HOSR_COUNTER("serve/cache_evictions").Increment();
  }
}

void ResultCache::Advance(uint64_t generation) {
  generation_.store(generation, std::memory_order_release);
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.stale_hits += shard.stale_hits;
    stats.stale_puts += shard.stale_puts;
    stats.entries += shard.lru.size();
  }
  return stats;
}

double ResultCache::HitRate() const {
  const Stats stats = GetStats();
  const uint64_t total = stats.hits + stats.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(stats.hits) /
                          static_cast<double>(total);
}

}  // namespace hosr::serve
