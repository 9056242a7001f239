// Replaces the global operator new of the perfbench binary so the traced
// run can count the heap allocations of one training batch exactly. While
// counting is disarmed the only extra cost is one relaxed load per call.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace perfbench {
namespace {
std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};
}  // namespace

void ArmAllocCounting(bool armed) {
  g_armed.store(armed, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_count.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

namespace {
void* CountedNew(std::size_t size) {
  if (perfbench::g_armed.load(std::memory_order_relaxed)) {
    perfbench::g_count.fetch_add(1, std::memory_order_relaxed);
    perfbench::g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
