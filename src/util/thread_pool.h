#ifndef HOSR_UTIL_THREAD_POOL_H_
#define HOSR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hosr::util {

// A non-owning reference to a `void(size_t begin, size_t end)` callable:
// what ParallelFor runs on each chunk. It must not outlive the callable,
// which a lambda passed straight to ParallelFor never does.
class ChunkBody {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkBody>)
  ChunkBody(const F& body)  // implicit, so lambdas convert
      : body_(&body), call_([](const void* b, size_t begin, size_t end) {
          (*static_cast<const F*>(b))(begin, end);
        }) {}

  void operator()(size_t begin, size_t end) const { call_(body_, begin, end); }

 private:
  const void* body_;
  void (*call_)(const void*, size_t, size_t);
};

// Fork-join workers for ParallelFor. The calling thread is one of the
// pool's num_threads(): it wakes at most chunks - 1 of the sleeping
// num_threads() - 1 workers, runs chunk 0 and claims further chunks
// through an atomic index alongside them, then waits for its own job
// only. Destruction joins the workers; no ParallelFor may be running on
// the pool then.
class ThreadPool {
 public:
  // num_threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  // util::ParallelFor on this pool.
  void ParallelFor(size_t begin, size_t end, ChunkBody body,
                   size_t min_chunk = 1024);

  // Process-wide shared pool, sized to the hardware.
  static ThreadPool& Global();

 private:
  struct Job;

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  Job* jobs_ = nullptr;  // open jobs, an intrusive list of callers' stacks
  size_t sleeping_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// Splits [begin, end) into contiguous chunks and runs
// `body(chunk_begin, chunk_end)` for each on the global pool, returning
// once all of them have finished. A call forks only when the range fills
// kForkChunks chunks (count >= kForkChunks * min_chunk), whatever the pool
// size; it then makes min(4 per pool thread, ceil(count / min_chunk))
// chunks of equal size, the last one shorter, so the boundaries are a
// function of the range, `min_chunk` and the pool size alone, and the
// calling thread runs chunk 0 itself. A smaller call runs inline on the
// caller as one chunk and wakes no worker; calls nested in its body may
// still fork. Inside the chunks of a forked call, on the caller and on
// the workers alike, nested calls never fork. The counters
// util/parallel_for_forks and util/parallel_for_inline count the two
// outcomes. Allocates nothing. `body` must be safe to invoke concurrently
// on disjoint ranges, and must not throw.
inline void ParallelFor(size_t begin, size_t end, ChunkBody body,
                        size_t min_chunk = 1024) {
  ThreadPool::Global().ParallelFor(begin, end, body, min_chunk);
}

// Estimated nanoseconds of one core's work a ParallelFor chunk should
// carry, and the chunks a call must fill to fork. On a 4-vCPU KVM guest a
// sleeping worker starts its first chunk 40-60 us after the call
// (bench/kernels `parallel_for_wakeup_micros`), and HOSR's forks of calls
// under 0.5 ms bought no wall time inside a training batch while costing
// CPU; with these a call forks only from 0.5 ms of estimated work, on a
// pool of any size (docs/PERFORMANCE.md "Fork-join ParallelFor and the
// 16-lane GEMM tile").
inline constexpr double kChunkNanos = 125'000.0;
inline constexpr size_t kForkChunks = 4;

// The one grain-sizing rule for ParallelFor `min_chunk` arguments: items
// per chunk so a chunk carries at least kChunkNanos, where `ns_per_item`
// is the caller's estimate of one item's cost on one core (the kernels
// state theirs in kernels::KernelTable). At least 1; a cost of zero or
// less never forks.
size_t GrainFor(double ns_per_item);

}  // namespace hosr::util

#endif  // HOSR_UTIL_THREAD_POOL_H_
