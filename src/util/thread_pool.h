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
// once all of them have finished. There are min(4 per pool thread,
// ceil(count / min_chunk)) chunks of equal size, the last one shorter, so
// the boundaries are a function of the range, `min_chunk` and the pool
// size alone. The calling thread runs chunk 0 itself. Runs inline as one
// chunk when the range is no larger than `min_chunk`, the pool has one
// thread, or the caller is already inside a ParallelFor body (nested calls
// never fork). Allocates nothing. `body` must be safe to invoke
// concurrently on disjoint ranges, and must not throw.
inline void ParallelFor(size_t begin, size_t end, ChunkBody body,
                        size_t min_chunk = 1024) {
  ThreadPool::Global().ParallelFor(begin, end, body, min_chunk);
}

// How much work, in scalar-op units, a ParallelFor chunk should carry. A
// fork costs about 22 us of CPU for the first worker it wakes and 10 us
// for each further one on a 4-vCPU AVX2 guest (bench/kernels
// `parallel_for_*_chunks_cpu_*`); at this grain a chunk carries 40-50 us
// of SpMM gather or 0.6 ms of element-wise work, so a call forks only
// when its chunks pay for that (docs/PERFORMANCE.md "Fork-join
// ParallelFor and the 16-lane GEMM tile").
inline constexpr size_t kGrainTargetWork = 768 * 1024;

// The one grain-sizing heuristic for ParallelFor `min_chunk` arguments:
// items per chunk so each chunk carries about kGrainTargetWork ops, where
// `work_per_item` is the per-item cost in scalar-op units (e.g. nnz * d for
// an SpMM row). Clamped to [min_grain, max(min_grain, kGrainTargetWork)];
// zero work_per_item is treated as 1.
size_t GrainFor(size_t work_per_item, size_t min_grain = 1);

}  // namespace hosr::util

#endif  // HOSR_UTIL_THREAD_POOL_H_
