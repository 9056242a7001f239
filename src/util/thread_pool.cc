#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace hosr::util {

namespace {
// Set on workers for their lifetime and on a caller while it runs chunks
// of a forked call: a ParallelFor made there runs inline, so a chunk's
// work never depends on which thread claimed it.
thread_local bool t_inside_parallel_for = false;
}  // namespace

// One ParallelFor call, on its caller's stack. It stays on the pool's list
// while chunks are left to claim; the caller then unlinks it and waits
// until the workers that joined it (`helpers`) have finished their chunks.
struct ThreadPool::Job {
  Job(ChunkBody body, size_t begin, size_t end, size_t chunk_size)
      : body(body),
        begin(begin),
        end(end),
        chunk_size(chunk_size),
        num_chunks((end - begin + chunk_size - 1) / chunk_size) {}

  const ChunkBody body;
  const size_t begin;
  const size_t end;
  const size_t chunk_size;
  const size_t num_chunks;
  std::atomic<size_t> next_chunk{1};  // chunk 0 is the caller's
  // Guarded by the pool's mutex_.
  size_t helpers = 0;
  bool unlinked = false;
  Job* next_job = nullptr;
  std::condition_variable helpers_done;

  // Claims and runs chunks until none is left.
  void RunChunks() {
    for (size_t c = next_chunk.fetch_add(1); c < num_chunks;
         c = next_chunk.fetch_add(1)) {
      const size_t chunk_begin = begin + c * chunk_size;
      body(chunk_begin, std::min(end, chunk_begin + chunk_size));
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  t_inside_parallel_for = true;
  // The first listed job with a chunk left to claim, or null.
  const auto open_job = [this] {
    Job* job = jobs_;
    while (job != nullptr && job->next_chunk.load() >= job->num_chunks) {
      job = job->next_job;
    }
    return job;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Job* job = open_job();
    if (job == nullptr) {
      ++sleeping_;
      work_available_.wait(lock, [&] {
        return (job = open_job()) != nullptr || shutting_down_;
      });
      --sleeping_;
      if (job == nullptr) return;
    }
    ++job->helpers;
    lock.unlock();
    job->RunChunks();
    lock.lock();
    if (--job->helpers == 0 && job->unlinked) job->helpers_done.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end, ChunkBody body,
                             size_t min_chunk) {
  if (end <= begin) return;
  const size_t count = end - begin;
  min_chunk = std::max<size_t>(1, min_chunk);
  // Fork only a range of kForkChunks chunks (count >= kForkChunks *
  // min_chunk, written so the product cannot overflow). A small call leaves
  // the thread unmarked, so a call nested in its body may still fork.
  if (t_inside_parallel_for || workers_.empty() ||
      count / kForkChunks < min_chunk) {
    HOSR_COUNTER("util/parallel_for_inline").Increment();
    body(begin, end);
    return;
  }
  HOSR_COUNTER("util/parallel_for_forks").Increment();
  const size_t max_chunks = num_threads() * 4;
  const size_t chunks =
      std::min(max_chunks, (count + min_chunk - 1) / min_chunk);
  Job job(body, begin, end, (count + chunks - 1) / chunks);

  size_t wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.next_job = jobs_;
    jobs_ = &job;
    wake = std::min(job.num_chunks - 1, sleeping_);
  }
  for (size_t i = 0; i < wake; ++i) work_available_.notify_one();

  t_inside_parallel_for = true;
  body(begin, begin + job.chunk_size);
  job.RunChunks();
  t_inside_parallel_for = false;

  std::unique_lock<std::mutex> lock(mutex_);
  Job** link = &jobs_;
  while (*link != &job) link = &(*link)->next_job;
  *link = job.next_job;
  job.unlinked = true;
  job.helpers_done.wait(lock, [&job] { return job.helpers == 0; });
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

size_t GrainFor(double ns_per_item) {
  const double items = kChunkNanos / ns_per_item;
  // Compared as a double, so no cost overflows the conversion.
  if (!(ns_per_item > 0.0) || items >= 0x1p63) {
    return std::numeric_limits<size_t>::max();
  }
  return std::max<size_t>(1, static_cast<size_t>(std::ceil(items)));
}

}  // namespace hosr::util
