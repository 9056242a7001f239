// Shared helpers of the perfbench binary: clocks, /proc snapshots, a small
// JSON writer, the in-memory span recorder and the allocation counter.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

// Every request asks for the top 20, the cut-off of the paper's Recall@20.
inline constexpr uint32_t kTopK = 20;

int64_t NowNs();
// CPU time of the whole process, all threads; host steal is not in it.
int64_t ProcessCpuNs();

// Whole contents of a file such as /proc/self/stat; exits if unreadable.
std::string ReadFileOrDie(const std::string& path);

// A request stream file: one little-endian u32 user id per request.
std::vector<uint32_t> ReadStream(const std::string& path);

// "1,2,3" -> {1, 2, 3}; empty fields are skipped.
std::vector<int> ParseInts(const std::string& text);

// Raw /proc texts at one instant. run.py parses them, so the parsing
// lives (and is tested) in one place.
struct ProcSample {
  int64_t wall_ns = 0;
  std::string pid_stat;  // /proc/<pid>/stat of the measured process
  std::string stat;      // /proc/stat
};
ProcSample SampleProc(const std::string& pid);  // pid "self" or a number
// JSON array of samples: [{"wall_ns", "pid_stat", "stat"}, ...].
std::string ProcListJson(const std::vector<ProcSample>& samples);

// Minimal JSON object builder; values are appended in call order.
class Json {
 public:
  Json& Num(std::string_view key, double value);
  Json& Int(std::string_view key, int64_t value);
  Json& Str(std::string_view key, std::string_view value);
  Json& Bool(std::string_view key, bool value);
  Json& Nums(std::string_view key, const std::vector<double>& values);
  Json& Raw(std::string_view key, std::string_view json);
  std::string Done() const;

 private:
  void Key(std::string_view key);
  std::string body_;
};

// Spans of the traced run, kept in memory and written once at exit. A span
// wraps one public call into a layer; `unit` is the batch or request id and
// `parent` the index of the enclosing span (-1 for a root).
class SpanLog {
 public:
  explicit SpanLog(size_t reserve = 0) { spans_.reserve(reserve); }
  uint16_t NameId(std::string_view name);
  // Opens a span and returns its index; Close() stamps the end.
  int32_t Open(uint16_t name, int64_t unit, int32_t parent);
  void Close(int32_t index);
  size_t size() const { return spans_.size(); }
  // Binary records (little-endian u16 name, u16 pad, i32 parent, i64 unit,
  // i64 begin_ns, i64 end_ns) plus the name table as JSON.
  hosr::util::Status Write(const std::string& path) const;
  std::string NamesJson() const;

 private:
  struct Span {
    uint16_t name;
    uint16_t pad;
    int32_t parent;
    int64_t unit;
    int64_t begin_ns;
    int64_t end_ns;
  };
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// RAII span over a scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint16_t name, int64_t unit, int32_t parent)
      : log_(log),
        index_(log != nullptr ? log->Open(name, unit, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanLog* log_;
  int32_t index_;
};

// Heap allocations made through this binary's operator new while counting
// is armed (alloc_count.cc).
struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;
};
void ArmAllocCounting(bool armed);
AllocCounts ReadAllocCounts();

// 64-bit FNV-1a, used to compare answers (items and score bits) exactly.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t seed = 0xcbf29ce484222325ull);

// Writes `contents` to `path` or exits the process with a message.
void WriteOrDie(const std::string& path, std::string_view contents);
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
