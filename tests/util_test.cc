#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hosr::util {
namespace {
// Allocations made anywhere in the process while counting is on (set by
// ParallelForTest.SteadyStateCallAllocatesNothing).
std::atomic<bool> g_count_allocations{false};
std::atomic<uint64_t> g_allocations{0};
}  // namespace
}  // namespace hosr::util

// GCC's flow analysis pairs the replaced operator new with the library
// default and flags the free() below as mismatched; both sides funnel
// through malloc/free here, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (hosr::util::g_count_allocations.load()) {
    hosr::util::g_allocations.fetch_add(1);
  }
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { operator delete(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  operator delete(ptr);
}

#pragma GCC diagnostic pop

namespace hosr::util {
namespace {

// --- Status / StatusOr ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("m").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("m").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Unavailable("m").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("m").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("m").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DataLoss("m").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, OnlyUnavailableAndResourceExhaustedAreTransient) {
  EXPECT_TRUE(Status::Unavailable("m").IsTransient());
  EXPECT_TRUE(Status::ResourceExhausted("m").IsTransient());

  EXPECT_FALSE(Status::Ok().IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("m").IsTransient());
  EXPECT_FALSE(Status::NotFound("m").IsTransient());
  EXPECT_FALSE(Status::OutOfRange("m").IsTransient());
  EXPECT_FALSE(Status::FailedPrecondition("m").IsTransient());
  EXPECT_FALSE(Status::IoError("m").IsTransient());
  EXPECT_FALSE(Status::Internal("m").IsTransient());
  EXPECT_FALSE(Status::Unimplemented("m").IsTransient());
  EXPECT_FALSE(Status::DeadlineExceeded("m").IsTransient());
  EXPECT_FALSE(Status::DataLoss("m").IsTransient());
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UsesReturnIfError(int x) {
  HOSR_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 5);
  EXPECT_EQ(*result, 5);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

StatusOr<int> DoubleViaAssignOrReturn(int x) {
  HOSR_ASSIGN_OR_RETURN(const int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleViaAssignOrReturn(4).value(), 8);
  EXPECT_FALSE(DoubleViaAssignOrReturn(0).ok());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.UniformInt(17), 17u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformFloatInHalfOpenUnit) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.UniformFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(14);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0f, 0.5f);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(16);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(18);
  Rng forked = a.Fork(1);
  // The fork should not replay the parent's stream.
  Rng parent_copy(18);
  parent_copy.NextUint64();  // advance past the Fork() consumption
  EXPECT_NE(forked.NextUint64(), parent_copy.NextUint64());
}

// --- string_util ------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("3.14").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.0junk").ok());
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- Flags ------------------------------------------------------------------

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : storage) argv.push_back(a.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const Flags f = ParseArgs({"--scale=0.5", "--name=test"});
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(f.GetString("name", ""), "test");
}

TEST(FlagsTest, SpaceSyntax) {
  const Flags f = ParseArgs({"--epochs", "12"});
  EXPECT_EQ(f.GetInt("epochs", 0), 12);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_FALSE(f.GetBool("absent", false));
}

TEST(FlagsTest, DefaultsWhenAbsentOrMalformed) {
  const Flags f = ParseArgs({"--bad=xyz"});
  EXPECT_EQ(f.GetInt("bad", 7), 7);
  EXPECT_EQ(f.GetInt("missing", 3), 3);
  EXPECT_DOUBLE_EQ(f.GetDouble("bad", 1.5), 1.5);
}

TEST(FlagsTest, PositionalCollected) {
  const Flags f = ParseArgs({"pos1", "--k=2", "pos2"});
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagsTest, GetIntRoundTripsNegativeValues) {
  const Flags f = ParseArgs({"--offset=-42", "--delta", "-7"});
  EXPECT_EQ(f.GetInt("offset", 0), -42);
  EXPECT_EQ(f.GetInt("delta", 0), -7);  // space syntax, leading '-'
}

TEST(FlagsTest, GetDoubleRoundTripsNegativeValues) {
  const Flags f = ParseArgs({"--lr=-0.5", "--decay", "-1.25"});
  EXPECT_DOUBLE_EQ(f.GetDouble("lr", 0.0), -0.5);
  EXPECT_DOUBLE_EQ(f.GetDouble("decay", 0.0), -1.25);
}

TEST(FlagsTest, GetDoubleRoundTripsExponentForms) {
  const Flags f = ParseArgs({"--lr=1e-3", "--scale=2.5E+2", "--wd=-4e-5"});
  EXPECT_DOUBLE_EQ(f.GetDouble("lr", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 0.0), 2.5e2);
  EXPECT_DOUBLE_EQ(f.GetDouble("wd", 0.0), -4e-5);
}

TEST(FlagsTest, GetIntRejectsExponentAndFractionForms) {
  // GetInt must not silently truncate a value that only parses as a double.
  const Flags f = ParseArgs({"--epochs=1e2", "--batch=3.5"});
  EXPECT_EQ(f.GetInt("epochs", 11), 11);
  EXPECT_EQ(f.GetInt("batch", 13), 13);
}

// --- CRC-32 -----------------------------------------------------------------

// The bytewise table loop that slice-by-8 replaces: the reference.
uint32_t BytewiseCrc32(uint32_t crc, const unsigned char* bytes, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SliceBy8MatchesBytewiseAtEveryLengthAndOffset) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the standard check value
  EXPECT_EQ(Crc32(""), 0u);
  Rng rng(33);
  std::vector<unsigned char> data(1024 + 8);
  for (auto& b : data) b = static_cast<unsigned char>(rng.UniformInt(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size + offset <= data.size() && size <= 1024;
         ++size) {
      const unsigned char* p = data.data() + offset;
      const uint32_t expected = BytewiseCrc32(0, p, size);
      ASSERT_EQ(Crc32(p, size), expected) << offset << " " << size;
      // Split at an arbitrary point: the incremental form agrees.
      const size_t cut = size / 3;
      ASSERT_EQ(Crc32Update(Crc32Update(0, p, cut), p + cut, size - cut),
                expected)
          << offset << " " << size;
    }
  }
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, TextRendersAligned) {
  Table t({"model", "R@20"});
  t.AddRow({"BPR", "0.0509"});
  t.AddRow({"HOSR", "0.0697"});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("| model "), std::string::npos);
  EXPECT_NE(text.find("| HOSR "), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "quo\"te"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
}

TEST(TableTest, CellFormatsPrecision) {
  EXPECT_EQ(Table::Cell(0.12345, 3), "0.123");
  EXPECT_EQ(Table::Cell(2.0, 1), "2.0");
}

TEST(TableTest, Counts) {
  Table t({"h"});
  t.AddRow({"v"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_cols(), 1u);
}

// --- ThreadPool / ParallelFor ------------------------------------------------

// Four std::threads fork on one pool at once; every item of every call
// runs exactly once.
TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<size_t> items{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int call = 0; call < 25; ++call) {
        pool.ParallelFor(
            0, 64,
            [&](size_t begin, size_t end) { items.fetch_add(end - begin); },
            1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(items.load(), 4u * 25 * 64);
}

TEST(ThreadPoolTest, IdlePoolDestructs) {
  ThreadPool pool(2);  // the destructor must wake and join sleeping workers
  EXPECT_EQ(pool.num_threads(), 2u);
}

// A caller waits for its own chunks only: while one std::thread's body is
// blocked, another thread's call on the same pool still returns.
TEST(ParallelForTest, CallerDoesNotWaitForAnotherCallersChunks) {
  ThreadPool pool(4);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> blocked;
  std::atomic<bool> signalled{false};
  std::thread slow([&] {
    pool.ParallelFor(
        0, 4,
        [&](size_t, size_t) {
          if (!signalled.exchange(true)) blocked.set_value();
          released.wait();
        },
        1);
  });
  blocked.get_future().wait();
  std::promise<void> fast_done;
  std::thread fast([&] {
    std::atomic<size_t> items{0};
    pool.ParallelFor(
        0, 64, [&](size_t begin, size_t end) { items.fetch_add(end - begin); },
        1);
    EXPECT_EQ(items.load(), 64u);
    fast_done.set_value();
  });
  const bool returned = fast_done.get_future().wait_for(
                            std::chrono::seconds(30)) ==
                        std::future_status::ready;
  release.set_value();
  fast.join();
  slow.join();
  EXPECT_TRUE(returned) << "a ParallelFor waited for another caller's body";
}

TEST(ParallelForTest, SteadyStateCallAllocatesNothing) {
  ThreadPool pool(4);
  std::vector<double> sums(4096, 0.0);
  const double scale = 0.5;
  const size_t offset = 3;
  const size_t stride = 1;
  const size_t unused = 0;
  // Captures five references, more than std::function stores in place.
  const auto body = [&sums, &scale, &offset, &stride, &unused](size_t begin,
                                                              size_t end) {
    for (size_t i = begin; i < end; i += stride) {
      sums[i] += scale * static_cast<double>(i + offset + unused);
    }
  };
  pool.ParallelFor(0, sums.size(), body, 16);  // warm-up
  ParallelFor(0, sums.size(), body, 16);
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (int call = 0; call < 100; ++call) {
    pool.ParallelFor(0, sums.size(), body, 16);
    ParallelFor(0, sums.size(), body, 16);
  }
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(sums[1], 202 * 0.5 * 4);
}

TEST(ParallelForTest, NestedCallRunsOnTheCallingThread) {
  ThreadPool pool(4);
  std::atomic<int> items{0};
  std::atomic<int> elsewhere{0};
  pool.ParallelFor(
      0, 8,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const std::thread::id outer = std::this_thread::get_id();
          pool.ParallelFor(
              0, 100,
              [&](size_t b2, size_t e2) {
                items.fetch_add(static_cast<int>(e2 - b2));
                if (std::this_thread::get_id() != outer) elsewhere.fetch_add(1);
              },
              1);
          ParallelFor(
              0, 100,
              [&](size_t, size_t) {
                if (std::this_thread::get_id() != outer) elsewhere.fetch_add(1);
              },
              1);
        }
      },
      1);
  EXPECT_EQ(items.load(), 800);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ParallelForTest, ChunkZeroRunsOnTheCaller) {
  ThreadPool pool(4);
  std::thread::id chunk_zero;
  pool.ParallelFor(
      0, 64,
      [&](size_t begin, size_t) {
        if (begin == 0) chunk_zero = std::this_thread::get_id();
      },
      1);
  EXPECT_EQ(chunk_zero, std::this_thread::get_id());
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(0, hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Ranges of odd sizes just around chunk edges, at an offset: every index
// is covered exactly once, by the chunks of a pure function of the range,
// min_chunk and the pool size: one chunk below kForkChunks chunks, else
// min(4 per pool thread, ceil(count / min_chunk)) chunks of equal size,
// the last one shorter.
TEST(ParallelForTest, OddRangesAroundChunkEdgesCoveredOnce) {
  ThreadPool pool(4);
  const size_t begin = 5;
  for (const size_t min_chunk : {1u, 3u, 7u, 64u}) {
    for (size_t count = 1; count <= 3 * min_chunk * 16 + 2; ++count) {
      if (count > 40 && count % min_chunk > 1 &&
          count % min_chunk < min_chunk - 1) {
        continue;  // keep the sizes next to a chunk edge
      }
      const size_t chunks =
          count < kForkChunks * min_chunk
              ? 1
              : std::min<size_t>(16, (count + min_chunk - 1) / min_chunk);
      const size_t chunk_size = (count + chunks - 1) / chunks;
      std::vector<std::atomic<int>> hits(begin + count + 1);
      std::atomic<int> misplaced{0};
      pool.ParallelFor(
          begin, begin + count,
          [&](size_t lo, size_t hi) {
            const bool aligned = (lo - begin) % chunk_size == 0;
            const bool sized = hi - lo == chunk_size || hi == begin + count;
            if (!aligned || !sized || hi - lo > chunk_size) {
              misplaced.fetch_add(1);
            }
            for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
          },
          min_chunk);
      for (size_t i = 0; i < hits.size(); ++i) {
        const int want = i >= begin && i < begin + count ? 1 : 0;
        ASSERT_EQ(hits[i].load(), want)
            << "index " << i << " of " << count << ", min_chunk "
            << min_chunk;
      }
      EXPECT_EQ(misplaced.load(), 0)
          << count << " items, min_chunk " << min_chunk;
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Get();
}

// Just under kForkChunks chunks, on pools of any size: one chunk, the
// whole range, run on the caller, with no fork counted and so no worker
// woken.
TEST(ParallelForTest, CallUnderForkChunksRunsOnTheCaller) {
  const size_t grain = GrainFor(1000.0);  // 125 items of 1 us
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const uint64_t forks = CounterValue("util/parallel_for_forks");
    const uint64_t inlined = CounterValue("util/parallel_for_inline");
    std::vector<std::pair<size_t, size_t>> chunks;
    std::set<std::thread::id> ran_on;
    std::mutex mutex;
    pool.ParallelFor(
        3, 3 + kForkChunks * grain - 1,
        [&](size_t begin, size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.emplace_back(begin, end);
          ran_on.insert(std::this_thread::get_id());
        },
        grain);
    ASSERT_EQ(chunks.size(), 1u) << threads << " threads";
    EXPECT_EQ(chunks[0].first, 3u);
    EXPECT_EQ(chunks[0].second, 3 + kForkChunks * grain - 1);
    EXPECT_EQ(ran_on, std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_EQ(CounterValue("util/parallel_for_forks"), forks);
    EXPECT_EQ(CounterValue("util/parallel_for_inline"), inlined + 1);
  }
}

// kForkChunks chunks fork on pools of any size: kForkChunks chunks of
// `grain` items, the first on the caller.
TEST(ParallelForTest, CallFillingForkChunksForks) {
  const size_t grain = GrainFor(1000.0);
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const uint64_t forks = CounterValue("util/parallel_for_forks");
    std::vector<std::pair<size_t, size_t>> chunks;
    std::thread::id chunk_zero;
    std::mutex mutex;
    pool.ParallelFor(
        0, kForkChunks * grain,
        [&](size_t begin, size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.emplace_back(begin, end);
          if (begin == 0) chunk_zero = std::this_thread::get_id();
        },
        grain);
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), kForkChunks) << threads << " threads";
    for (size_t c = 0; c < kForkChunks; ++c) {
      EXPECT_EQ(chunks[c], std::make_pair(c * grain, (c + 1) * grain));
    }
    EXPECT_EQ(chunk_zero, std::this_thread::get_id());
    EXPECT_EQ(CounterValue("util/parallel_for_forks"), forks + 1);
  }
}

// A call too small to fork runs its body unmarked, so a large call nested
// in it (one user's scores over every item, say) still forks.
TEST(ParallelForTest, CallNestedInASmallCallMayFork) {
  ThreadPool pool(4);
  const size_t grain = GrainFor(1000.0);
  const uint64_t forks = CounterValue("util/parallel_for_forks");
  std::atomic<size_t> items{0};
  pool.ParallelFor(
      0, 1,
      [&](size_t, size_t) {
        pool.ParallelFor(
            0, kForkChunks * grain,
            [&](size_t begin, size_t end) { items.fetch_add(end - begin); },
            grain);
      },
      grain);
  EXPECT_EQ(items.load(), kForkChunks * grain);
  EXPECT_EQ(CounterValue("util/parallel_for_forks"), forks + 1);
}

TEST(GrainForTest, ChunksCarryAboutChunkNanos) {
  // grain * ns_per_item lands on kChunkNanos when it divides evenly, and
  // just reaches it otherwise.
  EXPECT_EQ(GrainFor(1.0), static_cast<size_t>(kChunkNanos));
  EXPECT_EQ(GrainFor(0.5), static_cast<size_t>(2 * kChunkNanos));
  EXPECT_EQ(GrainFor(kChunkNanos), 1u);
  const double cost = 0.3;
  const size_t grain = GrainFor(cost);
  EXPECT_GE(static_cast<double>(grain) * cost, kChunkNanos);
  EXPECT_LT(static_cast<double>(grain - 1) * cost, kChunkNanos);
}

TEST(GrainForTest, MonotonicNonIncreasingInCost) {
  size_t prev = GrainFor(1e-3);
  for (double cost = 2e-3; cost <= 1e6; cost *= 2) {
    const size_t g = GrainFor(cost);
    EXPECT_LE(g, prev) << "ns_per_item=" << cost;
    prev = g;
  }
}

TEST(GrainForTest, NeverZeroEvenForHugeCost) {
  EXPECT_EQ(GrainFor(2 * kChunkNanos), 1u);
  EXPECT_EQ(GrainFor(1e30), 1u);
  EXPECT_EQ(GrainFor(std::numeric_limits<double>::infinity()), 1u);
}

// No cost, or one too small to count, gives a grain no range fills, so
// such a call always runs inline.
TEST(GrainForTest, NoCostNeverForks) {
  constexpr size_t kNever = std::numeric_limits<size_t>::max();
  EXPECT_EQ(GrainFor(0.0), kNever);
  EXPECT_EQ(GrainFor(-1.0), kNever);
  EXPECT_EQ(GrainFor(std::numeric_limits<double>::quiet_NaN()), kNever);
  EXPECT_EQ(GrainFor(1e-300), kNever);
  ThreadPool pool(4);
  const uint64_t forks = CounterValue("util/parallel_for_forks");
  size_t calls = 0;
  pool.ParallelFor(0, 1u << 20, [&](size_t, size_t) { ++calls; },
                   GrainFor(0.0));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(CounterValue("util/parallel_for_forks"), forks);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

}  // namespace
}  // namespace hosr::util
