#ifndef HOSR_UTIL_TIMER_H_
#define HOSR_UTIL_TIMER_H_

#include <chrono>
#include <ctime>

namespace hosr::util {

// Wall-clock stopwatch; starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// CPU-seconds the whole process (every thread) has used so far.
inline double ProcessCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace hosr::util

#endif  // HOSR_UTIL_TIMER_H_
