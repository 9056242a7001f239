#ifndef HOSR_UTIL_RANDOM_H_
#define HOSR_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hosr::util {

// Complete serializable state of an Rng: the xoshiro words plus the cached
// Box-Muller spare, so a restored stream continues bit-identically.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_spare_gaussian = false;
  float spare_gaussian = 0.0f;
};

inline bool operator==(const RngState& a, const RngState& b) {
  return a.s[0] == b.s[0] && a.s[1] == b.s[1] && a.s[2] == b.s[2] &&
         a.s[3] == b.s[3] && a.has_spare_gaussian == b.has_spare_gaussian &&
         a.spare_gaussian == b.spare_gaussian;
}

// Deterministic, fast PRNG (xoshiro256**) with convenience distributions.
// Every stochastic component in the library takes one of these (or a seed)
// explicitly so experiments are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Movable and copyable: copying forks the stream deterministically.
  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Uniform over all 64-bit values.
  uint64_t NextUint64();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t UniformInt(uint64_t bound);

  // Uniform float in [0, 1).
  float UniformFloat();

  // Uniform double in [0, 1).
  double UniformDouble();

  // Standard normal via Box-Muller.
  float Gaussian();
  // Normal with the given mean and standard deviation.
  float Gaussian(float mean, float stddev);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Forks an independent stream; deterministic function of this stream's
  // current state and `salt`.
  Rng Fork(uint64_t salt);

  // Captures / restores the full stream state (checkpoint support). A
  // restored Rng produces the exact sequence the captured one would have.
  RngState GetState() const;
  void SetState(const RngState& state);

 private:
  uint64_t state_[4];
  // Box-Muller produces pairs; cache the spare value.
  bool has_spare_gaussian_ = false;
  float spare_gaussian_ = 0.0f;
};

}  // namespace hosr::util

#endif  // HOSR_UTIL_RANDOM_H_
