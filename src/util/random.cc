#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace hosr::util {

namespace {

// SplitMix64: seeds the xoshiro state from a single 64-bit value.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

RngState Rng::GetState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.has_spare_gaussian = has_spare_gaussian_;
  state.spare_gaussian = spare_gaussian_;
  return state;
}

void Rng::SetState(const RngState& state) {
  HOSR_CHECK((state.s[0] | state.s[1] | state.s[2] | state.s[3]) != 0)
      << "all-zero xoshiro state is invalid";
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  has_spare_gaussian_ = state.has_spare_gaussian;
  spare_gaussian_ = state.spare_gaussian;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  HOSR_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

float Rng::UniformFloat() {
  return static_cast<float>(NextUint64() >> 40) * 0x1.0p-24f;
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

float Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  // Box-Muller; avoid log(0) by nudging u1 away from zero.
  double u1 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_gaussian_ = static_cast<float>(r * std::sin(theta));
  has_spare_gaussian_ = true;
  return static_cast<float>(r * std::cos(theta));
}

float Rng::Gaussian(float mean, float stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

Rng Rng::Fork(uint64_t salt) {
  return Rng(NextUint64() ^ (salt * 0x9e3779b97f4a7c15ULL));
}

}  // namespace hosr::util
