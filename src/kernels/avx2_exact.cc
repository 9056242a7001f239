// AVX2 kernels that must return the scalar table's bits. This translation
// unit is built with -mavx2 but without -mfma and with -ffp-contract=off
// (see CMakeLists.txt): in avx2.cc, GCC contracts
// _mm256_add_ps(_mm256_mul_ps(a, b), c) into one vfmadd, which rounds once
// where the scalar loop rounds twice. Every operation here is a correctly
// rounded IEEE one, applied in the scalar loop's order, so each lane
// computes exactly what the scalar code computes for its element.
#include <cmath>
#include <immintrin.h>

#include "kernels/kernels.h"

namespace hosr::kernels {

void RmsPropAvx2(size_t n, float lr, float weight_decay, float decay,
                 float epsilon, float* value, float* grad, float* ms) {
  const float keep = 1.0f - decay;
  const __m256 v_lr = _mm256_set1_ps(lr);
  const __m256 v_wd = _mm256_set1_ps(weight_decay);
  const __m256 v_decay = _mm256_set1_ps(decay);
  const __m256 v_keep = _mm256_set1_ps(keep);
  const __m256 v_eps = _mm256_set1_ps(epsilon);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 w = _mm256_loadu_ps(value + i);
    const __m256 g =
        _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(v_wd, w));
    const __m256 m =
        _mm256_add_ps(_mm256_mul_ps(v_decay, _mm256_loadu_ps(ms + i)),
                      _mm256_mul_ps(_mm256_mul_ps(v_keep, g), g));
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(v_lr, g), _mm256_add_ps(_mm256_sqrt_ps(m), v_eps));
    _mm256_storeu_ps(ms + i, m);
    _mm256_storeu_ps(value + i, _mm256_sub_ps(w, step));
    _mm256_storeu_ps(grad + i, zero);
  }
  for (; i < n; ++i) {
    const float g = grad[i] + weight_decay * value[i];
    ms[i] = decay * ms[i] + keep * g * g;
    value[i] -= lr * g / (std::sqrt(ms[i]) + epsilon);
    grad[i] = 0.0f;
  }
}

namespace {

// out[i] = term, or out[i] += term with `accumulate`: eight lanes at a
// time through `vec(i)`, the last n mod 8 elements through `one(i)`, both
// computing the scalar loop's term.
template <typename Vec, typename One>
void ContributeAvx2(size_t n, bool accumulate, float* out, Vec vec, One one) {
  size_t i = 0;
  if (accumulate) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i,
                       _mm256_add_ps(_mm256_loadu_ps(out + i), vec(i)));
    }
    for (; i < n; ++i) out[i] += one(i);
  } else {
    for (; i + 8 <= n; i += 8) _mm256_storeu_ps(out + i, vec(i));
    for (; i < n; ++i) out[i] = one(i);
  }
}

// All-ones lanes where x > 0 (false for NaN).
inline __m256 Positive(const float* x) {
  return _mm256_cmp_ps(_mm256_loadu_ps(x), _mm256_setzero_ps(), _CMP_GT_OQ);
}

}  // namespace

void ReluAvx2(size_t n, const float* x, float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_and_ps(_mm256_loadu_ps(x + i),
                                          Positive(x + i)));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluGradAvx2(size_t n, const float* x, const float* g, bool accumulate,
                  float* out) {
  size_t i = 0;
  if (accumulate) {
    for (; i + 8 <= n; i += 8) {
      const __m256 old = _mm256_loadu_ps(out + i);
      const __m256 sum = _mm256_add_ps(old, _mm256_loadu_ps(g + i));
      _mm256_storeu_ps(out + i, _mm256_blendv_ps(old, sum, Positive(x + i)));
    }
    for (; i < n; ++i) {
      if (x[i] > 0.0f) out[i] += g[i];
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_and_ps(_mm256_loadu_ps(g + i),
                                              Positive(x + i)));
    }
    for (; i < n; ++i) out[i] = x[i] > 0.0f ? g[i] : 0.0f;
  }
}

void TanhGradAvx2(size_t n, const float* y, const float* g, bool accumulate,
                  float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  ContributeAvx2(
      n, accumulate, out,
      [&](size_t i) {
        const __m256 yi = _mm256_loadu_ps(y + i);
        return _mm256_mul_ps(_mm256_loadu_ps(g + i),
                             _mm256_sub_ps(one, _mm256_mul_ps(yi, yi)));
      },
      [&](size_t i) { return g[i] * (1.0f - y[i] * y[i]); });
}

void LogSigmoidGradAvx2(size_t n, const float* x, const float* g,
                        bool accumulate, float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  ContributeAvx2(
      n, accumulate, out,
      [&](size_t i) {
        alignas(32) float e[8];
        for (size_t lane = 0; lane < 8; ++lane) e[lane] = std::exp(x[i + lane]);
        return _mm256_div_ps(_mm256_loadu_ps(g + i),
                             _mm256_add_ps(one, _mm256_load_ps(e)));
      },
      [&](size_t i) { return g[i] / (1.0f + std::exp(x[i])); });
}

void MulAvx2(size_t n, const float* a, const float* b, bool accumulate,
             float* out) {
  ContributeAvx2(
      n, accumulate, out,
      [&](size_t i) {
        return _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
      },
      [&](size_t i) { return a[i] * b[i]; });
}

}  // namespace hosr::kernels
