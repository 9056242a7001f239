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

}  // namespace hosr::kernels
