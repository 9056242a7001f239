// AVX2+FMA+F16C microkernels. This translation unit is the only one
// compiled with -mavx2 -mfma -mf16c (see CMakeLists.txt) so the rest of the
// build stays baseline-portable; nothing here is reachable unless
// dispatch.cc probed CPUID and selected this table at process start.
//
// Reduction orders are fixed per kernel (8-lane partial sums combined in a
// fixed tree, scalar remainder folded in last), so results are
// bit-reproducible run-to-run within this dispatch level — they differ from
// the scalar table only by float reassociation (~1e-7 relative; the
// equivalence tests in tests/kernels_test.cc bound it at 1e-5).
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <immintrin.h>
#include <limits>

#include "kernels/kernels.h"

namespace hosr::kernels {

// Defined in avx2_exact.cc, which is built without contraction.
void RmsPropAvx2(size_t n, float lr, float weight_decay, float decay,
                 float epsilon, float* value, float* grad, float* ms);

namespace {

// Horizontal sum of an 8-lane register with a fixed combination tree:
// (l0+l4)+(l2+l6) + (l1+l5)+(l3+l7).
inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);
  __m128 sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
  __m128 sum1 = _mm_add_ss(sum2, _mm_movehdup_ps(sum2));
  return _mm_cvtss_f32(sum1);
}

inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 max4 = _mm_max_ps(lo, hi);
  __m128 max2 = _mm_max_ps(max4, _mm_movehl_ps(max4, max4));
  __m128 max1 = _mm_max_ss(max2, _mm_movehdup_ps(max2));
  return _mm_cvtss_f32(max1);
}

void AxpyAvx2(size_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    _mm256_storeu_ps(
        y + i + 8, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8)));
  }
  if (i + 8 <= n) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
    i += 8;
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Axpy2Avx2(size_t n, float a0, const float* x0, float a1, const float* x1,
               float* y) {
  const __m256 va0 = _mm256_set1_ps(a0);
  const __m256 va1 = _mm256_set1_ps(a1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_fmadd_ps(va0, _mm256_loadu_ps(x0 + i),
                                 _mm256_loadu_ps(y + i));
    acc = _mm256_fmadd_ps(va1, _mm256_loadu_ps(x1 + i), acc);
    _mm256_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i) y[i] += a0 * x0[i] + a1 * x1[i];
}

// Row `cols[e]` of dense, or row remap[cols[e]]; null for a skipped entry.
inline const float* SpmmEntryRow(size_t e, const uint32_t* cols,
                                 const int32_t* remap, const float* dense,
                                 size_t d) {
  const int64_t row =
      remap == nullptr ? static_cast<int64_t>(cols[e]) : remap[cols[e]];
  return row < 0 ? nullptr : dense + static_cast<size_t>(row) * d;
}

// acc[v] += a * x[8v .. 8v+7] for each of the kVecs vectors: one FMA per
// term, as in axpy2's and axpy's vector body.
template <size_t kVecs>
inline void FmaRow(__m256 (&acc)[kVecs], const float* a, const float* x) {
  const __m256 va = _mm256_broadcast_ss(a);
#pragma GCC unroll 8
  for (size_t v = 0; v < kVecs; ++v) {
    acc[v] = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + 8 * v), acc[v]);
  }
}

// kVecs * 8 columns of one spmm_row, held in kVecs ymm accumulators across
// all entries. `dense` and `out` point at the block's first column. With a
// remap, each run of up to kRun entries is first compacted to its kept
// ones without a branch, so a skipped entry costs no misprediction.
template <size_t kVecs>
void SpmmRowBlockAvx2(size_t nnz, const float* values, const uint32_t* cols,
                      const int32_t* remap, const float* dense, size_t d,
                      bool accumulate, float* out) {
  __m256 acc[kVecs];
#pragma GCC unroll 8
  for (size_t v = 0; v < kVecs; ++v) {
    acc[v] = accumulate ? _mm256_loadu_ps(out + 8 * v) : _mm256_setzero_ps();
  }
  if (remap == nullptr) {
    for (size_t e = 0; e < nnz; ++e) {
      FmaRow(acc, values + e, dense + static_cast<size_t>(cols[e]) * d);
    }
  } else {
    constexpr size_t kRun = 32;
    const float* kept_rows[kRun];
    float kept_values[kRun];
    for (size_t run = 0; run < nnz; run += kRun) {
      const size_t run_end = nnz - run < kRun ? nnz : run + kRun;
      size_t kept = 0;
      for (size_t e = run; e < run_end; ++e) {
        const int32_t row = remap[cols[e]];
        kept_rows[kept] = dense + static_cast<size_t>(row < 0 ? 0 : row) * d;
        kept_values[kept] = values[e];
        kept += row < 0 ? 0 : 1;
      }
      for (size_t k = 0; k < kept; ++k) {
        FmaRow(acc, kept_values + k, kept_rows[k]);
      }
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < kVecs; ++v) _mm256_storeu_ps(out + 8 * v, acc[v]);
}

using SpmmRowBlockFn = void (*)(size_t, const float*, const uint32_t*,
                                const int32_t*, const float*, size_t, bool,
                                float*);

// The block after the last whole 64 columns: 1 to 7 vectors.
constexpr SpmmRowBlockFn kSpmmRowBlockByVecs[7] = {
    SpmmRowBlockAvx2<1>, SpmmRowBlockAvx2<2>, SpmmRowBlockAvx2<3>,
    SpmmRowBlockAvx2<4>, SpmmRowBlockAvx2<5>, SpmmRowBlockAvx2<6>,
    SpmmRowBlockAvx2<7>,
};

// The last `n` < 8 columns, folded as axpy2's and axpy's scalar tails fold
// them (the same expressions, so GCC contracts them the same way), with a
// skipped entry of a pair reading 0.
void SpmmRowTailAvx2(size_t nnz, const float* values, const uint32_t* cols,
                     const int32_t* remap, const float* dense, size_t d,
                     size_t n, bool accumulate, float* out) {
  float acc[8];
  for (size_t i = 0; i < n; ++i) acc[i] = accumulate ? out[i] : 0.0f;
  size_t e = 0;
  for (; e + 2 <= nnz; e += 2) {
    const float* x0 = SpmmEntryRow(e, cols, remap, dense, d);
    const float* x1 = SpmmEntryRow(e + 1, cols, remap, dense, d);
    if (x0 == nullptr && x1 == nullptr) continue;
    const float a0 = values[e];
    const float a1 = values[e + 1];
    for (size_t i = 0; i < n; ++i) {
      const float v0 = x0 != nullptr ? x0[i] : 0.0f;
      const float v1 = x1 != nullptr ? x1[i] : 0.0f;
      acc[i] += a0 * v0 + a1 * v1;
    }
  }
  if (e < nnz) {
    if (const float* x = SpmmEntryRow(e, cols, remap, dense, d)) {
      const float a = values[e];
      for (size_t i = 0; i < n; ++i) acc[i] += a * x[i];
    }
  }
  for (size_t i = 0; i < n; ++i) out[i] = acc[i];
}

// The output row stays in registers while every entry streams past: blocks
// of 64 columns (8 accumulators), then one block of the remaining whole
// vectors, then the scalar tail.
void SpmmRowAvx2(size_t nnz, const float* values, const uint32_t* cols,
                 const int32_t* remap, const float* dense, size_t d,
                 bool accumulate, float* out) {
  size_t c = 0;
  for (; c + 64 <= d; c += 64) {
    SpmmRowBlockAvx2<8>(nnz, values, cols, remap, dense + c, d, accumulate,
                        out + c);
  }
  const size_t vecs = (d - c) / 8;
  if (vecs > 0) {
    kSpmmRowBlockByVecs[vecs - 1](nnz, values, cols, remap, dense + c, d,
                                  accumulate, out + c);
    c += 8 * vecs;
  }
  if (c < d) {
    SpmmRowTailAvx2(nnz, values, cols, remap, dense + c, d, d - c, accumulate,
                    out + c);
  }
}

float DotAvx2(size_t n, const float* a, const float* b) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    i += 8;
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return HorizontalSum(_mm256_add_ps(acc0, acc1)) + tail;
}

void ScaleAvx2(size_t n, float alpha, float* x) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float ReduceMaxAvx2(size_t n, const float* x) {
  size_t i = 0;
  float best = x[0];
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
    }
    best = HorizontalMax(vmax);
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

// Eight halves widened to floats (F16C; exact).
inline __m256 LoadHalf8(const uint16_t* p) {
  return _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// One block of score_half's table, its eight rows in the lanes: four
// accumulators take dimensions i mod 4 (the d mod 4 last ones go to the
// first) and combine as (a0 + a1) + (a2 + a3).
inline __m256 ScoreHalfBlockAvx2(size_t d, const float* u,
                                 const uint16_t* block) {
  constexpr size_t kRows = kHalfBlockRows;
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const uint16_t* h = block + i * kRows;
    a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(u + i), LoadHalf8(h), a0);
    a1 = _mm256_fmadd_ps(_mm256_broadcast_ss(u + i + 1), LoadHalf8(h + kRows),
                         a1);
    a2 = _mm256_fmadd_ps(_mm256_broadcast_ss(u + i + 2),
                         LoadHalf8(h + 2 * kRows), a2);
    a3 = _mm256_fmadd_ps(_mm256_broadcast_ss(u + i + 3),
                         LoadHalf8(h + 3 * kRows), a3);
  }
  for (; i < d; ++i) {
    a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(u + i),
                         LoadHalf8(block + i * kRows), a0);
  }
  return _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
}

void ScoreHalfAvx2(size_t blocks, size_t d, const float* u,
                   const uint16_t* half_blocks, const float* bias,
                   const float* radius, float scale, float bias_radius,
                   float* lower, float* upper) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias_radius = _mm256_set1_ps(bias_radius);
  const __m256 max = _mm256_set1_ps(FLT_MAX);
  const __m256 neg_max = _mm256_set1_ps(-FLT_MAX);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256 neg_inf = _mm256_sub_ps(_mm256_setzero_ps(), inf);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t j = b * kHalfBlockRows;
    __m256 s = ScoreHalfBlockAvx2(d, u, half_blocks + j * d);
    if (bias != nullptr) s = _mm256_add_ps(s, _mm256_loadu_ps(bias + j));
    const __m256 e =
        _mm256_fmadd_ps(vscale, _mm256_loadu_ps(radius + j), vbias_radius);
    const __m256 lo = _mm256_sub_ps(s, e);
    const __m256 hi = _mm256_add_ps(s, e);
    // Ordered compares: false for NaN, so a NaN bound counts as unbounded.
    const __m256 bounded = _mm256_and_ps(_mm256_cmp_ps(lo, neg_max, _CMP_GE_OQ),
                                         _mm256_cmp_ps(hi, max, _CMP_LE_OQ));
    _mm256_storeu_ps(lower + j, _mm256_blendv_ps(neg_inf, lo, bounded));
    _mm256_storeu_ps(upper + j, _mm256_blendv_ps(inf, hi, bounded));
  }
}

// Lane mask selecting the first `lanes` (0..8) floats of a ymm register.
inline __m256i LaneMask(size_t lanes) {
  static const int32_t kTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                     0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTable + 8 - lanes));
}

// A kRows x 16 tile: two ymm accumulators per row, one broadcast of A and
// two loads of B per k step. kFull tiles have all 16 columns; the others
// mask their B loads and C accesses to `cols`, which leaves each element's
// chain of fused multiply-adds unchanged.
template <size_t kRows, bool kFull>
void GemmTileAvx2Impl(size_t cols, size_t k, float alpha, const float* a,
                      size_t a_row_stride, size_t a_k_stride, const float* b,
                      size_t ldb, float beta, float* c, size_t ldc) {
  __m256i mask_lo = _mm256_setzero_si256();
  __m256i mask_hi = _mm256_setzero_si256();
  if (!kFull) {
    mask_lo = LaneMask(cols < 8 ? cols : 8);
    mask_hi = LaneMask(cols > 8 ? cols - 8 : 0);
  }
  __m256 acc[kRows][2];
#pragma GCC unroll 6
  for (size_t i = 0; i < kRows; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    const __m256 b_lo = kFull ? _mm256_loadu_ps(b_row)
                              : _mm256_maskload_ps(b_row, mask_lo);
    const __m256 b_hi = kFull ? _mm256_loadu_ps(b_row + 8)
                              : _mm256_maskload_ps(b_row + 8, mask_hi);
    const float* a_col = a + p * a_k_stride;
#pragma GCC unroll 6
    for (size_t i = 0; i < kRows; ++i) {
      const __m256 a_ip = _mm256_broadcast_ss(a_col + i * a_row_stride);
      acc[i][0] = _mm256_fmadd_ps(a_ip, b_lo, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(a_ip, b_hi, acc[i][1]);
    }
  }
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 vbeta = _mm256_set1_ps(beta);
#pragma GCC unroll 6
  for (size_t i = 0; i < kRows; ++i) {
    float* c_row = c + i * ldc;
    __m256 lo = _mm256_mul_ps(valpha, acc[i][0]);
    __m256 hi = _mm256_mul_ps(valpha, acc[i][1]);
    if (kFull) {
      if (beta != 0.0f) {
        lo = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(c_row), lo);
        hi = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(c_row + 8), hi);
      }
      _mm256_storeu_ps(c_row, lo);
      _mm256_storeu_ps(c_row + 8, hi);
    } else {
      if (beta != 0.0f) {
        lo = _mm256_fmadd_ps(vbeta, _mm256_maskload_ps(c_row, mask_lo), lo);
        hi = _mm256_fmadd_ps(vbeta, _mm256_maskload_ps(c_row + 8, mask_hi),
                             hi);
      }
      _mm256_maskstore_ps(c_row, mask_lo, lo);
      _mm256_maskstore_ps(c_row + 8, mask_hi, hi);
    }
  }
}

using GemmTileFn = void (*)(size_t, size_t, float, const float*, size_t,
                           size_t, const float*, size_t, float, float*,
                           size_t);

// The 8-lane tile's size.
constexpr size_t kGemmTileRows = 6;
constexpr size_t kGemmTileCols = 16;

template <bool kFull>
constexpr GemmTileFn kGemmTileByRows[kGemmTileRows] = {
    GemmTileAvx2Impl<1, kFull>, GemmTileAvx2Impl<2, kFull>,
    GemmTileAvx2Impl<3, kFull>, GemmTileAvx2Impl<4, kFull>,
    GemmTileAvx2Impl<5, kFull>, GemmTileAvx2Impl<6, kFull>,
};

void GemmTileAvx2(size_t rows, size_t cols, size_t k, float alpha,
                  const float* a, size_t a_row_stride, size_t a_k_stride,
                  const float* b, size_t ldb, float beta, float* c,
                  size_t ldc) {
  const GemmTileFn tile = cols == kGemmTileCols
                              ? kGemmTileByRows<true>[rows - 1]
                              : kGemmTileByRows<false>[rows - 1];
  tile(cols, k, alpha, a, a_row_stride, a_k_stride, b, ldb, beta, c, ldc);
}

// tanh(|x|) = expm1(2|x|) / (expm1(2|x|) + 2), with the sign copied back,
// so the result is odd bit for bit. expm1(y) for y = 2|x| clamped to 18:
// Cody-Waite reduction y = n*ln2 + r with |r| <= ln2/2, a degree-7 Taylor
// polynomial q = expm1(r), then expm1(y) = (2^n - 1) + 2^n * q, whose first
// term is exact, so small arguments keep full relative accuracy. Lanes with
// |x| >= 9 (where tanh rounds to 1 within 6e-8) become exactly 1, and NaN
// lanes get x back through an explicit unordered compare: a min/max clamp
// alone returns its non-NaN operand and would turn NaN into a number.
inline __m256 TanhVec(__m256 x) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 ax = _mm256_andnot_ps(sign_bit, x);
  const __m256 y = _mm256_min_ps(_mm256_add_ps(ax, ax), _mm256_set1_ps(18.0f));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(y, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), y);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 q = _mm256_set1_ps(1.0f / 5040.0f);
  q = _mm256_fmadd_ps(q, r, _mm256_set1_ps(1.0f / 720.0f));
  q = _mm256_fmadd_ps(q, r, _mm256_set1_ps(1.0f / 120.0f));
  q = _mm256_fmadd_ps(q, r, _mm256_set1_ps(1.0f / 24.0f));
  q = _mm256_fmadd_ps(q, r, _mm256_set1_ps(1.0f / 6.0f));
  q = _mm256_fmadd_ps(q, r, _mm256_set1_ps(0.5f));
  q = _mm256_fmadd_ps(q, r, one);
  q = _mm256_mul_ps(q, r);
  const __m256 pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23));
  const __m256 em1 = _mm256_fmadd_ps(pow2n, q, _mm256_sub_ps(pow2n, one));
  __m256 t = _mm256_div_ps(em1, _mm256_add_ps(em1, _mm256_set1_ps(2.0f)));
  t = _mm256_blendv_ps(t, one,
                       _mm256_cmp_ps(ax, _mm256_set1_ps(9.0f), _CMP_GE_OQ));
  t = _mm256_or_ps(t, _mm256_and_ps(sign_bit, x));
  return _mm256_blendv_ps(t, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

void TanhAvx2(size_t n, const float* x, float* y) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, TanhVec(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    // The tail runs through the same vector code, so a value's tanh does
    // not depend on where a caller's chunk boundaries fall.
    float lanes[8] = {};
    std::memcpy(lanes, x + i, (n - i) * sizeof(float));
    _mm256_storeu_ps(lanes, TanhVec(_mm256_loadu_ps(lanes)));
    std::memcpy(y + i, lanes, (n - i) * sizeof(float));
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",        kLevelAvx2,    AxpyAvx2,
    Axpy2Avx2,     SpmmRowAvx2,   DotAvx2,
    ScaleAvx2,     ReduceMaxAvx2, ScoreHalfAvx2,
    kGemmTileRows, kGemmTileCols, GemmTileAvx2,
    TanhAvx2,      RmsPropAvx2,
};

}  // namespace

// Referenced by dispatch.cc behind the HOSR_KERNELS_HAVE_AVX2 define.
const KernelTable& Avx2Table() { return kAvx2Table; }

}  // namespace hosr::kernels
