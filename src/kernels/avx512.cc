// The 16-lane gemm_tile: the only code built with -mavx512f (see
// CMakeLists.txt), reachable only after dispatch.cc found AVX-512F. The
// AVX2 table carries it in place of its 8-lane tile, whose bits it
// returns: every element is the same chain, one fused multiply-add per k
// from zero in ascending k, then alpha * acc, then fma(beta, c, alpha * acc)
// when beta != 0. Only the lane count and the tile size differ.
#include <immintrin.h>

#include <cstddef>

#include "kernels/kernels.h"

namespace hosr::kernels {

namespace {

// The tile: 6 rows of 4 zmm accumulators (64 columns). With the 4 B
// vectors and the broadcast A value it holds 29 of the 32 zmm registers.
constexpr size_t kRowsMax = 6;
constexpr size_t kVecsMax = 4;

// A kRows x (16 * kVecs) tile, the last vector masked to the tile's `cols`
// (a zmm load or store under a mask costs what an unmasked one does): one
// broadcast of A and kVecs loads of B per k step.
template <size_t kRows, size_t kVecs>
void GemmTileAvx512Impl(size_t cols, size_t k, float alpha, const float* a,
                        size_t a_row_stride, size_t a_k_stride, const float* b,
                        size_t ldb, float beta, float* c, size_t ldc) {
  __mmask16 mask[kVecs];
#pragma GCC unroll 4
  for (size_t v = 0; v < kVecs; ++v) {
    const size_t lanes = cols - 16 * v;
    mask[v] = lanes >= 16 ? static_cast<__mmask16>(0xffff)
                          : static_cast<__mmask16>((1u << lanes) - 1);
  }
  __m512 acc[kRows][kVecs];
#pragma GCC unroll 6
  for (size_t i = 0; i < kRows; ++i) {
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) acc[i][v] = _mm512_setzero_ps();
  }
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    __m512 b_vec[kVecs];
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      b_vec[v] = _mm512_maskz_loadu_ps(mask[v], b_row + 16 * v);
    }
    const float* a_col = a + p * a_k_stride;
#pragma GCC unroll 6
    for (size_t i = 0; i < kRows; ++i) {
      const __m512 a_ip = _mm512_set1_ps(a_col[i * a_row_stride]);
#pragma GCC unroll 4
      for (size_t v = 0; v < kVecs; ++v) {
        acc[i][v] = _mm512_fmadd_ps(a_ip, b_vec[v], acc[i][v]);
      }
    }
  }
  const __m512 valpha = _mm512_set1_ps(alpha);
  const __m512 vbeta = _mm512_set1_ps(beta);
#pragma GCC unroll 6
  for (size_t i = 0; i < kRows; ++i) {
    float* c_row = c + i * ldc;
#pragma GCC unroll 4
    for (size_t v = 0; v < kVecs; ++v) {
      __m512 out = _mm512_mul_ps(valpha, acc[i][v]);
      if (beta != 0.0f) {
        out = _mm512_fmadd_ps(
            vbeta, _mm512_maskz_loadu_ps(mask[v], c_row + 16 * v), out);
      }
      _mm512_mask_storeu_ps(c_row + 16 * v, mask[v], out);
    }
  }
}

using GemmTileFn = void (*)(size_t, size_t, float, const float*, size_t,
                           size_t, const float*, size_t, float, float*,
                           size_t);

template <size_t kVecs>
constexpr GemmTileFn kTileByRows[kRowsMax] = {
    GemmTileAvx512Impl<1, kVecs>, GemmTileAvx512Impl<2, kVecs>,
    GemmTileAvx512Impl<3, kVecs>, GemmTileAvx512Impl<4, kVecs>,
    GemmTileAvx512Impl<5, kVecs>, GemmTileAvx512Impl<6, kVecs>,
};

// [vectors the tile's columns span - 1][rows - 1]
constexpr const GemmTileFn* kTiles[kVecsMax] = {
    kTileByRows<1>, kTileByRows<2>, kTileByRows<3>, kTileByRows<4>};

void GemmTileAvx512(size_t rows, size_t cols, size_t k, float alpha,
                    const float* a, size_t a_row_stride, size_t a_k_stride,
                    const float* b, size_t ldb, float beta, float* c,
                    size_t ldc) {
  kTiles[(cols + 15) / 16 - 1][rows - 1](cols, k, alpha, a, a_row_stride,
                                         a_k_stride, b, ldb, beta, c, ldc);
}

}  // namespace

const KernelTable& Avx2Table();

// Referenced by dispatch.cc behind the HOSR_KERNELS_HAVE_AVX2 define: the
// AVX2 table with this tile.
const KernelTable& Avx2WideTileTable() {
  static const KernelTable table = [] {
    KernelTable wide = Avx2Table();
    wide.gemm_tile_rows = kRowsMax;
    wide.gemm_tile_cols = 16 * kVecsMax;
    wide.gemm_tile = GemmTileAvx512;
    return wide;
  }();
  return table;
}

}  // namespace hosr::kernels
