// Portable scalar reference kernels. Every loop accumulates strictly
// left-to-right with a single accumulator, so results are bit-identical on
// any platform and any compiler that honors IEEE float semantics — this is
// the table HOSR_FORCE_SCALAR pins and the baseline the SIMD tables are
// tested against.
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "kernels/kernels.h"

namespace hosr::kernels {
namespace {

void AxpyScalar(size_t n, float alpha, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Axpy2Scalar(size_t n, float a0, const float* x0, float a1,
                 const float* x1, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += a0 * x0[i] + a1 * x1[i];
}

// The pair chain of axpy2/axpy with each skipped entry (null row) reading
// zeros: a pair with one skipped entry folds a * x + b * 0, and a pair with
// both skipped, or a skipped odd last entry, is dropped.
void SpmmRowScalar(size_t nnz, const float* values, const uint32_t* cols,
                   const int32_t* remap, const float* dense, size_t d,
                   bool accumulate, float* out) {
  const auto row_of = [&](size_t e) -> const float* {
    const int64_t row =
        remap == nullptr ? static_cast<int64_t>(cols[e]) : remap[cols[e]];
    return row < 0 ? nullptr : dense + static_cast<size_t>(row) * d;
  };
  if (!accumulate) std::fill(out, out + d, 0.0f);
  size_t e = 0;
  for (; e + 2 <= nnz; e += 2) {
    const float* x0 = row_of(e);
    const float* x1 = row_of(e + 1);
    const float a0 = values[e];
    const float a1 = values[e + 1];
    if (x0 != nullptr && x1 != nullptr) {
      Axpy2Scalar(d, a0, x0, a1, x1, out);
    } else if (x0 != nullptr) {
      for (size_t i = 0; i < d; ++i) out[i] += a0 * x0[i] + a1 * 0.0f;
    } else if (x1 != nullptr) {
      for (size_t i = 0; i < d; ++i) out[i] += a0 * 0.0f + a1 * x1[i];
    }
  }
  if (e < nnz) {
    if (const float* x = row_of(e)) AxpyScalar(d, values[e], x, out);
  }
}

float DotScalar(size_t n, const float* a, const float* b) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void ScaleScalar(size_t n, float alpha, float* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float ReduceMaxScalar(size_t n, const float* x) {
  float best = x[0];
  for (size_t i = 1; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

void ScoreHalfScalar(size_t blocks, size_t d, const float* u,
                     const uint16_t* half_blocks, const float* bias,
                     const float* radius, float scale, float bias_radius,
                     float* lower, float* upper) {
  constexpr size_t kRows = kHalfBlockRows;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // Every half's float value, built at first use (256 KiB): a lookup per
  // element instead of a conversion.
  static const std::vector<float> widen = [] {
    std::vector<float> table(1u << 16);
    for (uint32_t h = 0; h < table.size(); ++h) {
      table[h] = HalfToFloat(static_cast<uint16_t>(h));
    }
    return table;
  }();
  for (size_t b = 0; b < blocks; ++b) {
    const uint16_t* block = half_blocks + b * d * kRows;
    // Eight independent chains, each in ascending i like DotScalar.
    float acc[kRows] = {};
    for (size_t i = 0; i < d; ++i) {
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] += u[i] * widen[block[i * kRows + r]];
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      const size_t j = b * kRows + r;
      const float s = bias != nullptr ? acc[r] + bias[j] : acc[r];
      const float e = scale * radius[j] + bias_radius;
      const float lo = s - e;
      const float hi = s + e;
      const bool bounded = lo >= -FLT_MAX && hi <= FLT_MAX;
      lower[j] = bounded ? lo : -kInf;
      upper[j] = bounded ? hi : kInf;
    }
  }
}

constexpr size_t kGemmTileRows = 6;
constexpr size_t kGemmTileCols = 16;

void GemmTileScalar(size_t rows, size_t cols, size_t k, float alpha,
                    const float* a, size_t a_row_stride, size_t a_k_stride,
                    const float* b, size_t ldb, float beta, float* c,
                    size_t ldc) {
  float acc[kGemmTileRows][kGemmTileCols] = {};
  for (size_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    for (size_t i = 0; i < rows; ++i) {
      const float a_ip = a[i * a_row_stride + p * a_k_stride];
      for (size_t j = 0; j < cols; ++j) acc[i][j] += a_ip * b_row[j];
    }
  }
  for (size_t i = 0; i < rows; ++i) {
    float* c_row = c + i * ldc;
    for (size_t j = 0; j < cols; ++j) {
      c_row[j] = beta == 0.0f ? alpha * acc[i][j]
                              : alpha * acc[i][j] + beta * c_row[j];
    }
  }
}

void TanhScalar(size_t n, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void RmsPropScalar(size_t n, float lr, float weight_decay, float decay,
                   float epsilon, float* value, float* grad, float* ms) {
  for (size_t i = 0; i < n; ++i) {
    const float g = grad[i] + weight_decay * value[i];
    ms[i] = decay * ms[i] + (1.0f - decay) * g * g;
    value[i] -= lr * g / (std::sqrt(ms[i]) + epsilon);
    grad[i] = 0.0f;
  }
}

constexpr KernelTable kScalarTable = {
    "scalar",        kLevelScalar,    AxpyScalar,
    Axpy2Scalar,     SpmmRowScalar,   DotScalar,
    ScaleScalar,     ReduceMaxScalar, ScoreHalfScalar,
    kGemmTileRows,   kGemmTileCols,   GemmTileScalar,
    TanhScalar,      RmsPropScalar,
};

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

}  // namespace hosr::kernels
