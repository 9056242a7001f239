// Portable scalar reference kernels. Every loop accumulates strictly
// left-to-right with a single accumulator, so results are bit-identical on
// any platform and any compiler that honors IEEE float semantics — this is
// the table HOSR_FORCE_SCALAR pins and the baseline the SIMD tables are
// tested against.
#include <cfloat>
#include <cmath>

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

float ScoreBlockScalar(size_t items, size_t d, const float* u,
                       const float* item_rows, const float* bias, float* out) {
  float best = -FLT_MAX;
  for (size_t j = 0; j < items; ++j) {
    float score = DotScalar(d, u, item_rows + j * d);
    if (bias != nullptr) score += bias[j];
    out[j] = score;
    if (score > best) best = score;
  }
  return best;
}

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
    "scalar",        kLevelScalar, AxpyScalar,      Axpy2Scalar,
    DotScalar,       ScaleScalar,  ReduceMaxScalar, ScoreBlockScalar,
    GemmTileScalar,  TanhScalar,   RmsPropScalar,
};

}  // namespace

const KernelTable& Scalar() { return kScalarTable; }

}  // namespace hosr::kernels
