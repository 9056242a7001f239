#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace hosr::tensor {

namespace {

void CheckSameShape(const Matrix& a, const Matrix& b) {
  HOSR_CHECK(a.SameShape(b)) << a.rows() << "x" << a.cols() << " vs "
                             << b.rows() << "x" << b.cols();
}

// out[i] = fn(a[i]) into fresh storage, threaded like the other
// element-wise kernels. A template so `fn` inlines into the loop.
template <typename Fn>
Matrix Map(const Matrix& a, Fn fn) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  // One captured reference keeps the body inside std::function's local
  // storage, so ParallelFor allocates only its chunk tasks.
  const struct {
    const float* src;
    float* dst;
    Fn fn;
  } map{a.data(), out.data(), fn};
  util::ParallelFor(
      0, a.size(),
      [&map](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) map.dst[i] = map.fn(map.src[i]);
      },
      util::GrainFor(1));
  return out;
}

}  // namespace

void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, float beta, Matrix* out) {
  const size_t m = transpose_a ? a.cols() : a.rows();
  const size_t k = transpose_a ? a.rows() : a.cols();
  const size_t k2 = transpose_b ? b.cols() : b.rows();
  const size_t n = transpose_b ? b.rows() : b.cols();
  HOSR_CHECK(k == k2) << "inner dims " << k << " vs " << k2;
  HOSR_CHECK(out->rows() == m && out->cols() == n)
      << "out " << out->rows() << "x" << out->cols() << " want " << m << "x"
      << n;
  HOSR_CHECK(out != &a && out != &b) << "Gemm does not support aliasing";

  HOSR_COUNTER("kernels/gemm_flops").Increment(2 * m * n * k);
  if (m == 0 || n == 0) return;
  const kernels::KernelTable& kern = kernels::Active();

  // NT: every element is one dot over two contiguous rows, the order
  // ModelSnapshot::Score and score_block replay, so served scores stay
  // bit-equal to ScoreAllItems.
  if (!transpose_a && transpose_b) {
    util::ParallelFor(
        0, m,
        [&](size_t row_begin, size_t row_end) {
          for (size_t i = row_begin; i < row_end; ++i) {
            float* out_row = out->row(i);
            if (beta == 0.0f) {
              std::fill(out_row, out_row + n, 0.0f);
            } else if (beta != 1.0f) {
              kern.scale(n, beta, out_row);
            }
            for (size_t j = 0; j < n; ++j) {
              out_row[j] += alpha * kern.dot(k, a.row(i), b.row(j));
            }
          }
        },
        util::GrainFor(n * k));
    return;
  }

  // NN, TN and TT: 6x16 register-blocked tiles of C, in parallel over
  // tiles. A is read in place through its strides and B in place, except
  // for TT (which no library path runs), where B^T is packed once. There
  // is no k-split: each element is one gemm_tile chain owned by one
  // thread, so the result is bit-identical for any pool size.
  Matrix packed_b;
  if (transpose_b) packed_b = Transpose(b);
  const Matrix& b_rows = transpose_b ? packed_b : b;
  const size_t a_row_stride = transpose_a ? 1 : a.cols();
  const size_t a_k_stride = transpose_a ? a.cols() : 1;
  const size_t row_tiles =
      (m + kernels::kGemmTileRows - 1) / kernels::kGemmTileRows;
  const size_t col_tiles =
      (n + kernels::kGemmTileCols - 1) / kernels::kGemmTileCols;
  util::ParallelFor(
      0, row_tiles * col_tiles,
      [&](size_t tile_begin, size_t tile_end) {
        for (size_t t = tile_begin; t < tile_end; ++t) {
          const size_t i0 = (t / col_tiles) * kernels::kGemmTileRows;
          const size_t j0 = (t % col_tiles) * kernels::kGemmTileCols;
          kern.gemm_tile(std::min(kernels::kGemmTileRows, m - i0),
                         std::min(kernels::kGemmTileCols, n - j0), k, alpha,
                         a.data() + i0 * a_row_stride, a_row_stride,
                         a_k_stride, b_rows.data() + j0, n, beta,
                         out->data() + i0 * n + j0, n);
        }
      },
      // Each tile does rows x cols x k useful multiply-adds; a narrow output
      // (n < 16) counts only its real columns.
      util::GrainFor(kernels::kGemmTileRows *
                     std::min(kernels::kGemmTileCols, n) * k));
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out = Matrix::Uninitialized(a.rows(), b.cols());
  Gemm(a, false, b, false, 1.0f, 0.0f, &out);
  return out;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix out = Matrix::Uninitialized(a.rows(), b.rows());
  Gemm(a, false, b, true, 1.0f, 0.0f, &out);
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  kernels::Active().axpy(out.size(), 1.0f, b.data(), out.data());
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  kernels::Active().axpy(out.size(), -1.0f, b.data(), out.data());
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  Matrix out = a;
  const float* bp = b.data();
  float* op = out.data();
  for (size_t i = 0; i < out.size(); ++i) op[i] *= bp[i];
  return out;
}

Matrix Scale(const Matrix& a, float s) {
  Matrix out = a;
  kernels::Active().scale(out.size(), s, out.data());
  return out;
}

void Axpy(float alpha, const Matrix& b, Matrix* a) {
  CheckSameShape(*a, b);
  HOSR_COUNTER("kernels/axpy_flops").Increment(2 * a->size());
  kernels::Active().axpy(a->size(), alpha, b.data(), a->data());
}

Matrix Tanh(const Matrix& a) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  // Two pointer captures fit std::function's local storage (see Map).
  util::ParallelFor(
      0, out.size(),
      [src = a.data(), dst = out.data()](size_t begin, size_t end) {
        kernels::Active().tanh(end - begin, src + begin, dst + begin);
      },
      util::GrainFor(1));
  return out;
}

Matrix Relu(const Matrix& a) {
  return Map(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Matrix RowDot(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  HOSR_COUNTER("kernels/dot_flops").Increment(2 * a.size());
  const kernels::KernelTable& kern = kernels::Active();
  Matrix out = Matrix::Uninitialized(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    out(r, 0) = kern.dot(a.cols(), a.row(r), b.row(r));
  }
  return out;
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    float acc = 0.0f;
    for (size_t c = 0; c < a.cols(); ++c) acc += ar[c];
    out(r, 0) = acc;
  }
  return out;
}

Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  float* op = out.data();
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) op[c] += ar[c];
  }
  return out;
}

Matrix RowSoftmax(const Matrix& a) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    float* orow = out.row(r);
    float max_val = ar[0];
    for (size_t c = 1; c < a.cols(); ++c) max_val = std::max(max_val, ar[c]);
    float denom = 0.0f;
    for (size_t c = 0; c < a.cols(); ++c) {
      orow[c] = std::exp(ar[c] - max_val);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    for (size_t c = 0; c < a.cols(); ++c) orow[c] *= inv;
  }
  return out;
}

Matrix BroadcastColMul(const Matrix& a, const Matrix& scale) {
  HOSR_CHECK(scale.rows() == a.rows() && scale.cols() == 1)
      << "scale must be (" << a.rows() << " x 1), got " << scale.rows() << "x"
      << scale.cols();
  Matrix out = a;
  const kernels::KernelTable& kern = kernels::Active();
  for (size_t r = 0; r < a.rows(); ++r) {
    kern.scale(a.cols(), scale(r, 0), out.row(r));
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& indices) {
  Matrix out = Matrix::Uninitialized(indices.size(), a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    HOSR_CHECK(indices[i] < a.rows()) << indices[i] << " >= " << a.rows();
    std::copy(a.row(indices[i]), a.row(indices[i]) + a.cols(), out.row(i));
  }
  return out;
}

void ScatterAddRows(const Matrix& a, const std::vector<uint32_t>& indices,
                    Matrix* out) {
  HOSR_CHECK(indices.size() == a.rows());
  HOSR_CHECK(out->cols() == a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    HOSR_CHECK(indices[i] < out->rows());
    const float* src = a.row(i);
    float* dst = out->row(indices[i]);
    for (size_t c = 0; c < a.cols(); ++c) dst[c] += src[c];
  }
}

Matrix Transpose(const Matrix& a) {
  Matrix out = Matrix::Uninitialized(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* ar = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) out(c, r) = ar[c];
  }
  return out;
}

double SquaredNorm(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) acc += static_cast<double>(p[i]) * p[i];
  return acc;
}

double Sum(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) acc += p[i];
  return acc;
}

double Mean(const Matrix& a) {
  HOSR_CHECK(a.size() > 0);
  return Sum(a) / static_cast<double>(a.size());
}

double MaxAbs(const Matrix& a) {
  double best = 0.0;
  const float* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, static_cast<double>(std::fabs(p[i])));
  }
  return best;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b);
  double best = 0.0;
  const float* ap = a.data();
  const float* bp = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, static_cast<double>(std::fabs(ap[i] - bp[i])));
  }
  return best;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (!a.SameShape(b)) return false;
  return MaxAbsDiff(a, b) <= tol;
}

}  // namespace hosr::tensor
