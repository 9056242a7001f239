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
  // ModelSnapshot::Score and the serving engine's rescoring replay, so
  // served scores stay bit-equal to ScoreAllItems.
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
        util::GrainFor(kern.dot_mac_ns * static_cast<double>(n * k)));
    return;
  }

  // NN, TN and TT: register-blocked tiles of C at the table's tile size,
  // in parallel over tiles. A is read in place through its strides and B
  // in place, except for TT (which no library path runs), where B^T is
  // packed once. There is no k-split: each element is one gemm_tile chain
  // owned by one thread, so the result is bit-identical for any pool size.
  Matrix packed_b;
  if (transpose_b) packed_b = Transpose(b);
  const Matrix& b_rows = transpose_b ? packed_b : b;
  const size_t a_row_stride = transpose_a ? 1 : a.cols();
  const size_t a_k_stride = transpose_a ? a.cols() : 1;
  const size_t tile_rows = kern.gemm_tile_rows;
  const size_t tile_cols = kern.gemm_tile_cols;
  const size_t row_tiles = (m + tile_rows - 1) / tile_rows;
  const size_t col_tiles = (n + tile_cols - 1) / tile_cols;
  util::ParallelFor(
      0, row_tiles * col_tiles,
      [&](size_t tile_begin, size_t tile_end) {
        for (size_t t = tile_begin; t < tile_end; ++t) {
          const size_t i0 = (t / col_tiles) * tile_rows;
          const size_t j0 = (t % col_tiles) * tile_cols;
          kern.gemm_tile(std::min(tile_rows, m - i0),
                         std::min(tile_cols, n - j0), k, alpha,
                         a.data() + i0 * a_row_stride, a_row_stride,
                         a_k_stride, b_rows.data() + j0, n, beta,
                         out->data() + i0 * n + j0, n);
        }
      },
      // Each tile does rows x cols x k useful multiply-adds; a narrow output
      // (n below the tile width) counts only its real columns.
      util::GrainFor(kern.gemm_mac_ns *
                     static_cast<double>(tile_rows * std::min(tile_cols, n) *
                                         k)));
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
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  kernels::Active().mul(out.size(), a.data(), b.data(), /*accumulate=*/false,
                        out.data());
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
  const kernels::KernelTable& kern = kernels::Active();
  util::ParallelFor(
      0, out.size(),
      [&kern, src = a.data(), dst = out.data()](size_t begin, size_t end) {
        kern.tanh(end - begin, src + begin, dst + begin);
      },
      util::GrainFor(kern.tanh_ns));
  return out;
}

// Not split: at a fraction of a nanosecond per element it would take
// millions of elements to fill the chunks a fork needs.
Matrix Relu(const Matrix& a) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  kernels::Active().relu(out.size(), a.data(), out.data());
  return out;
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
  const kernels::KernelTable& kern = kernels::Active();
  for (size_t i = 0; i < indices.size(); ++i) {
    HOSR_CHECK(indices[i] < out->rows());
    kern.axpy(a.cols(), 1.0f, a.row(i), out->row(indices[i]));
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
