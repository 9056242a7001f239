#ifndef HOSR_TENSOR_OPS_H_
#define HOSR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace hosr::tensor {

// Dense kernels over Matrix. Shape mismatches are programming errors and
// abort via HOSR_CHECK (callers validate user input at API boundaries).
// GEMM and the larger element-wise kernels are threaded via util::ParallelFor.

// out = alpha * op(a) * op(b) + beta * out, where op transposes when the
// corresponding flag is set. `out` must be pre-sized to the result shape
// (and is overwritten without being read when beta == 0, so it may be
// uninitialised). The result is bit-identical for any thread-pool size.
// With only transpose_b set, every element is
// out = beta * out + alpha * dot(a_i, b_j) through the dot kernel, the
// order ModelSnapshot::Score and the serving scan replay.
void Gemm(const Matrix& a, bool transpose_a, const Matrix& b, bool transpose_b,
          float alpha, float beta, Matrix* out);

// Convenience: returns a * b.
Matrix MatMul(const Matrix& a, const Matrix& b);

// Convenience: returns a * b^T through Gemm's NT path, as every
// dot-product model scores user rows against its item table.
Matrix MatMulNT(const Matrix& a, const Matrix& b);

// Element-wise operations; result shapes match inputs.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, float s);

// a += alpha * b (BLAS axpy over the whole buffer).
void Axpy(float alpha, const Matrix& b, Matrix* a);

Matrix Tanh(const Matrix& a);
Matrix Relu(const Matrix& a);

// Row-wise dot products of equally-shaped (n x d) matrices -> (n x 1).
Matrix RowDot(const Matrix& a, const Matrix& b);

// Sum over each row -> (n x 1); sum over each column -> (1 x d).
Matrix RowSum(const Matrix& a);
Matrix ColSum(const Matrix& a);

// Row-wise softmax of an (n x k) matrix (numerically stable).
Matrix RowSoftmax(const Matrix& a);

// Multiplies each row r of `a` (n x d) by scalar `scale(r, 0)` from (n x 1).
Matrix BroadcastColMul(const Matrix& a, const Matrix& scale);

// Gathers rows: out(i, :) = a(indices[i], :).
Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& indices);

// Scatter-add: out(indices[i], :) += a(i, :). `out` must be pre-sized.
void ScatterAddRows(const Matrix& a, const std::vector<uint32_t>& indices,
                    Matrix* out);

Matrix Transpose(const Matrix& a);

// Frobenius norm squared, sum, mean, max-abs over all elements.
double SquaredNorm(const Matrix& a);
double Sum(const Matrix& a);
double Mean(const Matrix& a);
double MaxAbs(const Matrix& a);

// Max-abs element difference; matrices must be equal shape.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

// True iff shapes match and all elements differ by at most `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol = 1e-5);

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_OPS_H_
