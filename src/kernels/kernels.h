#ifndef HOSR_KERNELS_KERNELS_H_
#define HOSR_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hosr::kernels {

// Runtime-dispatched dense microkernels backing every dense hot path in the
// library (tensor::Gemm/Axpy/RowDot/Tanh, graph::Spmm, the RMSprop step, the
// serving GEMV, the evaluator's top-K scan). The instruction set is probed
// once per process (CPUID) and every call site reads the same resolved
// table, so a process never mixes ISA levels: each kernel has a fixed
// reduction order within a level, which preserves the train-resume and
// snapshot bit-identity contracts (docs/ROBUSTNESS.md) for any fixed
// dispatch mode.
//
// Setting the environment variable HOSR_FORCE_SCALAR (to anything but "0")
// before the first kernel call pins dispatch to the portable scalar table —
// the knob the forced-scalar ctest matrix and cross-ISA debugging use.
// docs/PERFORMANCE.md documents the dispatch table and measured speedups.

// Dispatch levels, exported through the kernels/dispatch_level gauge.
inline constexpr int kLevelScalar = 0;
inline constexpr int kLevelAvx2 = 2;  // AVX2 + FMA

// Largest block of C one gemm_tile call computes: 6 rows x 16 columns, the
// AVX2 register blocking (12 ymm accumulators, two B vectors and one
// broadcast A value fill 15 of the 16 ymm registers).
inline constexpr size_t kGemmTileRows = 6;
inline constexpr size_t kGemmTileCols = 16;

// One ISA level's implementation of every microkernel. All pointers are
// non-null in every table. Buffers may be unaligned; x/y/out must not alias
// unless a kernel says otherwise.
struct KernelTable {
  const char* name;  // "scalar" or "avx2"
  int level;         // kLevelScalar / kLevelAvx2

  // y[i] += alpha * x[i] for i in [0, n).
  void (*axpy)(size_t n, float alpha, const float* x, float* y);

  // y[i] += a0 * x0[i] + a1 * x1[i] — one pass over y. Its pair order is
  // the one spmm_row keeps.
  void (*axpy2)(size_t n, float a0, const float* x0, float a1,
                const float* x1, float* y);

  // One CSR row times a dense matrix, the gather under graph::Spmm. For
  // c in [0, d):
  //   out[c] (+)= sum over e = 0, 1, ..., nnz-1 of values[e] * x_e[c]
  // where x_e is row cols[e] of `dense` (row-major, stride d), or row
  // remap[cols[e]] when `remap` is not null; an entry whose remap value is
  // negative is skipped. Without `accumulate`, out is written without
  // being read. Each element folds its terms as axpy2 over consecutive
  // pairs of entries and axpy over an odd last one would, so the result is
  // bit-equal to that chain with every skipped entry reading a zero row:
  // the SIMD table's body is one FMA per term and drops a skipped term; the
  // scalar table and the SIMD column tail (d mod 8) keep the pairs, fold
  // a pair with one skipped entry as a * x + b * 0, and drop a pair with
  // both skipped. Dropping a term differs from folding its zero only in
  // the sign of an output that starts, with `accumulate`, at -0.
  void (*spmm_row)(size_t nnz, const float* values, const uint32_t* cols,
                   const int32_t* remap, const float* dense, size_t d,
                   bool accumulate, float* out);

  // Returns sum_i a[i] * b[i].
  float (*dot)(size_t n, const float* a, const float* b);

  // x[i] *= alpha.
  void (*scale)(size_t n, float alpha, float* x);

  // Returns max_i x[i]; n must be >= 1. Feeds the top-K block fast-reject.
  float (*reduce_max)(size_t n, const float* x);

  // Fused scoring GEMV over `items` consecutive d-dim rows starting at
  // `item_rows` (row-major, stride d):
  //   out[j] = dot(u, item_rows + j*d) + (bias != nullptr ? bias[j] : 0)
  // Returns the maximum score of the block (-FLT_MAX when items == 0) so
  // serving can reject a whole block against the current top-K threshold
  // without a second pass.
  float (*score_block)(size_t items, size_t d, const float* u,
                       const float* item_rows, const float* bias, float* out);

  // One register-blocked tile of C = alpha * A * B + beta * C, the
  // microkernel under tensor::Gemm. The tile has rows <= kGemmTileRows and
  // cols <= kGemmTileCols; for i < rows, j < cols:
  //   c[i*ldc + j] = alpha * acc(i, j) + beta * c[i*ldc + j]
  //   acc(i, j)    = sum for p = 0, 1, ..., k-1 of
  //                  a[i*a_row_stride + p*a_k_stride] * b[p*ldb + j]
  // Each acc(i, j) is one chain from zero in ascending p (fused
  // multiply-adds in the SIMD tables), so an element's value does not depend
  // on where its tile sits or which thread runs it. A is read through two
  // strides, so a row-major A (a_k_stride == 1) and a transposed view of
  // one (a_row_stride == 1) need no copy. When beta == 0, c is written
  // without being read.
  void (*gemm_tile)(size_t rows, size_t cols, size_t k, float alpha,
                    const float* a, size_t a_row_stride, size_t a_k_stride,
                    const float* b, size_t ldb, float beta, float* c,
                    size_t ldc);

  // y[i] = tanh(x[i]) for i in [0, n); y may alias x. Every table is odd
  // bit for bit, maps NaN to NaN and +-inf to +-1. The scalar table is
  // std::tanh; the SIMD table is within 2e-7 absolute of it and returns
  // exactly +-1 for |x| >= 9.
  void (*tanh)(size_t n, const float* x, float* y);

  // One RMSprop step over n elements that also clears the gradient it
  // consumed. For i in [0, n), each operation rounded in this order:
  //   g        = grad[i] + weight_decay * value[i]
  //   ms[i]    = decay * ms[i] + ((1 - decay) * g) * g
  //   value[i] = value[i] - (lr * g) / (sqrt(ms[i]) + epsilon)
  //   grad[i]  = 0
  // Unlike the other kernels, every table returns the same bits: the SIMD
  // code uses only correctly rounded IEEE operations (vsqrtps, vdivps) in
  // this order, and is built with floating-point contraction off, since
  // GCC would otherwise fuse _mm256_add_ps(_mm256_mul_ps(...)) into an
  // FMA and round once where the scalar loop rounds twice. kernels_test
  // checks the bit equality.
  void (*rmsprop)(size_t n, float lr, float weight_decay, float decay,
                  float epsilon, float* value, float* grad, float* ms);
};

// The table every hot path uses. Resolved exactly once per process from
// CPUID + HOSR_FORCE_SCALAR; afterwards this is a single atomic load.
// Publishes the chosen level through the kernels/dispatch_level gauge.
const KernelTable& Active();

// The portable scalar table; always available, bit-reproducible anywhere.
const KernelTable& Scalar();

// The best table this CPU supports, ignoring HOSR_FORCE_SCALAR. Tests
// compare Best() against Scalar() for numerical agreement.
const KernelTable& Best();

// True when HOSR_FORCE_SCALAR pinned dispatch to the scalar table.
bool ForcedScalar();

// Test-only: overrides Active() (nullptr restores normal resolution).
// Production dispatch stays fixed for the process lifetime; this hook exists
// so one test process can run a workload under both tables and compare.
void SetActiveForTesting(const KernelTable* table);

}  // namespace hosr::kernels

#endif  // HOSR_KERNELS_KERNELS_H_
