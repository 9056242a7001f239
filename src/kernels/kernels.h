#ifndef HOSR_KERNELS_KERNELS_H_
#define HOSR_KERNELS_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace hosr::kernels {

// Runtime-dispatched dense microkernels backing every dense hot path in the
// library (tensor::Gemm/Axpy/RowDot/Tanh, graph::Spmm, the RMSprop step, the
// tape's element-wise passes, the serving engine's half-precision pass, the
// evaluator's top-K scan). The
// instruction set is probed once per process (CPUID) and every call site
// reads the same resolved table, so a process never mixes ISA levels: each
// kernel has a fixed reduction order within a level, which preserves the
// train-resume and snapshot bit-identity contracts (docs/ROBUSTNESS.md) for
// any fixed dispatch mode.
//
// Setting the environment variable HOSR_FORCE_SCALAR (to anything but "0")
// before the first kernel call pins dispatch to the portable scalar table —
// the knob the forced-scalar ctest matrix and cross-ISA debugging use.
// docs/PERFORMANCE.md documents the dispatch table and measured speedups.

// Dispatch levels, exported through the kernels/dispatch_level gauge.
inline constexpr int kLevelScalar = 0;
inline constexpr int kLevelAvx2 = 2;  // AVX2 + FMA + F16C

// Rows per block of score_half's half-precision table: one ymm register of
// floats, so the SIMD table scores a block's rows in its lanes.
inline constexpr size_t kHalfBlockRows = 8;

// One ISA level's implementation of every microkernel. All pointers are
// non-null in every table. Buffers may be unaligned; x/y/out must not alias
// unless a kernel says otherwise.
struct KernelTable {
  const char* name;  // "scalar" or "avx2"
  int level;         // kLevelScalar / kLevelAvx2

  // y[i] += alpha * x[i] for i in [0, n). With alpha = 1 every table
  // returns y[i] + x[i] bit for bit (1 * x is exact, so one FMA rounds
  // where the add does), which tensor::ScatterAddRows relies on.
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

  // The serving engine's first pass (serve/engine.h): approximate scores
  // from a half-precision item table, widened into bounds on the fp32
  // scores. `half_blocks` holds `blocks` blocks of kHalfBlockRows rows of d
  // IEEE binary16 bit patterns, dimension-major within a block: row
  // j = kHalfBlockRows * b + r, dimension i is at
  // half_blocks[(b * d + i) * kHalfBlockRows + r]. For each row j:
  //   s        = sum over i of u[i] * HalfToFloat(row j, dimension i)
  //              (+ bias[j] when bias is not null)
  //   e        = scale * radius[j] + bias_radius
  //   lower[j] = s - e,  upper[j] = s + e
  // in float, or -inf and +inf when either is not finite. Halves widen to
  // float exactly and no product passes through more than d roundings, so
  // the sum is within gamma_d * |u| * |row j| of exact in every table,
  // gamma_d = d*2^-24 / (1 - d*2^-24); the tables differ in reduction order
  // and the SIMD one widens eight halves per F16C instruction. bias, radius,
  // lower and upper hold kHalfBlockRows * blocks floats.
  void (*score_half)(size_t blocks, size_t d, const float* u,
                     const uint16_t* half_blocks, const float* bias,
                     const float* radius, float scale, float bias_radius,
                     float* lower, float* upper);

  // The largest block of C one gemm_tile call computes. tensor::Gemm tiles
  // C by it. The scalar table and the AVX2 8-lane tile take 6 x 16 (12 ymm
  // accumulators, two B vectors and one broadcast A value fill 15 of the
  // 16 ymm registers); the 16-lane tile, which the AVX2 table carries on
  // CPUs with AVX-512F, takes 6 x 64 (24 zmm accumulators).
  size_t gemm_tile_rows;
  size_t gemm_tile_cols;

  // One register-blocked tile of C = alpha * A * B + beta * C, the
  // microkernel under tensor::Gemm. The tile has rows <= gemm_tile_rows
  // and cols <= gemm_tile_cols; for i < rows, j < cols:
  //   c[i*ldc + j] = alpha * acc(i, j) + beta * c[i*ldc + j]
  //   acc(i, j)    = sum for p = 0, 1, ..., k-1 of
  //                  a[i*a_row_stride + p*a_k_stride] * b[p*ldb + j]
  // Each acc(i, j) is one chain from zero in ascending p (fused
  // multiply-adds in the SIMD tables), so an element's value does not depend
  // on where its tile sits, which thread runs it or how wide the tile is:
  // the 8- and 16-lane tiles return the same bits. A is read through two
  // strides, so a row-major A (a_k_stride == 1) and a transposed view of
  // one (a_row_stride == 1) need no copy. When beta == 0, c is written
  // without being read.
  void (*gemm_tile)(size_t rows, size_t cols, size_t k, float alpha,
                    const float* a, size_t a_row_stride, size_t a_k_stride,
                    const float* b, size_t ldb, float beta, float* c,
                    size_t ldc);

  // One core's nanoseconds per unit of work of the kernels tensor::Gemm,
  // tensor::Tanh and graph::Spmm split with util::ParallelFor, which they
  // hand to util::GrainFor so a call forks only when it outlasts waking the
  // pool: a gemm_tile multiply-add and a dot one, an spmm_row term (one
  // entry of one column) and a tanh element. Each is the rate of whole
  // one-core calls at the HOSR training shapes on YelpLike 0.2 (d = 64;
  // 2,116 x 64 by 64 x 64 GEMMs, the 35,262-entry Laplacian, 135,424 tanh
  // elements), docs/PERFORMANCE.md "Fork-join ParallelFor and the 16-lane
  // GEMM tile".
  double gemm_mac_ns;
  double dot_mac_ns;
  double spmm_term_ns;
  double tanh_ns;

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

  // The autograd tape's element-wise passes. relu writes
  // y[i] = x[i] > 0 ? x[i] : +0 (NaN to +0). The others write a term,
  // out[i] = t(i), or add it, out[i] += t(i), with `accumulate`, for i in
  // [0, n):
  //   relu_grad         t(i) = x[i] > 0 ? g[i] : +0, and with accumulate
  //                     out[i] is left as it is where !(x[i] > 0)
  //   tanh_grad         t(i) = g[i] * (1 - y[i] * y[i]), y = tanh(x)
  //   log_sigmoid_grad  t(i) = g[i] / (1 + exp(x[i]))
  //   mul               t(i) = a[i] * b[i]
  // Like rmsprop, every table returns the same bits, the scalar loop's:
  // the SIMD twins (avx2_exact.cc) round every operation in its order and
  // take exp from the same std::exp, one lane at a time.
  void (*relu)(size_t n, const float* x, float* y);
  void (*relu_grad)(size_t n, const float* x, const float* g,
                    bool accumulate, float* out);
  void (*tanh_grad)(size_t n, const float* y, const float* g,
                    bool accumulate, float* out);
  void (*log_sigmoid_grad)(size_t n, const float* x, const float* g,
                           bool accumulate, float* out);
  void (*mul)(size_t n, const float* a, const float* b, bool accumulate,
              float* out);
};

// IEEE binary32 -> binary16, portable, rounding to nearest even (overflow
// to +-inf, NaN to a quiet NaN) through float arithmetic: a half subnormal
// is the float sum with a magic constant whose ulp is the half subnormal
// step, and a normal half drops 13 mantissa bits with a carry that may
// overflow into the exponent (65520 and up become infinity).
inline uint16_t FloatToHalf(float value) {
  constexpr uint32_t kInfinity = 0x7f800000u;
  constexpr uint32_t kHalfOverflow = (127u + 16u) << 23;  // 2^16
  constexpr uint32_t kHalfNormalMin = 113u << 23;         // 2^-14
  constexpr uint32_t kSubnormalMagic = (127u - 14u + 23u - 10u) << 23;  // 0.5
  uint32_t bits = std::bit_cast<uint32_t>(value);
  const auto sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  bits &= 0x7fffffffu;
  uint16_t half;
  if (bits >= kHalfOverflow) {
    half = bits > kInfinity ? 0x7e00u : 0x7c00u;
  } else if (bits < kHalfNormalMin) {
    const float shifted = std::bit_cast<float>(bits) +
                          std::bit_cast<float>(kSubnormalMagic);
    half = static_cast<uint16_t>(std::bit_cast<uint32_t>(shifted) -
                                 kSubnormalMagic);
  } else {
    const uint32_t odd = (bits >> 13) & 1u;
    bits += (static_cast<uint32_t>(15 - 127) << 23) + 0xfffu + odd;
    half = static_cast<uint16_t>(bits >> 13);
  }
  return static_cast<uint16_t>(half | sign);
}

// IEEE binary16 -> binary32, exact.
inline float HalfToFloat(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  const uint32_t exponent = (half >> 10) & 0x1fu;
  const uint32_t mantissa = half & 0x3ffu;
  if (exponent == 0x1fu) {  // infinity or NaN
    return std::bit_cast<float>(sign | 0x7f800000u | (mantissa << 13));
  }
  if (exponent == 0) {  // zero or subnormal: mantissa * 2^-24, exact
    const float magnitude = static_cast<float>(mantissa) * 0x1p-24f;
    return std::bit_cast<float>(sign | std::bit_cast<uint32_t>(magnitude));
  }
  return std::bit_cast<float>(sign | ((exponent + 112u) << 23) |
                              (mantissa << 13));
}

// The table every hot path uses. Resolved exactly once per process from
// CPUID + HOSR_FORCE_SCALAR; afterwards this is a single atomic load.
// Publishes the chosen level through the kernels/dispatch_level gauge.
const KernelTable& Active();

// The portable scalar table; always available, bit-reproducible anywhere.
const KernelTable& Scalar();

// The best table this CPU supports, ignoring HOSR_FORCE_SCALAR. Tests
// compare Best() against Scalar() for numerical agreement. On a CPU with
// AVX-512F it is the AVX2 table with the 16-lane gemm_tile.
const KernelTable& Best();

// The AVX2 table with the 8-lane gemm_tile, or null without AVX2. Equal to
// Best() except on CPUs with AVX-512F; tests check that the two tiles
// return the same bits.
const KernelTable* EightLaneTable();

// True when HOSR_FORCE_SCALAR pinned dispatch to the scalar table.
bool ForcedScalar();

// Test-only: overrides Active() (nullptr restores normal resolution).
// Production dispatch stays fixed for the process lifetime; this hook exists
// so one test process can run a workload under both tables and compare.
void SetActiveForTesting(const KernelTable* table);

}  // namespace hosr::kernels

#endif  // HOSR_KERNELS_KERNELS_H_
