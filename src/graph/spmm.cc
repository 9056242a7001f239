#include "graph/spmm.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace hosr::graph {

namespace {

// out = sparse * dense, or out += sparse * dense when `accumulate` is set.
void SpmmInto(const CsrMatrix& sparse, const tensor::Matrix& dense,
              tensor::Matrix* out, bool accumulate) {
  HOSR_CHECK(dense.rows() == sparse.num_cols())
      << dense.rows() << " vs " << sparse.num_cols();
  HOSR_CHECK(out->rows() == sparse.num_rows() && out->cols() == dense.cols());
  HOSR_CHECK(out != &dense) << "Spmm does not support aliasing";
  const size_t d = dense.cols();
  HOSR_COUNTER("spmm/calls").Increment();
  HOSR_COUNTER("spmm/rows_processed").Increment(sparse.num_rows());
  HOSR_COUNTER("spmm/flops").Increment(2 * sparse.nnz() * d);

  const size_t avg_row_nnz =
      std::max<size_t>(1, sparse.nnz() / std::max<uint32_t>(1, sparse.num_rows()));
  const size_t grain = util::GrainFor(avg_row_nnz * d, /*min_grain=*/16);
  const kernels::KernelTable& kern = kernels::Active();

  // Row-parallel gather: each output row accumulates its neighbors' dense
  // rows, two at a time through the axpy2 microkernel.
  util::ParallelFor(
      0, sparse.num_rows(),
      [&](size_t row_begin, size_t row_end) {
        const float* values = sparse.values().data();
        const uint32_t* cols = sparse.col_idx().data();
        for (size_t r = row_begin; r < row_end; ++r) {
          float* out_row = out->row(r);
          if (!accumulate) std::fill(out_row, out_row + d, 0.0f);
          size_t k = sparse.row_begin(static_cast<uint32_t>(r));
          const size_t end = sparse.row_end(static_cast<uint32_t>(r));
          for (; k + 2 <= end; k += 2) {
            kern.axpy2(d, values[k], dense.row(cols[k]), values[k + 1],
                       dense.row(cols[k + 1]), out_row);
          }
          if (k < end) {
            kern.axpy(d, values[k], dense.row(cols[k]), out_row);
          }
        }
      },
      grain);
}

}  // namespace

void Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense,
          tensor::Matrix* out) {
  HOSR_TRACE_SPAN("spmm/forward");
  SpmmInto(sparse, dense, out, /*accumulate=*/false);
}

void SpmmAccumulate(const CsrMatrix& sparse, const tensor::Matrix& dense,
                    tensor::Matrix* out) {
  HOSR_TRACE_SPAN("spmm/accumulate");
  SpmmInto(sparse, dense, out, /*accumulate=*/true);
}

tensor::Matrix Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense) {
  tensor::Matrix out =
      tensor::Matrix::Uninitialized(sparse.num_rows(), dense.cols());
  Spmm(sparse, dense, &out);
  return out;
}

void SpmmTranspose(const CsrMatrix& sparse, const tensor::Matrix& dense,
                   tensor::Matrix* out) {
  HOSR_TRACE_SPAN("spmm/transpose");
  HOSR_CHECK(dense.rows() == sparse.num_rows());
  HOSR_CHECK(out->rows() == sparse.num_cols() && out->cols() == dense.cols());
  HOSR_CHECK(out != &dense) << "SpmmTranspose does not support aliasing";
  // Materialize the transpose and reuse the row-parallel gather kernel: the
  // O(nnz) transpose build costs the same order as the multiply itself and
  // buys a deterministic, threaded gather in place of the old serial
  // scatter. Hot paths that apply the same operator repeatedly should build
  // the transpose CSR once and call Spmm on it directly (autograd::Tape
  // does; the spmm/transpose_builds counter proves nothing rebuilds).
  const CsrMatrix transposed = sparse.Transpose();
  Spmm(transposed, dense, out);
}

}  // namespace hosr::graph
