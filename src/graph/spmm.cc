#include "graph/spmm.h"

#include <algorithm>
#include <atomic>

#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace hosr::graph {

void SpmmInto(const CsrMatrix& sparse, const tensor::Matrix& dense,
              tensor::Matrix* out, bool accumulate,
              const std::vector<uint32_t>* rows,
              const std::vector<int32_t>* remap) {
  HOSR_TRACE_SPAN(accumulate ? "spmm/accumulate" : "spmm/forward");
  if (remap != nullptr) {
    HOSR_CHECK(remap->size() == sparse.num_cols())
        << remap->size() << " vs " << sparse.num_cols();
  } else {
    HOSR_CHECK(dense.rows() == sparse.num_cols())
        << dense.rows() << " vs " << sparse.num_cols();
  }
  const size_t num_out = rows != nullptr ? rows->size() : sparse.num_rows();
  HOSR_CHECK(out->rows() == num_out && out->cols() == dense.cols());
  HOSR_CHECK(out != &dense) << "Spmm does not support aliasing";
  if (rows != nullptr) {
    for (const uint32_t r : *rows) HOSR_CHECK(r < sparse.num_rows()) << r;
  }
  const size_t d = dense.cols();

  const size_t avg_row_nnz =
      std::max<size_t>(1, sparse.nnz() / std::max<uint32_t>(1, sparse.num_rows()));
  const size_t grain = util::GrainFor(avg_row_nnz * d, /*min_grain=*/16);
  const kernels::KernelTable& kern = kernels::Active();
  const int32_t* remap_data = remap != nullptr ? remap->data() : nullptr;

  // Row-parallel gather: each output row folds its entries' dense rows in
  // registers through the spmm_row microkernel. `multiplied` counts the
  // entries that reached the kernel unskipped, for the flop counter.
  std::atomic<size_t> multiplied{0};
  util::ParallelFor(
      0, num_out,
      [&](size_t out_begin, size_t out_end) {
        const float* values = sparse.values().data();
        const uint32_t* cols = sparse.col_idx().data();
        size_t chunk_multiplied = 0;
        for (size_t i = out_begin; i < out_end; ++i) {
          const uint32_t r =
              rows != nullptr ? (*rows)[i] : static_cast<uint32_t>(i);
          const size_t begin = sparse.row_begin(r);
          const size_t end = sparse.row_end(r);
          kern.spmm_row(end - begin, values + begin, cols + begin, remap_data,
                        dense.data(), d, accumulate, out->row(i));
          if (remap_data == nullptr) {
            chunk_multiplied += end - begin;
          } else {
            for (size_t k = begin; k < end; ++k) {
              chunk_multiplied += remap_data[cols[k]] >= 0 ? 1 : 0;
            }
          }
        }
        multiplied.fetch_add(chunk_multiplied, std::memory_order_relaxed);
      },
      grain);
  HOSR_COUNTER("spmm/calls").Increment();
  HOSR_COUNTER("spmm/rows_processed").Increment(num_out);
  HOSR_COUNTER("spmm/flops").Increment(2 * multiplied.load() * d);
}

void Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense,
          tensor::Matrix* out) {
  SpmmInto(sparse, dense, out, /*accumulate=*/false);
}

tensor::Matrix Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense) {
  tensor::Matrix out =
      tensor::Matrix::Uninitialized(sparse.num_rows(), dense.cols());
  Spmm(sparse, dense, &out);
  return out;
}

}  // namespace hosr::graph
