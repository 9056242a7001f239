#ifndef HOSR_GRAPH_SPMM_H_
#define HOSR_GRAPH_SPMM_H_

#include "graph/csr.h"
#include "tensor/matrix.h"

namespace hosr::graph {

// out = sparse * dense. dense is (sparse.num_cols x d); out must be
// pre-sized to (sparse.num_rows x d) and is overwritten without being read,
// so it may be uninitialised. Threaded over output rows; cost O(nnz * d) —
// the linear-in-|A| propagation cost of Sec. 2.5.
void Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense,
          tensor::Matrix* out);

// Accumulating form: out += sparse * dense, each row's neighbors folded into
// out's existing row in the same order Spmm folds them from zero. The
// autograd backward of SpMM writes straight into the input's gradient with
// it instead of building a partial product and adding that.
void SpmmAccumulate(const CsrMatrix& sparse, const tensor::Matrix& dense,
                    tensor::Matrix* out);

// Convenience allocating form.
tensor::Matrix Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense);

// out = sparse^T * dense. dense is (sparse.num_rows x d); out must be
// pre-sized to (sparse.num_cols x d). Materializes the transpose CSR per
// call (O(nnz), counted by spmm/transpose_builds) and routes through the
// row-parallel Spmm gather, so it threads and vectorizes like the forward
// pass; hot paths that reuse the operator should build the transpose once
// and call Spmm on it directly (as autograd::Tape::SpMM does).
void SpmmTranspose(const CsrMatrix& sparse, const tensor::Matrix& dense,
                   tensor::Matrix* out);

}  // namespace hosr::graph

#endif  // HOSR_GRAPH_SPMM_H_
