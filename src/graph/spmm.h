#ifndef HOSR_GRAPH_SPMM_H_
#define HOSR_GRAPH_SPMM_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "tensor/matrix.h"

namespace hosr::graph {

// The one sparse-times-dense product, one kernels spmm_row call per output
// row, threaded over output rows; cost O(entries multiplied * d), the
// linear-in-|A| propagation cost of Sec. 2.5.
//
// Output row i is row rows[i] of the product, or row i when `rows` is null
// (rows need not be sorted; each must be < sparse.num_rows()). Entry
// (r, c) reads dense row c, or dense row remap[c] when `remap` is not
// null, in which case remap has sparse.num_cols() values and a negative one
// drops column c; otherwise dense has sparse.num_cols() rows. out must be
// pre-sized to (number of output rows x dense.cols()). With `accumulate`,
// out += product, each row's entries folded into out's existing row in the
// order they fold from zero; without it out is written without being read,
// so it may be uninitialised.
//
// The two optional arguments give both halves of a row-restricted product
// without building a CSR per call: `rows` computes only the chosen rows of
// L * H, and `remap` over the cached transpose computes L[rows, :]^T * dY
// (remap[r] = position of r in rows, -1 elsewhere).
void SpmmInto(const CsrMatrix& sparse, const tensor::Matrix& dense,
              tensor::Matrix* out, bool accumulate,
              const std::vector<uint32_t>* rows = nullptr,
              const std::vector<int32_t>* remap = nullptr);

// out = sparse * dense over all rows; out is pre-sized, may be
// uninitialised.
void Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense,
          tensor::Matrix* out);

// Convenience allocating form.
tensor::Matrix Spmm(const CsrMatrix& sparse, const tensor::Matrix& dense);

}  // namespace hosr::graph

#endif  // HOSR_GRAPH_SPMM_H_
