#ifndef HOSR_GRAPH_CSR_H_
#define HOSR_GRAPH_CSR_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace hosr::graph {

// One (row, col, value) entry used when assembling a sparse matrix.
struct Triplet {
  uint32_t row;
  uint32_t col;
  float value;
};

// Compressed-sparse-row float matrix. Immutable after construction; all
// mutation paths go through FromTriplets / the named builders so invariants
// (sorted, de-duplicated column indices per row) always hold.
class CsrMatrix {
 public:
  CsrMatrix() : num_rows_(0), num_cols_(0) { row_ptr_.push_back(0); }

  // Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix FromTriplets(uint32_t num_rows, uint32_t num_cols,
                                std::vector<Triplet> triplets);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const { return num_cols_; }
  size_t nnz() const { return col_idx_.size(); }

  // Row r occupies [row_begin(r), row_end(r)) in col_idx()/values().
  size_t row_begin(uint32_t r) const { return row_ptr_[r]; }
  size_t row_end(uint32_t r) const { return row_ptr_[r + 1]; }
  size_t row_nnz(uint32_t r) const { return row_end(r) - row_begin(r); }

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  // Value at (r, c), 0 if absent. O(log nnz(r)).
  float At(uint32_t r, uint32_t c) const;

  CsrMatrix Transpose() const;

  // Structural equality (same shape, pattern and values).
  bool operator==(const CsrMatrix& other) const;

 private:
  uint32_t num_rows_;
  uint32_t num_cols_;
  std::vector<size_t> row_ptr_;     // size num_rows_ + 1
  std::vector<uint32_t> col_idx_;   // size nnz
  std::vector<float> values_;       // size nnz
};

}  // namespace hosr::graph

#endif  // HOSR_GRAPH_CSR_H_
