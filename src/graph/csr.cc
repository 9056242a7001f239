#include "graph/csr.h"

#include <algorithm>

#include "obs/metrics.h"

namespace hosr::graph {

CsrMatrix CsrMatrix::FromTriplets(uint32_t num_rows, uint32_t num_cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    HOSR_CHECK(t.row < num_rows && t.col < num_cols)
        << "(" << t.row << "," << t.col << ") outside " << num_rows << "x"
        << num_cols;
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.num_rows_ = num_rows;
  m.num_cols_ = num_cols;
  m.row_ptr_.assign(num_rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  size_t i = 0;
  for (uint32_t r = 0; r < num_rows; ++r) {
    m.row_ptr_[r] = m.col_idx_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const uint32_t c = triplets[i].col;
      float v = 0.0f;
      // Sum duplicates.
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
  }
  m.row_ptr_[num_rows] = m.col_idx_.size();
  return m;
}

float CsrMatrix::At(uint32_t r, uint32_t c) const {
  HOSR_CHECK(r < num_rows_ && c < num_cols_);
  const auto begin = col_idx_.begin() + static_cast<ptrdiff_t>(row_begin(r));
  const auto end = col_idx_.begin() + static_cast<ptrdiff_t>(row_end(r));
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0f;
  return values_[static_cast<size_t>(it - col_idx_.begin())];
}

CsrMatrix CsrMatrix::Transpose() const {
  // Transposes are meant to be built once per graph and reused across
  // epochs/layers (models cache them as members; autograd::Tape::SpMM only
  // borrows pointers). This counter is the audit: it must stay flat while
  // training runs (tests/hosr_test.cc TransposeBuiltOncePerGraph).
  HOSR_COUNTER("spmm/transpose_builds").Increment();
  CsrMatrix t;
  t.num_rows_ = num_cols_;
  t.num_cols_ = num_rows_;
  t.row_ptr_.assign(num_cols_ + 1, 0);
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());

  // Counting sort by column.
  for (const uint32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (uint32_t c = 0; c < num_cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];

  std::vector<size_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (uint32_t r = 0; r < num_rows_; ++r) {
    for (size_t k = row_begin(r); k < row_end(r); ++k) {
      const uint32_t c = col_idx_[k];
      const size_t pos = cursor[c]++;
      t.col_idx_[pos] = r;
      t.values_[pos] = values_[k];
    }
  }
  return t;
}

bool CsrMatrix::operator==(const CsrMatrix& other) const {
  return num_rows_ == other.num_rows_ && num_cols_ == other.num_cols_ &&
         row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_ &&
         values_ == other.values_;
}

}  // namespace hosr::graph
