#ifndef HOSR_TENSOR_MATRIX_H_
#define HOSR_TENSOR_MATRIX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "util/logging.h"

namespace hosr::tensor {

// Dense row-major float matrix. This is the single tensor type the entire
// library is built on: embeddings are (n x d) matrices, vectors are (1 x d)
// or (n x 1) matrices. Copyable (deep copy, one memcpy) and movable; a
// moved-from matrix is 0 x 0.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill_value = 0.0f);

  // Storage whose contents are unspecified until written: for ops that
  // overwrite every element, so they skip the zero-fill. Reading an element
  // before writing it is a bug, which SetPoisonUninitializedForTesting
  // turns into a NaN.
  static Matrix Uninitialized(size_t rows, size_t cols);

  // Builds from nested init-list-like rows; all rows must be equally long.
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept;
  Matrix& operator=(Matrix&& other) noexcept;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float* row(size_t r) {
    HOSR_CHECK(r < rows_);
    return data_.get() + r * cols_;
  }
  const float* row(size_t r) const {
    HOSR_CHECK(r < rows_);
    return data_.get() + r * cols_;
  }

  float& at(size_t r, size_t c) {
    HOSR_CHECK(r < rows_ && c < cols_) << r << "," << c << " in " << rows_
                                       << "x" << cols_;
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    HOSR_CHECK(r < rows_ && c < cols_) << r << "," << c << " in " << rows_
                                       << "x" << cols_;
    return data_[r * cols_ + c];
  }

  // Unchecked fast path for inner loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::unique_ptr<float[]> data_;
};

// Test-only: while on, every Matrix::Uninitialized is filled with quiet NaN,
// so an op that reads its output or a gradient before the first write
// poisons the result. GCC has no MemorySanitizer; this is the check.
void SetPoisonUninitializedForTesting(bool on);

}  // namespace hosr::tensor

#endif  // HOSR_TENSOR_MATRIX_H_
