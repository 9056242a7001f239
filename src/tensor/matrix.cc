#include "tensor/matrix.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

namespace hosr::tensor {

namespace {

std::atomic<bool> g_poison_uninitialized{false};

}  // namespace

void SetPoisonUninitializedForTesting(bool on) {
  g_poison_uninitialized.store(on, std::memory_order_relaxed);
}

Matrix::Matrix(size_t rows, size_t cols, float fill_value)
    : Matrix(Uninitialized(rows, cols)) {
  Fill(fill_value);
}

Matrix Matrix::Uninitialized(size_t rows, size_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  if (rows * cols > 0) {
    m.data_ = std::make_unique_for_overwrite<float[]>(rows * cols);
    if (g_poison_uninitialized.load(std::memory_order_relaxed)) {
      std::fill_n(m.data_.get(), rows * cols,
                  std::numeric_limits<float>::quiet_NaN());
    }
  }
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    HOSR_CHECK(rows[r].size() == m.cols()) << "ragged rows";
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

Matrix::Matrix(const Matrix& other)
    : Matrix(Uninitialized(other.rows_, other.cols_)) {
  if (!empty()) std::memcpy(data(), other.data(), size() * sizeof(float));
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  if (size() != other.size()) *this = Uninitialized(other.rows_, other.cols_);
  rows_ = other.rows_;
  cols_ = other.cols_;
  if (!empty()) std::memcpy(data(), other.data(), size() * sizeof(float));
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      data_(std::move(other.data_)) {}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  data_ = std::move(other.data_);
  return *this;
}

void Matrix::Fill(float value) {
  if (empty()) return;
  if (std::bit_cast<uint32_t>(value) == 0) {
    std::memset(data(), 0, size() * sizeof(float));
  } else {
    std::fill_n(data(), size(), value);
  }
}

}  // namespace hosr::tensor
