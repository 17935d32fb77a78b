#ifndef CCDB_COMMON_MATRIX_H_
#define CCDB_COMMON_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace ccdb {

class Rng;

/// Dense row-major matrix of doubles. Rows are exposed as spans so factor
/// models and SVMs can treat "row i" as the coordinate vector of item i
/// without copying. Copyable and movable.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(std::size_t r, std::size_t c) {
    CCDB_CHECK_LT(r, rows_);
    CCDB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(std::size_t r, std::size_t c) const {
    CCDB_CHECK_LT(r, rows_);
    CCDB_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Mutable view of row r.
  std::span<double> Row(std::size_t r) {
    CCDB_CHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }
  /// Read-only view of row r.
  std::span<const double> Row(std::size_t r) const {
    CCDB_CHECK_LT(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }

  /// Contiguous storage (row-major).
  std::span<double> Data() { return data_; }
  std::span<const double> Data() const { return data_; }

  /// Fills every entry with i.i.d. Gaussian(mean, stddev) draws.
  void FillGaussian(Rng& rng, double mean, double stddev);

  /// Returns this * other (naive triple loop with blocking on k).
  Matrix Multiply(const Matrix& other) const;

  /// Returns thisᵀ * other.
  Matrix TransposeMultiply(const Matrix& other) const;

  /// Returns the transpose.
  Matrix Transposed() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// In-place modified Gram–Schmidt orthonormalization of the columns of m.
/// Columns that become (numerically) zero are replaced by zero vectors.
void OrthonormalizeColumns(Matrix& m);

}  // namespace ccdb

#endif  // CCDB_COMMON_MATRIX_H_
