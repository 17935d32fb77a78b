#include "common/matrix.h"

#include <cmath>

#include "common/rng.h"

namespace ccdb {

void Matrix::FillGaussian(Rng& rng, double mean, double stddev) {
  for (double& v : data_) v = rng.Gaussian(mean, stddev);
}

Matrix Matrix::Multiply(const Matrix& other) const {
  CCDB_CHECK_EQ(cols_, other.rows_);
  Matrix result(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a_ik = (*this)(i, k);
      if (a_ik == 0.0) continue;
      const double* b_row = &other.data_[k * other.cols_];
      double* r_row = &result.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) r_row[j] += a_ik * b_row[j];
    }
  }
  return result;
}

Matrix Matrix::TransposeMultiply(const Matrix& other) const {
  CCDB_CHECK_EQ(rows_, other.rows_);
  Matrix result(cols_, other.cols_);
  for (std::size_t k = 0; k < rows_; ++k) {
    const double* a_row = &data_[k * cols_];
    const double* b_row = &other.data_[k * other.cols_];
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a_ki = a_row[i];
      if (a_ki == 0.0) continue;
      double* r_row = &result.data_[i * other.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) r_row[j] += a_ki * b_row[j];
    }
  }
  return result;
}

Matrix Matrix::Transposed() const {
  Matrix result(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
  return result;
}

void OrthonormalizeColumns(Matrix& m) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t j = 0; j < cols; ++j) {
    // Subtract projections onto previously orthonormalized columns.
    for (std::size_t prev = 0; prev < j; ++prev) {
      double proj = 0.0;
      for (std::size_t i = 0; i < rows; ++i) proj += m(i, j) * m(i, prev);
      for (std::size_t i = 0; i < rows; ++i) m(i, j) -= proj * m(i, prev);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < rows; ++i) norm += m(i, j) * m(i, j);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      for (std::size_t i = 0; i < rows; ++i) m(i, j) = 0.0;
    } else {
      for (std::size_t i = 0; i < rows; ++i) m(i, j) /= norm;
    }
  }
}

}  // namespace ccdb
