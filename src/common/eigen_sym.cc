#include "common/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ccdb {
namespace {

/// Off-diagonal mass (Frobenius norm of the strict upper triangle) at
/// which the sweeps stop.
constexpr double kTolerance = 1e-12;
constexpr int kMaxSweeps = 64;

}  // namespace

SymmetricEigen JacobiEigenSymmetric(const Matrix& a) {
  const std::size_t n = a.rows();
  CCDB_CHECK_EQ(n, a.cols());
  Matrix work = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      CCDB_CHECK_MSG(std::abs(work(i, j) - work(j, i)) < 1e-9,
                     "matrix not symmetric at (" << i << "," << j << ")");

  Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  auto off_diagonal_norm = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) acc += work(i, j) * work(i, j);
    return std::sqrt(acc);
  };

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_norm() <= kTolerance) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = work(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = work(p, p);
        const double aqq = work(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Stable computation of tan of the rotation angle.
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        // Apply the rotation G(p, q, θ) on both sides: work = Gᵀ work G.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = work(k, p);
          const double akq = work(k, q);
          work(k, p) = c * akp - s * akq;
          work(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = work(p, k);
          const double aqk = work(q, k);
          work(p, k) = c * apk - s * aqk;
          work(q, k) = s * apk + c * aqk;
        }
        // Accumulate the eigenvector rotation.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return work(x, x) > work(y, y);
  });

  SymmetricEigen result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = work(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i)
      result.eigenvectors(i, j) = v(i, order[j]);
  }
  return result;
}

}  // namespace ccdb
