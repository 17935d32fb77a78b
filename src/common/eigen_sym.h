#ifndef CCDB_COMMON_EIGEN_SYM_H_
#define CCDB_COMMON_EIGEN_SYM_H_

#include <vector>

#include "common/matrix.h"

namespace ccdb {

/// Result of a symmetric eigendecomposition A = V diag(λ) Vᵀ.
struct SymmetricEigen {
  /// Eigenvalues in descending order.
  std::vector<double> eigenvalues;
  /// Column j of `eigenvectors` is the unit eigenvector for eigenvalues[j].
  Matrix eigenvectors;
};

/// Full eigendecomposition of a symmetric matrix via the cyclic Jacobi
/// rotation method. Intended for the small Gram matrices arising in the
/// randomized truncated SVD (dimension ≲ a few hundred); O(n³) per sweep.
/// `a` must be square and symmetric (asymmetry beyond 1e-9 is a CHECK
/// failure). Sweeps until the off-diagonal mass is at most 1e-12, or 64
/// sweeps.
SymmetricEigen JacobiEigenSymmetric(const Matrix& a);

}  // namespace ccdb

#endif  // CCDB_COMMON_EIGEN_SYM_H_
