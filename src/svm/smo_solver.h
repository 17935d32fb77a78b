#ifndef CCDB_SVM_SMO_SOLVER_H_
#define CCDB_SVM_SMO_SOLVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace ccdb::svm {

/// Abstract view of the (signed) quadratic term Q of the SMO dual problem:
/// Q_ij = y_i y_j K(x_i, x_j). Implementations cache rows; the solver only
/// ever asks for full rows, two per iteration.
class QMatrix {
 public:
  virtual ~QMatrix() = default;

  /// Number of dual variables.
  virtual std::size_t size() const = 0;

  /// Row i of Q (length size()), read in place. The view stays valid until
  /// the second-next Row() call, so rows i and j of one iteration can be
  /// held together.
  virtual std::span<const double> Row(std::size_t i) const = 0;

  /// Diagonal entry Q_ii (cheap; used by the pair update).
  virtual double Diagonal(std::size_t i) const = 0;
};

/// Generalized SMO solver for problems of the form
///   min_α  ½ αᵀQα + pᵀα
///   s.t.   yᵀα = Δ,  0 ≤ α_i ≤ C_i,
/// with y_i ∈ {+1, −1} (LIBSVM's formulation). C-SVC uses p = −1, SVR maps
/// onto 2n variables. Working-set selection is the first-order maximal
/// violating pair, lowest index on ties; no shrinking (problem sizes in
/// this library are small). Each iteration reads Q rows i and j in place
/// and makes one pass over the variables that applies the gradient update
/// and selects the next pair (DESIGN.md §9, "SMO iteration").
struct SmoResult {
  std::vector<double> alpha;
  /// Offset; decision functions subtract rho.
  double rho = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  /// Ok unless SmoConfig::stop fired mid-solve; the returned alpha is the
  /// feasible (but unconverged) iterate at the stop point.
  Status stop_status;
};

/// The solver stops once the maximal violating pair's KKT gap falls below
/// this (LIBSVM's default -e).
inline constexpr double kSmoTolerance = 1e-3;

struct SmoConfig {
  std::size_t max_iterations = 200000;
  /// Cooperative stop signal, probed once per outer iteration; when it
  /// fires the solver returns the current feasible iterate within one
  /// working-set update. The default never fires.
  StopCondition stop;
};

/// Solves the dual. `initial_alpha` must be feasible; `p`, `y`, and
/// `upper_bound` (per-variable C) must all have Q.size() entries.
SmoResult SolveSmo(const QMatrix& q, const std::vector<double>& p,
                   const std::vector<std::int8_t>& y,
                   const std::vector<double>& upper_bound,
                   const std::vector<double>& initial_alpha,
                   const SmoConfig& config);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_SMO_SOLVER_H_
