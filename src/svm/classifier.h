#ifndef CCDB_SVM_CLASSIFIER_H_
#define CCDB_SVM_CLASSIFIER_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "svm/kernel.h"
#include "svm/smo_solver.h"

namespace ccdb::svm {

/// Default byte budget of the per-solver kernel cache (see
/// svm/kernel_cache.h). The budget also decides how Q is held: when its
/// n²·8 bytes fit (n ≤ 2,048 at 32 MiB) the whole matrix is filled at once
/// in symmetric tiles (EvalKernelGram); beyond that, LRU rows bound memory
/// at O(budget) instead of O(n²).
inline constexpr std::size_t kDefaultKernelCacheBytes = 32u << 20;

/// Training options for the C-SVC classifier.
struct ClassifierOptions {
  KernelConfig kernel;
  /// Soft-margin cost C.
  double cost = 1.0;
  /// Optional per-example multipliers on C (empty = all 1). Used by the
  /// transductive SVM to weight unlabeled examples differently.
  std::vector<double> example_cost_scale;
  /// Byte budget of the kernel cache used during training; see
  /// kDefaultKernelCacheBytes.
  std::size_t kernel_cache_bytes = kDefaultKernelCacheBytes;
  SmoConfig smo;
};

/// A trained kernel machine, f(x) = Σ coef_s K(sv_s, x) − rho: the C-SVC
/// (classify by sign) and the ε-SVR (regression estimate) alike. Value
/// type: copyable, cheap to move.
class SvmModel {
 public:
  SvmModel() = default;
  SvmModel(Matrix support_vectors, std::vector<double> coefficients,
           double rho, KernelConfig kernel);

  /// The one evaluation call: writes f(points_i) into out[i], batched
  /// (EvalKernelExpansion) and parallelized on the shared thread pool for
  /// large batches, probing `stop` once per block. Returns false when the
  /// stop fired — out entries beyond the completed blocks are unspecified.
  /// A one-row batch gives the same bits as that row in any batch.
  bool DecisionValuesInto(const Matrix& points, const StopCondition& stop,
                          std::span<double> out) const;

  /// Writes f(points_i) ≥ 0 into out[i]: the labels DecisionValuesInto's
  /// values give, bit for bit, through the float32 sign filter
  /// (EvalKernelExpansionLabels) at a fraction of the cost. `prepared` is
  /// LabelPoints(points), made once per point set. Same blocks, fan-out
  /// and stop probe; returns false when the stop fired — out entries
  /// beyond the completed blocks are unspecified.
  bool LabelsInto(const Matrix& points, const LabelPoints& prepared,
                  const StopCondition& stop, std::span<bool> out) const;

  std::size_t num_support_vectors() const { return support_vectors_.rows(); }
  /// coef_s per support vector: α_s·y_s for the C-SVC, β_s = α_s − α*_s for
  /// the ε-SVR.
  const std::vector<double>& coefficients() const { return coefficients_; }
  double rho() const { return rho_; }
  bool trained() const { return support_vectors_.rows() > 0; }

 private:
  Matrix support_vectors_;
  std::vector<double> coefficients_;
  std::vector<double> sv_sq_norms_;  // ‖sv_s‖², precomputed for the
                                     // norm-trick RBF sweep
  double rho_ = 0.0;
  KernelConfig kernel_;
};

/// Diagnostic information from the SMO run (for tests and callers that
/// inspect the dual solution).
struct TrainDiagnostics {
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> alpha;  // dual variables, one per training example
  double rho = 0.0;
};

/// Trains a binary C-SVC on rows of `examples` with labels in {+1, −1}.
/// Requires at least one example of each class. This is the classifier the
/// schema-expansion extractor uses for Boolean attributes (paper Sec. 4.2:
/// "Instead of relying on non-linear regression, we can use an SVM
/// classifier … with a Radial Basis Function kernel"). `diagnostics`, when
/// non-null, receives the SMO run's dual solution.
SvmModel TrainClassifier(const Matrix& examples,
                         const std::vector<std::int8_t>& labels,
                         const ClassifierOptions& options,
                         TrainDiagnostics* diagnostics = nullptr);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_CLASSIFIER_H_
