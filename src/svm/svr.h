#ifndef CCDB_SVM_SVR_H_
#define CCDB_SVM_SVR_H_

#include <vector>

#include "common/matrix.h"
#include "svm/classifier.h"
#include "svm/kernel.h"
#include "svm/smo_solver.h"

namespace ccdb::svm {

/// Training options for ε-Support-Vector-Regression.
struct SvrOptions {
  KernelConfig kernel;
  double cost = 1.0;
  /// Width of the ε-insensitive tube.
  double epsilon = 0.1;
  /// Byte budget of the kernel cache used during training; see
  /// kDefaultKernelCacheBytes.
  std::size_t kernel_cache_bytes = kDefaultKernelCacheBytes;
  SmoConfig smo;
};

/// A trained ε-SVR machine: f(x) = Σ β_s K(sv_s, x) − rho. This is the
/// extractor the paper recommends for *numeric* perceptual attributes
/// (Sec. 3.4: "we suggest to use Support Vector Regression Machines").
class SvrModel {
 public:
  SvrModel() = default;
  SvrModel(Matrix support_vectors, std::vector<double> coefficients,
           double rho, KernelConfig kernel);

  /// Regression estimate f(x) — one norm-trick sweep over the support
  /// vectors.
  double Predict(std::span<const double> x) const;

  /// Predicts every row of `points` — batched and parallelized on the
  /// shared thread pool for large batches; identical results to per-item
  /// Predict().
  std::vector<double> PredictAll(const Matrix& points) const;

  /// Cancellation-aware batch prediction; probes `stop` once per block and
  /// returns false when it fired (out entries beyond the completed blocks
  /// are unspecified).
  bool PredictAllInto(const Matrix& points, const StopCondition& stop,
                      std::span<double> out) const;

  std::size_t num_support_vectors() const { return support_vectors_.rows(); }
  /// β_s per support vector, and the offset rho.
  const std::vector<double>& coefficients() const { return coefficients_; }
  double rho() const { return rho_; }
  bool trained() const { return support_vectors_.rows() > 0; }

 private:
  Matrix support_vectors_;
  std::vector<double> coefficients_;  // β_s = α_s − α*_s
  std::vector<double> sv_sq_norms_;   // ‖sv_s‖² for the norm-trick sweep
  double rho_ = 0.0;
  KernelConfig kernel_;
};

/// Trains ε-SVR on rows of `examples` against real-valued `targets` by
/// mapping the 2n-variable dual onto the generalized SMO solver.
SvrModel TrainSvr(const Matrix& examples, const std::vector<double>& targets,
                  const SvrOptions& options);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_SVR_H_
