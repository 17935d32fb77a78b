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

/// Trains ε-SVR on rows of `examples` against real-valued `targets` by
/// mapping the 2n-variable dual onto the generalized SMO solver. The model
/// is f(x) = Σ β_s K(sv_s, x) − rho with β_s = α_s − α*_s: the extractor
/// the paper recommends for *numeric* perceptual attributes (Sec. 3.4: "we
/// suggest to use Support Vector Regression Machines"). It evaluates like
/// the C-SVC, through SvmModel::DecisionValuesInto.
SvmModel TrainSvr(const Matrix& examples, const std::vector<double>& targets,
                  const SvrOptions& options);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_SVR_H_
