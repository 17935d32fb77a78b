#ifndef CCDB_CORE_EXTRACTOR_H_
#define CCDB_CORE_EXTRACTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "core/perceptual_space.h"
#include "svm/classifier.h"

namespace ccdb::core {

/// Options shared by the attribute extractors (Sec. 3.4 / 4.2): an RBF
/// SVM whose kernel width auto-scales to the space geometry.
struct ExtractorOptions {
  svm::KernelConfig kernel;  // gamma <= 0 → 1 / (dims · coordinate variance)
  /// Multiplier applied to the auto-resolved gamma (ignored when gamma is
  /// set explicitly). < 1 widens the RBF kernel, smoothing the decision
  /// surface — the quality checker relies on this to avoid fitting label
  /// noise.
  double gamma_scale = 1.0;
  double cost = 10.0;
  /// Scale each class's soft-margin cost by the inverse class frequency
  /// (LIBSVM's -w). Essential when training on imbalanced noisy labels
  /// (the Sec. 4.4 quality checker), harmless on balanced gold samples.
  bool balance_class_costs = false;
  /// ε-tube width for the numeric (SVR) extractor.
  double epsilon = 0.1;
  svm::SmoConfig smo;
};

/// Resolves an auto gamma against a space: γ = 1 / (d · Var), the "scale"
/// heuristic, so RBF widths track the embedding's natural length scale.
svm::KernelConfig ResolveKernelForSpace(const svm::KernelConfig& kernel,
                                        const PerceptualSpace& space,
                                        double gamma_scale = 1.0);

/// Extracts a *Boolean* perceptual attribute (e.g. `is_comedy`) from a
/// perceptual space, given a small gold sample of item ids and labels.
/// This is the classifier variant the paper uses throughout Sec. 4.
class BinaryAttributeExtractor {
 public:
  explicit BinaryAttributeExtractor(const ExtractorOptions& options = {});

  /// Trains on the gold sample. Requires at least one positive and one
  /// negative label; returns false (untrained) otherwise, and also when
  /// `smo.stop` fired before the solver kept any support vector.
  bool Train(const PerceptualSpace& space,
             const std::vector<std::uint32_t>& items,
             const std::vector<bool>& labels);

  bool trained() const { return model_.trained(); }

  /// Predicted labels for every item in the space — the schema-expansion
  /// fill step ("classify all two million movies without additional user
  /// interaction"). Batched: one support-vector sweep per item,
  /// parallelized on the shared thread pool for large spaces.
  std::vector<bool> ExtractAll(const PerceptualSpace& space) const;

  /// Cancellation-aware whole-database extraction: probes `stop` once per
  /// block of items and returns nullopt when it fired mid-sweep.
  std::optional<std::vector<bool>> ExtractAll(const PerceptualSpace& space,
                                              const StopCondition& stop)
      const;

  /// Batched predictions for a subset of items (cancellation-aware);
  /// returns nullopt when `stop` fired mid-sweep.
  std::optional<std::vector<bool>> ExtractItems(
      const PerceptualSpace& space, const std::vector<std::uint32_t>& items,
      const StopCondition& stop = {}) const;

  /// Signed decision values for every item (used by ranking queries).
  std::vector<double> DecisionValues(const PerceptualSpace& space) const;

  const svm::SvmModel& model() const { return model_; }

 private:
  /// The three label calls' one path: f(x) ≥ 0 for every row of `points`
  /// (prepared as `prepared`) through the sign-filtered sweep
  /// (SvmModel::LabelsInto), or nullopt when `stop` fired mid-sweep.
  std::optional<std::vector<bool>> Labels(const Matrix& points,
                                          const svm::LabelPoints& prepared,
                                          const StopCondition& stop) const;

  ExtractorOptions options_;
  svm::SvmModel model_;
};

/// Extracts a *numeric* perceptual attribute (e.g. `humor` on a 0–10
/// scale) via ε-SVR, per the paper's Sec. 3.4 recommendation.
class NumericAttributeExtractor {
 public:
  explicit NumericAttributeExtractor(const ExtractorOptions& options = {});

  /// Trains on gold numeric judgments. Returns false (untrained) for an
  /// empty sample, and when the ε-SVR keeps no support vector because
  /// every target lies inside the ε-tube (a one-item sample, for one).
  bool Train(const PerceptualSpace& space,
             const std::vector<std::uint32_t>& items,
             const std::vector<double>& values);

  bool trained() const { return model_.trained(); }

  /// Estimates for every item in the space (batched, as for the Boolean
  /// extractor).
  std::vector<double> ExtractAll(const PerceptualSpace& space) const;

 private:
  ExtractorOptions options_;
  svm::SvmModel model_;
};

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXTRACTOR_H_
