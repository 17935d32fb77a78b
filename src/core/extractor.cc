#include "core/extractor.h"

#include <cmath>
#include <memory>
#include <span>

#include "common/check.h"
#include "svm/svr.h"

namespace ccdb::core {

svm::KernelConfig ResolveKernelForSpace(const svm::KernelConfig& kernel,
                                        const PerceptualSpace& space,
                                        double gamma_scale) {
  svm::KernelConfig resolved = kernel;
  if (resolved.gamma <= 0.0) {
    const double variance = space.CoordinateVariance();
    const double denom =
        static_cast<double>(space.dims()) * (variance > 0.0 ? variance : 1.0);
    resolved.gamma = gamma_scale / denom;
  }
  return resolved;
}

BinaryAttributeExtractor::BinaryAttributeExtractor(
    const ExtractorOptions& options)
    : options_(options) {}

bool BinaryAttributeExtractor::Train(const PerceptualSpace& space,
                                     const std::vector<std::uint32_t>& items,
                                     const std::vector<bool>& labels) {
  CCDB_CHECK_EQ(items.size(), labels.size());
  std::size_t positives = 0;
  for (bool label : labels) positives += label ? 1 : 0;
  if (positives == 0 || positives == labels.size()) {
    model_ = svm::SvmModel();
    return false;
  }

  const Matrix examples = space.GatherRows(items);
  std::vector<std::int8_t> signed_labels(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    signed_labels[i] = labels[i] ? 1 : -1;
  }
  svm::ClassifierOptions classifier_options;
  classifier_options.kernel =
      ResolveKernelForSpace(options_.kernel, space, options_.gamma_scale);
  classifier_options.cost = options_.cost;
  classifier_options.smo = options_.smo;
  if (options_.balance_class_costs) {
    // Up-weight the rare class by the square root of the imbalance: full
    // n_-/n_+ weighting overshoots when a sizable share of the rare
    // class's labels are noise (the Sec. 4.4 setting), √ balances hinge
    // mass without amplifying that noise.
    const double negatives = static_cast<double>(labels.size() - positives);
    const double positive_scale =
        std::sqrt(negatives / static_cast<double>(positives));
    classifier_options.example_cost_scale.assign(labels.size(), 1.0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i]) classifier_options.example_cost_scale[i] = positive_scale;
    }
  }
  model_ = svm::TrainClassifier(examples, signed_labels, classifier_options);
  // A stop that fired before SMO's first step leaves every alpha at zero:
  // no support vector, nothing to predict with.
  return model_.trained();
}

std::vector<bool> BinaryAttributeExtractor::ExtractAll(
    const PerceptualSpace& space) const {
  // The default StopCondition never fires.
  return *ExtractAll(space, StopCondition());
}

std::optional<std::vector<bool>> BinaryAttributeExtractor::ExtractAll(
    const PerceptualSpace& space, const StopCondition& stop) const {
  return Labels(space.item_coords(), space.label_points(), stop);
}

std::optional<std::vector<bool>> BinaryAttributeExtractor::ExtractItems(
    const PerceptualSpace& space, const std::vector<std::uint32_t>& items,
    const StopCondition& stop) const {
  const Matrix rows = space.GatherRows(items);
  return Labels(rows, svm::LabelPoints(rows), stop);
}

std::vector<double> BinaryAttributeExtractor::DecisionValues(
    const PerceptualSpace& space) const {
  std::vector<double> decisions(space.num_items());
  model_.DecisionValuesInto(space.item_coords(), StopCondition(), decisions);
  return decisions;
}

std::optional<std::vector<bool>> BinaryAttributeExtractor::Labels(
    const Matrix& points, const svm::LabelPoints& prepared,
    const StopCondition& stop) const {
  // Each block writes its own bools; std::vector<bool>'s packed bits are
  // not separate memory locations for the parallel blocks.
  const auto flags = std::make_unique<bool[]>(points.rows());
  if (!model_.LabelsInto(points, prepared, stop,
                         std::span(flags.get(), points.rows()))) {
    return std::nullopt;
  }
  return std::vector<bool>(flags.get(), flags.get() + points.rows());
}

NumericAttributeExtractor::NumericAttributeExtractor(
    const ExtractorOptions& options)
    : options_(options) {}

bool NumericAttributeExtractor::Train(const PerceptualSpace& space,
                                      const std::vector<std::uint32_t>& items,
                                      const std::vector<double>& values) {
  CCDB_CHECK_EQ(items.size(), values.size());
  if (items.empty()) {
    model_ = svm::SvmModel();
    return false;
  }
  const Matrix examples = space.GatherRows(items);
  svm::SvrOptions svr_options;
  svr_options.kernel =
      ResolveKernelForSpace(options_.kernel, space, options_.gamma_scale);
  svr_options.cost = options_.cost;
  svr_options.epsilon = options_.epsilon;
  svr_options.smo = options_.smo;
  model_ = svm::TrainSvr(examples, values, svr_options);
  // Every target inside the ε-tube (a one-item sample, say) leaves no
  // support vector: nothing to predict with.
  return model_.trained();
}

std::vector<double> NumericAttributeExtractor::ExtractAll(
    const PerceptualSpace& space) const {
  std::vector<double> values(space.num_items());
  model_.DecisionValuesInto(space.item_coords(), StopCondition(), values);
  return values;
}

}  // namespace ccdb::core
