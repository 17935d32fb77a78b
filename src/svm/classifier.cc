#include "svm/classifier.h"

#include "common/check.h"
#include "common/vec.h"
#include "svm/kernel_cache.h"

namespace ccdb::svm {
namespace {

// Q matrix for C-SVC: Q_ij = y_i y_j K(x_i, x_j), signed once when it is
// filled and then read in place from a KernelRowCache (kernel_cache.h):
// the whole matrix in one tiled Gram fill when it fits the cache budget,
// else one norm-trick kernel sweep per row in a byte-bounded LRU that
// holds the last returned row while it fills the next. Either way rows i
// and j of an SMO iteration are served together without a copy.
class SvcQMatrix : public QMatrix {
 public:
  SvcQMatrix(const Matrix& examples, const std::vector<std::int8_t>& y,
             const KernelConfig& kernel, std::size_t cache_bytes)
      : examples_(examples), y_(y), kernel_(kernel),
        sq_norms_(examples.rows()),
        cache_(examples.rows(), examples.rows(), cache_bytes,
               [this](std::size_t r, std::span<double> out) {
                 FillRow(r, out);
               },
               [this](std::span<double> out) {
                 EvalKernelGram(kernel_, examples_.Data(), examples_.rows(),
                                examples_.cols(), sq_norms_, y_, out);
               }) {
    RowSquaredNorms(examples_.Data(), examples_.rows(), examples_.cols(),
                    sq_norms_);
  }

  std::size_t size() const override { return examples_.rows(); }

  std::span<const double> Row(std::size_t i) const override {
    return cache_.Row(i);
  }

  /// Q_ii = y_i²·K(x_i, x_i) = 1: the RBF kernel is exactly 1 at zero
  /// distance.
  double Diagonal(std::size_t) const override { return 1.0; }

 private:
  void FillRow(std::size_t r, std::span<double> out) const {
    EvalKernelBatch(kernel_, examples_.Data(), examples_.rows(),
                    examples_.cols(), sq_norms_, examples_.Row(r),
                    sq_norms_[r], out);
    const double y_r = static_cast<double>(y_[r]);
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = y_r * static_cast<double>(y_[t]) * out[t];
    }
  }

  const Matrix& examples_;
  const std::vector<std::int8_t>& y_;
  KernelConfig kernel_;
  std::vector<double> sq_norms_;
  mutable KernelRowCache cache_;
};

}  // namespace

SvmModel::SvmModel(Matrix support_vectors, std::vector<double> coefficients,
                   double rho, KernelConfig kernel)
    : support_vectors_(std::move(support_vectors)),
      coefficients_(std::move(coefficients)),
      sv_sq_norms_(support_vectors_.rows()),
      rho_(rho),
      kernel_(kernel) {
  CCDB_CHECK_EQ(support_vectors_.rows(), coefficients_.size());
  RowSquaredNorms(support_vectors_.Data(), support_vectors_.rows(),
                  support_vectors_.cols(), sv_sq_norms_);
}

bool SvmModel::DecisionValuesInto(const Matrix& points,
                                  const StopCondition& stop,
                                  std::span<double> out) const {
  CCDB_CHECK(trained());
  return EvalKernelExpansion(kernel_, support_vectors_, sv_sq_norms_,
                             coefficients_, rho_, points, stop, out);
}

bool SvmModel::LabelsInto(const Matrix& points, const LabelPoints& prepared,
                          const StopCondition& stop,
                          std::span<bool> out) const {
  CCDB_CHECK(trained());
  return EvalKernelExpansionLabels(kernel_, support_vectors_, sv_sq_norms_,
                                   coefficients_, rho_, points, prepared,
                                   stop, out);
}

SvmModel TrainClassifier(const Matrix& examples,
                         const std::vector<std::int8_t>& labels,
                         const ClassifierOptions& options,
                         TrainDiagnostics* diagnostics) {
  const std::size_t n = examples.rows();
  CCDB_CHECK_EQ(labels.size(), n);
  CCDB_CHECK_GT(n, 0u);
  CCDB_CHECK_GT(options.cost, 0.0);
  std::size_t positives = 0;
  for (std::int8_t label : labels) {
    CCDB_CHECK_MSG(label == 1 || label == -1, "labels must be +1/-1");
    if (label == 1) ++positives;
  }
  CCDB_CHECK_MSG(positives > 0 && positives < n,
                 "need at least one example per class");

  const KernelConfig kernel = ResolveKernel(options.kernel, examples.cols());
  SvcQMatrix q(examples, labels, kernel, options.kernel_cache_bytes);

  std::vector<double> p(n, -1.0);
  std::vector<double> upper_bound(n, options.cost);
  if (!options.example_cost_scale.empty()) {
    CCDB_CHECK_EQ(options.example_cost_scale.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      upper_bound[i] = options.cost * options.example_cost_scale[i];
    }
  }
  std::vector<double> initial_alpha(n, 0.0);
  const SmoResult result =
      SolveSmo(q, p, labels, upper_bound, initial_alpha, options.smo);

  // Keep only support vectors (α > 0) in the model.
  std::vector<std::size_t> sv_indices;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.alpha[i] > 1e-12) sv_indices.push_back(i);
  }
  Matrix support_vectors(sv_indices.size(), examples.cols());
  std::vector<double> coefficients(sv_indices.size());
  for (std::size_t s = 0; s < sv_indices.size(); ++s) {
    const std::size_t i = sv_indices[s];
    auto dst = support_vectors.Row(s);
    const auto src = examples.Row(i);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
    coefficients[s] = result.alpha[i] * static_cast<double>(labels[i]);
  }

  if (diagnostics != nullptr) {
    diagnostics->iterations = result.iterations;
    diagnostics->converged = result.converged;
    diagnostics->alpha = result.alpha;
    diagnostics->rho = result.rho;
  }
  return SvmModel(std::move(support_vectors), std::move(coefficients),
                  result.rho, kernel);
}

}  // namespace ccdb::svm
