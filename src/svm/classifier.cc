#include "svm/classifier.h"

#include <cmath>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/vec.h"
#include "svm/kernel_cache.h"

namespace ccdb::svm {
namespace {

// Q matrix for C-SVC: Q_ij = y_i y_j K(x_i, x_j). Each row is one
// norm-trick kernel sweep, signed once when it is filled and then read in
// place from a byte-bounded LRU cache (kernel_cache.h) that holds the
// last returned row while it fills the next, so rows i and j of an SMO
// iteration are served together without a copy.
class SvcQMatrix : public QMatrix {
 public:
  SvcQMatrix(const Matrix& examples, const std::vector<std::int8_t>& y,
             const KernelConfig& kernel, std::size_t cache_bytes)
      : examples_(examples), y_(y), kernel_(kernel),
        sq_norms_(examples.rows()), diagonal_(examples.rows()),
        cache_(examples.rows(), examples.rows(), cache_bytes) {
    RowSquaredNorms(examples_.Data(), examples_.rows(), examples_.cols(),
                    sq_norms_);
    for (std::size_t i = 0; i < examples_.rows(); ++i) {
      diagonal_[i] = EvalKernel(kernel_, examples_.Row(i), examples_.Row(i));
    }
  }

  std::size_t size() const override { return examples_.rows(); }

  std::span<const double> Row(std::size_t i) const override {
    return cache_.Row(i, [this](std::size_t r, std::span<double> out) {
      EvalKernelBatch(kernel_, examples_.Data(), examples_.rows(),
                      examples_.cols(), sq_norms_, examples_.Row(r),
                      sq_norms_[r], out);
      const double y_r = static_cast<double>(y_[r]);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = y_r * static_cast<double>(y_[t]) * out[t];
      }
    });
  }

  double Diagonal(std::size_t i) const override { return diagonal_[i]; }

 private:
  const Matrix& examples_;
  const std::vector<std::int8_t>& y_;
  KernelConfig kernel_;
  std::vector<double> sq_norms_;
  std::vector<double> diagonal_;
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

double SvmModel::DecisionValue(std::span<const double> x) const {
  CCDB_CHECK(trained());
  std::vector<double> kernel_row(support_vectors_.rows());
  EvalKernelBatch(kernel_, support_vectors_.Data(), support_vectors_.rows(),
                  support_vectors_.cols(), sv_sq_norms_, x, SquaredNorm(x),
                  kernel_row);
  return Dot(coefficients_, kernel_row) - rho_;
}

bool SvmModel::Predict(std::span<const double> x) const {
  return DecisionValue(x) >= 0.0;
}

std::vector<bool> SvmModel::PredictAll(const Matrix& points) const {
  const std::vector<double> values = DecisionValues(points);
  std::vector<bool> predictions(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    predictions[i] = values[i] >= 0.0;
  }
  return predictions;
}

std::vector<double> SvmModel::DecisionValues(const Matrix& points) const {
  std::vector<double> values(points.rows());
  const bool completed = DecisionValuesInto(points, StopCondition(), values);
  CCDB_CHECK(completed);  // the default StopCondition never fires
  return values;
}

bool SvmModel::DecisionValuesInto(const Matrix& points,
                                  const StopCondition& stop,
                                  std::span<double> out) const {
  CCDB_CHECK(trained());
  return EvalKernelExpansion(kernel_, support_vectors_, sv_sq_norms_,
                             coefficients_, rho_, points, stop, out);
}

namespace {

constexpr char kSvmMagic[8] = {'C', 'C', 'D', 'B', 'S', 'V', 'M', '1'};

/// Appends `count` raw native-endian values to the serialized buffer
/// (same byte layout the previous fwrite-based writer produced).
template <typename T>
void AppendRaw(std::string& out, const T* values, std::size_t count) {
  out.append(reinterpret_cast<const char*>(values), count * sizeof(T));
}

/// Reads `count` raw values from the buffer at `pos`; false on overrun.
template <typename T>
bool ReadRaw(std::string_view bytes, std::size_t& pos, T* values,
             std::size_t count) {
  const std::size_t want = count * sizeof(T);
  if (bytes.size() - pos < want) return false;
  std::memcpy(values, bytes.data() + pos, want);
  pos += want;
  return true;
}

}  // namespace

Status SvmModel::SaveToFile(const std::string& path, Fs* fs) const {
  const std::uint64_t num_svs = support_vectors_.rows();
  const std::uint64_t dims = support_vectors_.cols();
  const std::int32_t kernel_type = static_cast<std::int32_t>(kernel_.type);
  const std::int32_t degree = kernel_.degree;
  const auto data = support_vectors_.Data();
  std::string bytes;
  bytes.reserve(sizeof(kSvmMagic) + 2 * sizeof(std::uint64_t) +
                2 * sizeof(std::int32_t) + 3 * sizeof(double) +
                sizeof(double) * (data.size() + coefficients_.size()));
  bytes.append(kSvmMagic, sizeof(kSvmMagic));
  AppendRaw(bytes, &num_svs, 1);
  AppendRaw(bytes, &dims, 1);
  AppendRaw(bytes, &kernel_type, 1);
  AppendRaw(bytes, &kernel_.gamma, 1);
  AppendRaw(bytes, &degree, 1);
  AppendRaw(bytes, &kernel_.coef0, 1);
  AppendRaw(bytes, &rho_, 1);
  if (!data.empty()) AppendRaw(bytes, data.data(), data.size());
  if (!coefficients_.empty()) {
    AppendRaw(bytes, coefficients_.data(), coefficients_.size());
  }
  return ResolveFs(fs).WriteFileAtomic(path, bytes);
}

StatusOr<SvmModel> SvmModel::LoadFromFile(const std::string& path, Fs* fs) {
  StatusOr<std::string> bytes_or = ResolveFs(fs).ReadFile(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string_view bytes = bytes_or.value();
  std::size_t pos = 0;
  char magic[8];
  if (!ReadRaw(bytes, pos, magic, sizeof(magic)) ||
      std::memcmp(magic, kSvmMagic, sizeof(kSvmMagic)) != 0) {
    return Status::InvalidArgument("not an SVM model file: " + path);
  }
  std::uint64_t num_svs = 0, dims = 0;
  std::int32_t kernel_type = 0, degree = 0;
  KernelConfig kernel;
  double rho = 0.0;
  if (!ReadRaw(bytes, pos, &num_svs, 1) || !ReadRaw(bytes, pos, &dims, 1) ||
      !ReadRaw(bytes, pos, &kernel_type, 1) ||
      !ReadRaw(bytes, pos, &kernel.gamma, 1) ||
      !ReadRaw(bytes, pos, &degree, 1) ||
      !ReadRaw(bytes, pos, &kernel.coef0, 1) ||
      !ReadRaw(bytes, pos, &rho, 1)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  if (kernel_type < 0 || kernel_type > 2) {
    return Status::InvalidArgument("bad kernel type in " + path);
  }
  if (num_svs != 0 &&
      dims > (bytes.size() - pos) / sizeof(double) / num_svs) {
    return Status::InvalidArgument("implausible SVM model shape in " + path);
  }
  kernel.type = static_cast<KernelType>(kernel_type);
  kernel.degree = degree;
  Matrix support_vectors(num_svs, dims);
  auto data = support_vectors.Data();
  if (!data.empty() && !ReadRaw(bytes, pos, data.data(), data.size())) {
    return Status::InvalidArgument("truncated support vectors in " + path);
  }
  std::vector<double> coefficients(num_svs);
  if (num_svs > 0 &&
      !ReadRaw(bytes, pos, coefficients.data(), coefficients.size())) {
    return Status::InvalidArgument("truncated coefficients in " + path);
  }
  return SvmModel(std::move(support_vectors), std::move(coefficients), rho,
                  kernel);
}

SvmModel TrainClassifier(const Matrix& examples,
                         const std::vector<std::int8_t>& labels,
                         const ClassifierOptions& options) {
  return TrainClassifier(examples, labels, options, nullptr);
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
