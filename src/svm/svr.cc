#include "svm/svr.h"

#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/vec.h"
#include "svm/kernel_cache.h"

namespace ccdb::svm {
namespace {

// Q matrix for the 2n-variable ε-SVR dual: with λ = (α, α*) and block
// signs ŷ = (+1…, −1…), Q_st = ŷ_s ŷ_t K(s mod n, t mod n). The raw n×n
// kernel matrix lives in a KernelRowCache of n slots (kernel_cache.h):
// whole, in one tiled Gram fill, when it fits the cache budget, else one
// norm-trick sweep per row in a byte-bounded LRU. Row(s) expands one raw
// row into a signed 2n-length row in whichever of two owned buffers it
// did not write last, so the two rows of an SMO iteration stay valid
// together.
class SvrQMatrix : public QMatrix {
 public:
  SvrQMatrix(const Matrix& examples, const KernelConfig& kernel,
             std::size_t cache_bytes)
      : examples_(examples), kernel_(kernel),
        sq_norms_(examples.rows()),
        cache_(examples.rows(), examples.rows(), cache_bytes,
               [this](std::size_t r, std::span<double> out) {
                 EvalKernelBatch(kernel_, examples_.Data(), examples_.rows(),
                                 examples_.cols(), sq_norms_,
                                 examples_.Row(r), sq_norms_[r], out);
               },
               [this](std::span<double> out) {
                 EvalKernelGram(kernel_, examples_.Data(), examples_.rows(),
                                examples_.cols(), sq_norms_, {}, out);
               }),
        rows_{std::vector<double>(2 * examples.rows()),
              std::vector<double>(2 * examples.rows())} {
    RowSquaredNorms(examples_.Data(), examples_.rows(), examples_.cols(),
                    sq_norms_);
  }

  std::size_t size() const override { return 2 * examples_.rows(); }

  std::span<const double> Row(std::size_t s) const override {
    const std::size_t n = examples_.rows();
    const double sign_s = s < n ? 1.0 : -1.0;
    const std::span<const double> kernel_row = cache_.Row(s % n);
    std::vector<double>& row = rows_[next_row_];
    next_row_ ^= 1;
    for (std::size_t t = 0; t < n; ++t) {
      row[t] = sign_s * kernel_row[t];
      row[t + n] = -sign_s * kernel_row[t];
    }
    return row;
  }

  /// Q_ss = ŷ_s²·K(x, x) = 1: the RBF kernel is exactly 1 at zero distance.
  double Diagonal(std::size_t) const override { return 1.0; }

 private:
  const Matrix& examples_;
  KernelConfig kernel_;
  std::vector<double> sq_norms_;
  mutable KernelRowCache cache_;
  mutable std::vector<double> rows_[2];
  mutable std::size_t next_row_ = 0;
};

}  // namespace

SvmModel TrainSvr(const Matrix& examples, const std::vector<double>& targets,
                  const SvrOptions& options) {
  const std::size_t n = examples.rows();
  CCDB_CHECK_EQ(targets.size(), n);
  CCDB_CHECK_GT(n, 0u);
  CCDB_CHECK_GT(options.cost, 0.0);
  CCDB_CHECK_GE(options.epsilon, 0.0);

  const KernelConfig kernel = ResolveKernel(options.kernel, examples.cols());
  SvrQMatrix q(examples, kernel, options.kernel_cache_bytes);

  std::vector<double> p(2 * n);
  std::vector<std::int8_t> y(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = options.epsilon - targets[i];
    p[i + n] = options.epsilon + targets[i];
    y[i] = 1;
    y[i + n] = -1;
  }
  std::vector<double> upper_bound(2 * n, options.cost);
  std::vector<double> initial_alpha(2 * n, 0.0);
  const SmoResult result =
      SolveSmo(q, p, y, upper_bound, initial_alpha, options.smo);

  // β_i = α_i − α*_i; keep nonzero βs as support vectors.
  std::vector<std::size_t> sv_indices;
  std::vector<double> betas;
  for (std::size_t i = 0; i < n; ++i) {
    const double beta = result.alpha[i] - result.alpha[i + n];
    if (std::abs(beta) > 1e-12) {
      sv_indices.push_back(i);
      betas.push_back(beta);
    }
  }
  Matrix support_vectors(sv_indices.size(), examples.cols());
  for (std::size_t s = 0; s < sv_indices.size(); ++s) {
    auto dst = support_vectors.Row(s);
    const auto src = examples.Row(sv_indices[s]);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return SvmModel(std::move(support_vectors), std::move(betas), result.rho,
                  kernel);
}

}  // namespace ccdb::svm
