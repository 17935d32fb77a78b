#include "factorization/factor_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/rng.h"
#include "common/vec.h"

namespace ccdb::factorization {
namespace {

// Gradient steps are clipped so a single outlier rating cannot blow up the
// embedding early in training (the d⁴ regularizer is quartic, so runaway
// distances feed back into ever larger gradients otherwise).
constexpr double kMaxStep = 1.0;

double Clip(double v, double limit) {
  return std::max(-limit, std::min(limit, v));
}

// The rating loops (an SGD pass, an RMSE sum) wait on memory, not on
// arithmetic: each rating names an item row, a user row and two biases at
// random places in arrays far larger than the caches. So while a loop
// handles the rating at position i, it starts fetching the parameters of
// the rating at i + kLookAhead, and that rating itself at
// i + 2 * kLookAhead, so its ids are in cache when its rows are asked for.
// 8 ran fastest on a 100K-item, d = 32 world, 4 and 12 close behind, 16
// to 64 slower (DESIGN.md §9, "Rating loops").
constexpr std::size_t kLookAhead = 8;

constexpr std::size_t kCacheLineBytes = 64;

// Starts fetching every cache line of the non-empty `values`: one byte in
// each line-sized step, then the last byte, for the line a row that does
// not start on a line boundary spills into. Always inlined: GCC 12 takes a
// function that only prefetches for one without effects and deletes the
// calls to it.
[[gnu::always_inline]] inline void PrefetchLines(
    std::span<const double> values) {
  const char* bytes = reinterpret_cast<const char*>(values.data());
  for (std::size_t offset = 0; offset < values.size_bytes();
       offset += kCacheLineBytes) {
    __builtin_prefetch(bytes + offset);
  }
  __builtin_prefetch(bytes + values.size_bytes() - 1);
}

// Starts fetching every cache line a step on `rating` reads.
void PrefetchParameters(const FactorModel& model, const Rating& rating) {
  PrefetchLines(model.item_factors().Row(rating.item));
  PrefetchLines(model.user_factors().Row(rating.user));
  __builtin_prefetch(&model.item_bias()[rating.item]);
  __builtin_prefetch(&model.user_bias()[rating.user]);
  if (model.config().time_bins > 1) {
    PrefetchLines(model.item_time_bias().Row(rating.item));
  }
}

// Calls `visit` on ratings[at(0)], ..., ratings[at(n - 1)] in that order,
// fetching ahead for each the parameters of `model` it reads.
template <typename At, typename Visit>
void WalkRatings(const FactorModel& model, std::span<const Rating> ratings,
                 std::size_t n, At at, Visit visit) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kLookAhead < n) {
      __builtin_prefetch(&ratings[at(i + 2 * kLookAhead)]);
    }
    if (i + kLookAhead < n) {
      PrefetchParameters(model, ratings[at(i + kLookAhead)]);
    }
    visit(ratings[at(i)]);
  }
}

// RMSE of `model` over ratings[at(0)], ..., ratings[at(n - 1)], summed in
// that order.
template <typename At>
double Rmse(const FactorModel& model, std::span<const Rating> ratings,
            std::size_t n, At at) {
  if (n == 0) return 0.0;
  double acc = 0.0;
  WalkRatings(model, ratings, n, at, [&model, &acc](const Rating& r) {
    const double diff = r.score - model.PredictAt(r.item, r.user, r.day);
    acc += diff * diff;
  });
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace

FactorModel::FactorModel(const FactorModelConfig& config,
                         const RatingDataset& data)
    : config_(config),
      global_mean_(data.GlobalMean()),
      item_factors_(data.num_items(), config.dims),
      user_factors_(data.num_users(), config.dims),
      item_bias_(data.num_items(), 0.0),
      user_bias_(data.num_users(), 0.0) {
  CCDB_CHECK_GT(config.dims, 0u);
  CCDB_CHECK_GE(config.lambda, 0.0);
  CCDB_CHECK_GT(config.time_bins, 0u);
  if (config.time_bins > 1) {
    CCDB_CHECK_GT(config.timeline_days, 0.0);
    item_time_bias_ = Matrix(data.num_items(), config.time_bins);
  }
  Rng rng(config.seed);
  const double scale = config.init_scale / std::sqrt(
      static_cast<double>(config.dims));
  item_factors_.FillGaussian(rng, 0.0, scale);
  user_factors_.FillGaussian(rng, 0.0, scale);
  // Warm-start biases at the observed mean deviations; SGD refines them.
  for (std::size_t m = 0; m < data.num_items(); ++m) {
    item_bias_[m] = data.ItemMean(static_cast<std::uint32_t>(m)) -
                    global_mean_;
  }
  for (std::size_t u = 0; u < data.num_users(); ++u) {
    user_bias_[u] = data.UserMean(static_cast<std::uint32_t>(u)) -
                    global_mean_;
  }
}

std::size_t FactorModel::BinOf(double day) const {
  if (config_.time_bins <= 1) return 0;
  const double phase = day / config_.timeline_days;
  const auto bin = static_cast<std::ptrdiff_t>(
      phase * static_cast<double>(config_.time_bins));
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(config_.time_bins) - 1));
}

double FactorModel::PredictAt(std::uint32_t item, std::uint32_t user,
                              double day) const {
  double prediction = Predict(item, user);
  if (config_.time_bins > 1) {
    prediction += item_time_bias_(item, BinOf(day));
  }
  return prediction;
}

double FactorModel::Predict(std::uint32_t item, std::uint32_t user) const {
  const auto a = item_factors_.Row(item);
  const auto b = user_factors_.Row(user);
  const double bias_part = global_mean_ + item_bias_[item] + user_bias_[user];
  switch (config_.kind) {
    case ModelKind::kSvdDotProduct:
      return bias_part + Dot(a, b);
    case ModelKind::kEuclideanEmbedding:
      return bias_part - SquaredDistance(a, b);
  }
  return bias_part;
}

void FactorModel::SgdStep(const Rating& rating, double learning_rate) {
  switch (config_.kind) {
    case ModelKind::kSvdDotProduct:
      SvdStep(rating, learning_rate);
      return;
    case ModelKind::kEuclideanEmbedding:
      EuclideanStep(rating, learning_rate);
      return;
  }
}

void FactorModel::SvdStep(const Rating& rating, double lr) {
  const std::uint32_t m = rating.item;
  const std::uint32_t u = rating.user;
  auto a = item_factors_.Row(m);
  auto b = user_factors_.Row(u);
  const double error = rating.score - PredictAt(m, u, rating.day);
  const double lambda = config_.lambda;
  if (config_.time_bins > 1) {
    double& bin_bias = item_time_bias_(m, BinOf(rating.day));
    bin_bias += lr * (error - lambda * bin_bias);
  }
  item_bias_[m] += lr * Clip(error - lambda * item_bias_[m], kMaxStep / lr);
  user_bias_[u] += lr * Clip(error - lambda * user_bias_[u], kMaxStep / lr);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double ak = a[k];
    a[k] += lr * (error * b[k] - lambda * ak);
    b[k] += lr * (error * ak - lambda * b[k]);
  }
}

void FactorModel::EuclideanStep(const Rating& rating, double lr) {
  const std::uint32_t m = rating.item;
  const std::uint32_t u = rating.user;
  auto a = item_factors_.Row(m);
  auto b = user_factors_.Row(u);
  const double dist_sq = SquaredDistance(a, b);
  double prediction =
      global_mean_ + item_bias_[m] + user_bias_[u] - dist_sq;
  if (config_.time_bins > 1) {
    prediction += item_time_bias_(m, BinOf(rating.day));
  }
  const double error = rating.score - prediction;
  const double lambda = config_.lambda;
  if (config_.time_bins > 1) {
    double& bin_bias = item_time_bias_(m, BinOf(rating.day));
    bin_bias += lr * (error - lambda * bin_bias);
  }

  // ∂L/∂δ = −2e + 2λδ  (factor 2 absorbed into lr, as is conventional).
  item_bias_[m] += lr * (error - lambda * item_bias_[m]);
  user_bias_[u] += lr * (error - lambda * user_bias_[u]);

  // ∂L/∂a = 4(a−b)(e + λ‖a−b‖²); relative to the bias step this keeps the
  // true 2:1 gradient ratio after absorbing the common factor 2.
  const double coeff = Clip(2.0 * (error + lambda * dist_sq), kMaxStep / lr);
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double diff = a[k] - b[k];
    a[k] -= lr * coeff * diff;
    b[k] += lr * coeff * diff;
  }
}

void FactorModel::SgdEpoch(const RatingDataset& data,
                           std::span<const std::size_t> order,
                           double learning_rate) {
  WalkRatings(*this, data.ratings(), order.size(),
              [order](std::size_t i) { return order[i]; },
              [this, learning_rate](const Rating& r) {
                SgdStep(r, learning_rate);
              });
}

double FactorModel::EvaluateRmse(const RatingDataset& data,
                                 std::span<const std::size_t> indices) const {
  return Rmse(*this, data.ratings(), indices.size(),
              [indices](std::size_t i) { return indices[i]; });
}

double FactorModel::EvaluateRmse(const RatingDataset& data) const {
  return Rmse(*this, data.ratings(), data.num_ratings(),
              [](std::size_t i) { return i; });
}

}  // namespace ccdb::factorization
