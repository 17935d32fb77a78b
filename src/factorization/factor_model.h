#ifndef CCDB_FACTORIZATION_FACTOR_MODEL_H_
#define CCDB_FACTORIZATION_FACTOR_MODEL_H_

#include <cstdint>
#include <memory>

#include "common/matrix.h"
#include "common/sparse.h"

namespace ccdb::factorization {

/// Which latent-factor model to fit (paper Sec. 3.3).
enum class ModelKind {
  /// Classic SVD-style model: r̂ = μ + δ_m + δ_u + a_m · b_u. The paper
  /// discusses it as the standard collaborative-filtering baseline whose
  /// dot-product geometry lacks a meaningful item-item distance.
  kSvdDotProduct,
  /// The paper's model (modified Euclidean Embedding, after Khoshneshin &
  /// Street): r̂ = μ + δ_m + δ_u − ‖a_m − b_u‖², regularized by
  /// λ·(‖a_m − b_u‖⁴ + δ_m² + δ_u²).
  kEuclideanEmbedding,
};

/// Hyper-parameters shared by both models. The paper reports d = 100 and
/// λ = 0.02 as robust choices across data sets.
struct FactorModelConfig {
  ModelKind kind = ModelKind::kEuclideanEmbedding;
  std::size_t dims = 100;
  double lambda = 0.02;
  /// Scale of the Gaussian used to initialize latent coordinates.
  double init_scale = 0.1;
  /// Temporal extension (the Sec. 5 "changing taste over time" remark,
  /// after Koren's time-aware models): when > 1, each item additionally
  /// carries one bias per time bin, trained from the ratings' day stamps.
  /// 1 = the paper's static model.
  std::size_t time_bins = 1;
  /// Length of the rating timeline in days (bins partition [0, timeline]).
  double timeline_days = 2000.0;
  std::uint64_t seed = 1;
};

/// A trained (or in-training) latent-factor model over a rating dataset:
/// item coordinates A ∈ R^{nM×d}, user coordinates B ∈ R^{nU×d}, item and
/// user biases δ, and the global mean μ.
///
/// The class exposes Predict() and the raw factors; the SGD update rule is
/// model-kind specific and implemented in SgdStep(). Thread-compatible:
/// concurrent reads are safe, updates are not synchronized.
class FactorModel {
 public:
  /// Initializes factors with small Gaussian noise and biases with the
  /// dataset's item/user mean deviations (warm start for SGD).
  FactorModel(const FactorModelConfig& config, const RatingDataset& data);

  const FactorModelConfig& config() const { return config_; }
  std::size_t num_items() const { return item_factors_.rows(); }
  std::size_t num_users() const { return user_factors_.rows(); }
  std::size_t dims() const { return config_.dims; }
  double global_mean() const { return global_mean_; }

  /// Item coordinate matrix A (row m = coordinates of item m). This is the
  /// perceptual-space geometry consumed by core::PerceptualSpace.
  const Matrix& item_factors() const { return item_factors_; }
  const Matrix& user_factors() const { return user_factors_; }
  const std::vector<double>& item_bias() const { return item_bias_; }
  const std::vector<double>& user_bias() const { return user_bias_; }

  /// Per-bin item biases of the temporal extension (empty 0x0 matrix when
  /// time_bins == 1). Exposed so trainer checkpoints can snapshot and
  /// restore the full trainable state.
  const Matrix& item_time_bias() const { return item_time_bias_; }

  /// Mutable access for checkpoint restore.
  Matrix& mutable_item_factors() { return item_factors_; }
  Matrix& mutable_user_factors() { return user_factors_; }
  std::vector<double>& mutable_item_bias() { return item_bias_; }
  std::vector<double>& mutable_user_bias() { return user_bias_; }
  Matrix& mutable_item_time_bias() { return item_time_bias_; }

  /// Model prediction r̂(item, user) — static part only (temporal bin
  /// biases average to ~0 and are omitted; this is what the perceptual
  /// space is built from).
  double Predict(std::uint32_t item, std::uint32_t user) const;

  /// Time-aware prediction r̂(item, user, day): adds the item's bias for
  /// the day's time bin (equals Predict() when time_bins == 1).
  double PredictAt(std::uint32_t item, std::uint32_t user, double day) const;

  /// Performs one stochastic gradient step on a single rating with the
  /// given learning rate, using the model-kind specific gradient.
  void SgdStep(const Rating& rating, double learning_rate);

  /// One SGD pass: SgdStep on the ratings of `data` at `order[0]`,
  /// `order[1]`, … in turn. Each step reads rows at random places, so the
  /// pass fetches ahead what later steps read; the steps and their
  /// arithmetic are the plain loop's, bit for bit.
  void SgdEpoch(const RatingDataset& data, std::span<const std::size_t> order,
                double learning_rate);

  /// RMSE of the model over the given rating indices of `data`, summed in
  /// index order.
  double EvaluateRmse(const RatingDataset& data,
                      std::span<const std::size_t> indices) const;

  /// RMSE over all ratings of `data`, summed in storage order.
  double EvaluateRmse(const RatingDataset& data) const;

 private:
  void SvdStep(const Rating& rating, double lr);
  void EuclideanStep(const Rating& rating, double lr);

  std::size_t BinOf(double day) const;

  FactorModelConfig config_;
  double global_mean_;
  Matrix item_factors_;
  Matrix user_factors_;
  std::vector<double> item_bias_;
  std::vector<double> user_bias_;
  Matrix item_time_bias_;  // items × time_bins; empty when time_bins == 1
};

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_FACTOR_MODEL_H_
