#ifndef CCDB_DATA_SYNTHETIC_WORLD_H_
#define CCDB_DATA_SYNTHETIC_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/sparse.h"

namespace ccdb::data {

/// Specification of one perceptual (or factual) category attached to the
/// world's items — the ground truth behind attributes like `is_comedy`.
struct GenreSpec {
  std::string name;
  /// Fraction of items carrying the label (e.g. 0.301 for Comedy, matching
  /// the paper's reference data).
  double prevalence = 0.3;
  /// Standard deviation of the noise added to the latent genre score
  /// before thresholding. Higher noise = weaker coupling between the
  /// latent geometry and the label = lower achievable g-mean (models how
  /// fuzzy a concept is: "Drama" is fuzzier than "Documentary").
  double label_noise = 0.5;
  /// Factual categories (e.g. "Modular Board") are independent of the
  /// latent perception space — they cannot be inferred from ratings, which
  /// is exactly the paper's point about purely factual information.
  bool factual = false;
};

/// Generative parameters of a synthetic rating world. The world follows
/// the paper's own modeling assumption (Sec. 3.2): every user and item is
/// a point in a latent trait space, and a user's rating of an item is
/// anti-proportional to their distance plus bias terms and noise.
struct WorldConfig {
  std::size_t num_items = 2000;
  std::size_t num_users = 5000;
  /// Dimensionality of the *true* latent trait space (unknown to the
  /// learner, which fits a higher-dimensional embedding from ratings).
  std::size_t latent_dims = 12;
  /// Items are drawn from a mixture of clusters ("franchises"/styles) so
  /// nearest-neighbor lists are interpretable (Table 2).
  std::size_t num_clusters = 40;

  /// Rating scale and distribution parameters.
  double rating_min = 1.0;
  double rating_max = 5.0;
  double global_mean = 3.6;
  double item_bias_stddev = 0.45;
  double user_bias_stddev = 0.35;
  /// Weight of the squared trait distance in the generated rating.
  double distance_weight = 0.6;
  /// Observation noise on each rating before clamping and rounding to
  /// integer stars.
  double rating_noise_stddev = 0.7;

  /// Expected ratings per user (log-normal spread across users).
  double mean_ratings_per_user = 100.0;

  /// Timeline length for rating timestamps (days).
  double timeline_days = 2000.0;
  /// Scale of per-item bias drift over the timeline (0 = static world).
  /// Nonzero drift models trends: some items age badly, others become
  /// cult favorites — the Sec. 5 "changing taste over time" scenario.
  double item_drift_stddev = 0.0;

  /// Ground-truth categories.
  std::vector<GenreSpec> genres;

  std::uint64_t seed = 42;
};

/// A fully materialized synthetic world: latent traits, biases, names,
/// cluster memberships, and ground-truth genre labels. Rating datasets are
/// sampled from it on demand. Immutable after construction.
class SyntheticWorld {
 public:
  explicit SyntheticWorld(const WorldConfig& config);

  const WorldConfig& config() const { return config_; }
  std::size_t num_items() const { return config_.num_items; }
  std::size_t num_users() const { return config_.num_users; }
  std::size_t num_genres() const { return config_.genres.size(); }

  /// True latent item traits (items × latent_dims). Tests may peek; the
  /// learning pipeline must not.
  const Matrix& item_traits() const { return item_traits_; }
  const Matrix& user_traits() const { return user_traits_; }

  /// Cluster id of an item (0 .. num_clusters-1).
  std::size_t ClusterOf(std::uint32_t item) const {
    return item_clusters_[item];
  }

  /// Human-readable synthetic name, themed by cluster, e.g.
  /// "Underdog Boxing Tale III (1987)".
  const std::string& ItemName(std::uint32_t item) const {
    return item_names_[item];
  }

  /// Ground-truth label of `item` for genre `g`.
  bool GenreLabel(std::size_t g, std::uint32_t item) const {
    return genre_labels_[g][item];
  }

  /// All ground-truth labels of one genre (size num_items).
  const std::vector<bool>& GenreLabels(std::size_t g) const {
    return genre_labels_[g];
  }

  /// Per-item label bitsets (item-major), for neighbor-coherence metrics.
  std::vector<std::vector<bool>> ItemLabelSets() const;

  /// The expected (noise-free) rating of user u for item m under the
  /// generative model: μ + δ_m + δ_u − w·‖t_m − t_u‖².
  double ExpectedRating(std::uint32_t item, std::uint32_t user) const;

  /// Time-dependent expected rating: ExpectedRating plus the item's bias
  /// drift at the given day.
  double ExpectedRatingAt(std::uint32_t item, std::uint32_t user,
                          double day) const;

  /// Samples a sparse rating dataset: per-user rating counts are
  /// log-normal around mean_ratings_per_user, items are chosen with
  /// Zipf-like popularity weights, scores follow ExpectedRating plus
  /// Gaussian noise, clamped to the scale and rounded to integer stars (as
  /// on real sites).
  /// Each (user, item) pair is rated at most once.
  RatingDataset SampleRatings(std::uint64_t seed_offset = 0) const;

 private:
  void BuildTraits();
  void BuildGenres();
  void BuildNames();

  WorldConfig config_;
  Matrix cluster_centers_;
  std::vector<std::size_t> item_clusters_;
  Matrix item_traits_;
  Matrix user_traits_;
  std::vector<double> item_bias_;
  std::vector<double> user_bias_;
  std::vector<double> item_popularity_;
  std::vector<double> item_drift_;  // per-item bias drift per timeline
  std::vector<std::vector<bool>> genre_labels_;  // [genre][item]
  std::vector<std::string> item_names_;
};

}  // namespace ccdb::data

#endif  // CCDB_DATA_SYNTHETIC_WORLD_H_
