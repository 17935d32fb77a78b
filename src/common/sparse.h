#ifndef CCDB_COMMON_SPARSE_H_
#define CCDB_COMMON_SPARSE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ccdb {

class Rng;

/// One user→item rating observation ⟨item_id, user_id, score⟩ (paper
/// Sec. 3.3). Scores are real-valued; integral star scales are stored as
/// doubles.
struct Rating {
  std::uint32_t item = 0;
  std::uint32_t user = 0;
  float score = 0.0f;
  /// Day the rating was given (0 when the dataset has no timeline).
  /// Supports the Sec. 5 "changing taste over time" model extension.
  float day = 0.0f;
};

/// Immutable collection of ratings with per-item and per-user rating
/// counts and score sums. This is the substrate the factorization trainer
/// consumes; it also answers per-item / per-user statistics (counts,
/// means) needed for bias initialization and popularity analysis.
class RatingDataset {
 public:
  /// Builds the dataset and its statistics. `num_items` / `num_users` must
  /// exceed every id appearing in `ratings`.
  RatingDataset(std::size_t num_items, std::size_t num_users,
                std::vector<Rating> ratings);

  std::size_t num_items() const { return num_items_; }
  std::size_t num_users() const { return num_users_; }
  std::size_t num_ratings() const { return ratings_.size(); }

  /// All ratings in insertion order (the SGD trainer shuffles an index
  /// permutation, not this storage).
  std::span<const Rating> ratings() const { return ratings_; }

  /// Global mean score μ; 0 for an empty dataset.
  double GlobalMean() const { return global_mean_; }

  /// Mean score of an item, falling back to μ when unrated. The scores are
  /// summed in storage order.
  double ItemMean(std::uint32_t item) const;

  /// Mean score of a user, falling back to μ when they rated nothing. The
  /// scores are summed in storage order.
  double UserMean(std::uint32_t user) const;

  /// Number of ratings on an item.
  std::size_t ItemCount(std::uint32_t item) const;

  /// Number of ratings by a user.
  std::size_t UserCount(std::uint32_t user) const;

  /// Fraction of the nM·nU rating matrix that is observed.
  double Density() const;

 private:
  std::size_t num_items_;
  std::size_t num_users_;
  std::vector<Rating> ratings_;
  double global_mean_ = 0.0;

  std::vector<std::size_t> item_counts_;  // size num_items_
  std::vector<double> item_sums_;         // size num_items_
  std::vector<std::size_t> user_counts_;  // size num_users_
  std::vector<double> user_sums_;         // size num_users_
};

/// Deterministically splits rating indices into train/holdout index lists
/// with the given holdout fraction (the SGD trainer's validation split for
/// early stopping).
struct TrainHoldoutSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> holdout;
};
TrainHoldoutSplit SplitRatings(std::size_t num_ratings,
                               double holdout_fraction, Rng& rng);

}  // namespace ccdb

#endif  // CCDB_COMMON_SPARSE_H_
