#include "common/sparse.h"

#include "common/check.h"
#include "common/rng.h"

namespace ccdb {

RatingDataset::RatingDataset(std::size_t num_items, std::size_t num_users,
                             std::vector<Rating> ratings)
    : num_items_(num_items),
      num_users_(num_users),
      ratings_(std::move(ratings)),
      item_counts_(num_items, 0),
      item_sums_(num_items, 0.0),
      user_counts_(num_users, 0),
      user_sums_(num_users, 0.0) {
  double total = 0.0;
  for (const Rating& r : ratings_) {
    CCDB_CHECK_LT(r.item, num_items_);
    CCDB_CHECK_LT(r.user, num_users_);
    total += r.score;
    ++item_counts_[r.item];
    item_sums_[r.item] += r.score;
    ++user_counts_[r.user];
    user_sums_[r.user] += r.score;
  }
  global_mean_ =
      ratings_.empty() ? 0.0 : total / static_cast<double>(ratings_.size());
}

double RatingDataset::ItemMean(std::uint32_t item) const {
  const std::size_t count = ItemCount(item);
  if (count == 0) return global_mean_;
  return item_sums_[item] / static_cast<double>(count);
}

double RatingDataset::UserMean(std::uint32_t user) const {
  const std::size_t count = UserCount(user);
  if (count == 0) return global_mean_;
  return user_sums_[user] / static_cast<double>(count);
}

std::size_t RatingDataset::ItemCount(std::uint32_t item) const {
  CCDB_CHECK_LT(item, num_items_);
  return item_counts_[item];
}

std::size_t RatingDataset::UserCount(std::uint32_t user) const {
  CCDB_CHECK_LT(user, num_users_);
  return user_counts_[user];
}

double RatingDataset::Density() const {
  if (num_items_ == 0 || num_users_ == 0) return 0.0;
  return static_cast<double>(ratings_.size()) /
         (static_cast<double>(num_items_) * static_cast<double>(num_users_));
}

TrainHoldoutSplit SplitRatings(std::size_t num_ratings,
                               double holdout_fraction, Rng& rng) {
  CCDB_CHECK_GE(holdout_fraction, 0.0);
  CCDB_CHECK_LT(holdout_fraction, 1.0);
  TrainHoldoutSplit split;
  for (std::size_t i = 0; i < num_ratings; ++i) {
    if (rng.Bernoulli(holdout_fraction)) {
      split.holdout.push_back(i);
    } else {
      split.train.push_back(i);
    }
  }
  return split;
}

}  // namespace ccdb
