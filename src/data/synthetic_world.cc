#include "data/synthetic_world.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "common/vec.h"

namespace ccdb::data {
namespace {

// Cluster theme vocabulary for synthetic item names (Table 2 needs
// human-readable, perceptually grouped neighbor lists).
constexpr const char* kThemes[] = {
    "Underdog Boxing",   "Haunted Manor",     "Desert Heist",
    "Space Colony",      "Ballroom Romance",  "Courtroom Duel",
    "Mountain Rescue",   "Jazz Club",         "Samurai Honor",
    "Pirate Cove",       "Suburban Secrets",  "Arctic Expedition",
    "Noir Alley",        "Royal Intrigue",    "Robot Uprising",
    "Summer Camp",       "Vampire Waltz",     "Train Chase",
    "Deep Sea",          "Circus Nights",     "Chess Prodigy",
    "Highway Patrol",    "Monastery Mystery", "Casino Run",
    "Garden Wedding",    "Time Loop",         "Island Survival",
    "Opera Phantom",     "Ranch Feud",        "Submarine Standoff",
    "College Reunion",   "Ghost Ship",        "Market Hustle",
    "Alpine Ski",        "Carnival Heart",    "Midnight Library",
    "Steam Engine",      "Coral Reef",        "Painter's Muse",
    "Comet Watch",
};

constexpr const char* kVariants[] = {
    "Story", "Tale", "Chronicle", "Saga", "Affair",
    "Mystery", "Nights", "Dreams", "Code", "Legacy",
};

/// Within-cluster trait scatter relative to unit cluster spread.
constexpr double kClusterScatter = 0.45;
/// Zipf exponent of item popularity (rating counts are heavily skewed
/// toward popular items, as in the Netflix data).
constexpr double kPopularityExponent = 0.8;

}  // namespace

SyntheticWorld::SyntheticWorld(const WorldConfig& config) : config_(config) {
  CCDB_CHECK_GT(config_.num_items, 0u);
  CCDB_CHECK_GT(config_.num_users, 0u);
  CCDB_CHECK_GT(config_.latent_dims, 0u);
  CCDB_CHECK_GT(config_.num_clusters, 0u);
  CCDB_CHECK_LT(config_.rating_min, config_.rating_max);
  BuildTraits();
  BuildGenres();
  BuildNames();
}

void SyntheticWorld::BuildTraits() {
  Rng rng(config_.seed);
  const std::size_t dims = config_.latent_dims;
  const double scale = 1.0 / std::sqrt(static_cast<double>(dims));

  cluster_centers_ = Matrix(config_.num_clusters, dims);
  cluster_centers_.FillGaussian(rng, 0.0, 1.0);

  // Cluster popularity varies (some styles are much more common).
  std::vector<double> cluster_weights(config_.num_clusters);
  for (double& w : cluster_weights) w = 0.2 + rng.Uniform();

  item_clusters_.resize(config_.num_items);
  item_traits_ = Matrix(config_.num_items, dims);
  for (std::size_t m = 0; m < config_.num_items; ++m) {
    const std::size_t c = rng.Categorical(cluster_weights);
    item_clusters_[m] = c;
    auto row = item_traits_.Row(m);
    const auto center = cluster_centers_.Row(c);
    for (std::size_t k = 0; k < dims; ++k) {
      row[k] =
          scale * (center[k] + rng.Gaussian(0.0, kClusterScatter));
    }
  }

  user_traits_ = Matrix(config_.num_users, dims);
  user_traits_.FillGaussian(rng, 0.0, scale);

  item_bias_.resize(config_.num_items);
  for (double& b : item_bias_) b = rng.Gaussian(0.0, config_.item_bias_stddev);
  user_bias_.resize(config_.num_users);
  for (double& b : user_bias_) b = rng.Gaussian(0.0, config_.user_bias_stddev);

  item_drift_.resize(config_.num_items);
  for (double& drift : item_drift_) {
    drift = config_.item_drift_stddev > 0.0
                ? rng.Gaussian(0.0, config_.item_drift_stddev)
                : 0.0;
  }

  // Zipf-like popularity over a random item permutation.
  item_popularity_.resize(config_.num_items);
  std::vector<std::size_t> ranks(config_.num_items);
  std::iota(ranks.begin(), ranks.end(), 0u);
  rng.Shuffle(ranks);
  for (std::size_t m = 0; m < config_.num_items; ++m) {
    item_popularity_[m] = 1.0 / std::pow(static_cast<double>(ranks[m] + 1),
                                         kPopularityExponent);
  }
}

void SyntheticWorld::BuildGenres() {
  Rng rng(config_.seed + 1);
  const std::size_t dims = config_.latent_dims;
  genre_labels_.resize(config_.genres.size());
  for (std::size_t g = 0; g < config_.genres.size(); ++g) {
    const GenreSpec& spec = config_.genres[g];
    CCDB_CHECK_GT(spec.prevalence, 0.0);
    CCDB_CHECK_LT(spec.prevalence, 1.0);
    std::vector<bool>& labels = genre_labels_[g];
    labels.resize(config_.num_items);

    if (spec.factual) {
      // Factual categories are independent of the perceptual geometry.
      for (std::size_t m = 0; m < config_.num_items; ++m) {
        labels[m] = rng.Bernoulli(spec.prevalence);
      }
      continue;
    }

    // Perceptual category: a random direction in trait space + noise,
    // thresholded at the prevalence quantile.
    std::vector<double> direction(dims);
    for (double& v : direction) v = rng.Gaussian();
    NormalizeInPlace(direction);

    std::vector<double> scores(config_.num_items);
    for (std::size_t m = 0; m < config_.num_items; ++m) {
      scores[m] = Dot(item_traits_.Row(m), direction);
    }
    const double score_stddev = std::sqrt(Variance(scores));
    for (double& s : scores) {
      s += rng.Gaussian(0.0, spec.label_noise * score_stddev);
    }
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t cut = static_cast<std::size_t>(
        (1.0 - spec.prevalence) * static_cast<double>(config_.num_items));
    const double threshold = sorted[std::min(cut, config_.num_items - 1)];
    for (std::size_t m = 0; m < config_.num_items; ++m) {
      labels[m] = scores[m] > threshold;
    }
  }
}

void SyntheticWorld::BuildNames() {
  Rng rng(config_.seed + 2);
  constexpr std::size_t kNumThemes = std::size(kThemes);
  constexpr std::size_t kNumVariants = std::size(kVariants);
  item_names_.resize(config_.num_items);
  std::vector<std::size_t> per_cluster_counter(config_.num_clusters, 0);
  for (std::size_t m = 0; m < config_.num_items; ++m) {
    const std::size_t c = item_clusters_[m];
    const std::size_t serial = ++per_cluster_counter[c];
    const int year = 1950 + static_cast<int>(rng.UniformInt(61));
    item_names_[m] = std::string(kThemes[c % kNumThemes]) + " " +
                     kVariants[rng.UniformInt(kNumVariants)] + " #" +
                     std::to_string(serial) + " (" + std::to_string(year) +
                     ")";
  }
}

std::vector<std::vector<bool>> SyntheticWorld::ItemLabelSets() const {
  std::vector<std::vector<bool>> sets(config_.num_items);
  for (std::size_t m = 0; m < config_.num_items; ++m) {
    sets[m].resize(config_.genres.size());
    for (std::size_t g = 0; g < config_.genres.size(); ++g) {
      sets[m][g] = genre_labels_[g][m];
    }
  }
  return sets;
}

double SyntheticWorld::ExpectedRating(std::uint32_t item,
                                      std::uint32_t user) const {
  // The mean squared distance (2 + scatter²)/1 is folded into the offset so
  // generated ratings center at config.global_mean.
  const double expected_d2 = 2.0 + kClusterScatter * kClusterScatter;
  const double offset =
      config_.global_mean + config_.distance_weight * expected_d2;
  const double d2 =
      SquaredDistance(item_traits_.Row(item), user_traits_.Row(user));
  return offset + item_bias_[item] + user_bias_[user] -
         config_.distance_weight * d2;
}

double SyntheticWorld::ExpectedRatingAt(std::uint32_t item,
                                        std::uint32_t user,
                                        double day) const {
  const double phase =
      config_.timeline_days > 0.0 ? day / config_.timeline_days - 0.5 : 0.0;
  return ExpectedRating(item, user) + item_drift_[item] * phase;
}

RatingDataset SyntheticWorld::SampleRatings(std::uint64_t seed_offset) const {
  Rng rng(config_.seed + 1000 + seed_offset);

  // Cumulative popularity for weighted item sampling.
  std::vector<double> cumulative(config_.num_items);
  double total = 0.0;
  for (std::size_t m = 0; m < config_.num_items; ++m) {
    total += item_popularity_[m];
    cumulative[m] = total;
  }

  auto sample_item = [&]() -> std::uint32_t {
    const double target = rng.Uniform() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), target);
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(it - cumulative.begin(),
                              config_.num_items - 1));
  };

  std::vector<Rating> ratings;
  ratings.reserve(static_cast<std::size_t>(
      config_.mean_ratings_per_user * static_cast<double>(config_.num_users)));
  std::unordered_set<std::uint32_t> seen;
  for (std::uint32_t u = 0; u < config_.num_users; ++u) {
    // Log-normal activity spread: a few "core users" rate a lot (Sec. 5's
    // scarce-data discussion relies on exactly these users existing).
    const double spread = rng.Gaussian(0.0, 0.8);
    std::size_t count = static_cast<std::size_t>(
        config_.mean_ratings_per_user * std::exp(spread - 0.32));
    count = std::max<std::size_t>(1,
                                  std::min(count, config_.num_items / 2));
    seen.clear();
    std::size_t attempts = 0;
    while (seen.size() < count && attempts < count * 20) {
      ++attempts;
      const std::uint32_t m = sample_item();
      if (!seen.insert(m).second) continue;
      const double day = rng.Uniform(0.0, config_.timeline_days);
      double score = ExpectedRatingAt(m, u, day) +
                     rng.Gaussian(0.0, config_.rating_noise_stddev);
      score = std::clamp(score, config_.rating_min, config_.rating_max);
      score = std::round(score);
      ratings.push_back(
          {m, u, static_cast<float>(score), static_cast<float>(day)});
    }
  }
  return RatingDataset(config_.num_items, config_.num_users,
                       std::move(ratings));
}

}  // namespace ccdb::data
