#include "crowd/em_aggregation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccdb::crowd {
namespace {

/// Convergence threshold on the max posterior change per iteration.
constexpr double kTolerance = 1e-5;
/// Beta-prior pseudo-counts for worker accuracy.
constexpr double kPriorAccuracy = 0.7;
constexpr double kPriorStrength = 4.0;

}  // namespace

EmAggregationResult EmAggregate(const std::vector<Judgment>& judgments,
                                std::size_t num_items,
                                std::size_t num_workers,
                                const EmAggregationConfig& config) {
  EmAggregationResult result;
  result.posterior_positive.assign(num_items, 0.5);
  result.worker_accuracy.assign(num_workers, kPriorAccuracy);
  result.classification.resize(num_items);

  // Collect usable votes once.
  struct Vote {
    std::uint32_t item;
    std::uint32_t worker;
    bool positive;
  };
  std::vector<Vote> votes;
  std::vector<bool> has_votes(num_items, false);
  for (const Judgment& judgment : judgments) {
    if (judgment.is_gold || judgment.answer == Answer::kDontKnow) continue;
    // Documented fallback: votes referencing items or workers outside the
    // declared universe are dropped rather than aborting — a foreign or
    // truncated stream degrades coverage, not the process.
    if (judgment.item >= num_items || judgment.worker >= num_workers) {
      continue;
    }
    votes.push_back({judgment.item, judgment.worker,
                     judgment.answer == Answer::kPositive});
    has_votes[judgment.item] = true;
  }
  if (votes.empty()) return result;

  // Initialize posteriors from unweighted vote fractions.
  std::vector<double> positive_votes(num_items, 0.0);
  std::vector<double> total_votes(num_items, 0.0);
  for (const Vote& vote : votes) {
    positive_votes[vote.item] += vote.positive ? 1.0 : 0.0;
    total_votes[vote.item] += 1.0;
  }
  for (std::size_t m = 0; m < num_items; ++m) {
    if (total_votes[m] > 0.0) {
      result.posterior_positive[m] =
          (positive_votes[m] + 0.5) / (total_votes[m] + 1.0);
    }
  }

  double base_rate = 0.5;

  for (result.iterations = 0; result.iterations < config.max_iterations;
       ++result.iterations) {
    // M step: worker accuracies as posterior-weighted agreement rates.
    std::vector<double> agreement(num_workers,
                                  kPriorAccuracy * kPriorStrength);
    std::vector<double> counted(num_workers, kPriorStrength);
    for (const Vote& vote : votes) {
      const double p = result.posterior_positive[vote.item];
      agreement[vote.worker] += vote.positive ? p : 1.0 - p;
      counted[vote.worker] += 1.0;
    }
    for (std::size_t w = 0; w < num_workers; ++w) {
      // Clamp away from 0/1 so log-odds stay finite; the prior keeps the
      // count positive.
      result.worker_accuracy[w] =
          std::clamp(agreement[w] / counted[w], 0.02, 0.98);
    }
    // Base rate from current posteriors (over voted items).
    double positive_mass = 0.0, item_count = 0.0;
    for (std::size_t m = 0; m < num_items; ++m) {
      if (!has_votes[m]) continue;
      positive_mass += result.posterior_positive[m];
      item_count += 1.0;
    }
    base_rate = std::clamp(positive_mass / item_count, 0.02, 0.98);

    // E step: item posteriors from weighted log-odds.
    std::vector<double> log_odds(num_items,
                                 std::log(base_rate / (1.0 - base_rate)));
    for (const Vote& vote : votes) {
      const double accuracy = result.worker_accuracy[vote.worker];
      const double weight = std::log(accuracy / (1.0 - accuracy));
      log_odds[vote.item] += vote.positive ? weight : -weight;
    }
    double max_change = 0.0;
    for (std::size_t m = 0; m < num_items; ++m) {
      if (!has_votes[m]) continue;
      const double updated = 1.0 / (1.0 + std::exp(-log_odds[m]));
      max_change =
          std::max(max_change, std::abs(updated -
                                        result.posterior_positive[m]));
      result.posterior_positive[m] = updated;
    }
    if (max_change < kTolerance) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }

  for (std::size_t m = 0; m < num_items; ++m) {
    if (has_votes[m]) {
      result.classification[m] = result.posterior_positive[m] >= 0.5;
    }
  }
  return result;
}

}  // namespace ccdb::crowd
