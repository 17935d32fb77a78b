#ifndef CCDB_CROWD_EM_AGGREGATION_H_
#define CCDB_CROWD_EM_AGGREGATION_H_

#include <optional>
#include <vector>

#include "crowd/platform.h"

namespace ccdb::crowd {

/// EM-based consensus (a binary Dawid–Skene variant, cf. the paper's
/// related work on "learning from crowds" [32]): jointly estimates each
/// worker's reliability and each item's label instead of counting every
/// vote equally. On spam-heavy streams (Experiment 1) this recovers much
/// of the accuracy that plain majority voting loses, with zero extra
/// crowd cost. Iteration stops early once no posterior moves by 1e-5 or
/// more; a Beta prior of four pseudo-judgments at accuracy 0.7 keeps the
/// estimate of a worker with few judgments near 0.7.
struct EmAggregationConfig {
  int max_iterations = 50;
};

struct EmAggregationResult {
  /// Final labels; items without votes stay unclassified. Unlike majority
  /// voting, ties are broken by the posterior, so classified coverage is
  /// higher.
  std::vector<std::optional<bool>> classification;
  /// P(label = positive | judgments) per item.
  std::vector<double> posterior_positive;
  /// Estimated accuracy per worker id (prior value for unseen workers).
  std::vector<double> worker_accuracy;
  int iterations = 0;
  bool converged = false;
};

/// Runs EM over the (non-gold) judgments of `judgments`. `num_items` and
/// `num_workers` bound the id spaces. Don't-know answers are ignored.
EmAggregationResult EmAggregate(const std::vector<Judgment>& judgments,
                                std::size_t num_items,
                                std::size_t num_workers,
                                const EmAggregationConfig& config);

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_EM_AGGREGATION_H_
