#ifndef CCDB_CROWD_PLATFORM_H_
#define CCDB_CROWD_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crowd/fault_model.h"
#include "crowd/worker.h"

namespace ccdb::crowd {

/// A worker's answer to one item inside a HIT.
enum class Answer : std::uint8_t {
  kPositive,
  kNegative,
  kDontKnow,
};

/// One elementary judgment produced by the platform simulation, stamped
/// with completion time and its share of the HIT payment.
struct Judgment {
  std::uint32_t item = 0;
  std::uint32_t worker = 0;
  Answer answer = Answer::kDontKnow;
  double timestamp_minutes = 0.0;
  double cost_dollars = 0.0;
  bool is_gold = false;  // gold-question probes are excluded from voting

  bool operator==(const Judgment&) const = default;
};

/// Configuration of one crowd-sourcing run (one "experiment" in Sec. 4.1).
struct HitRunConfig {
  /// Distinct judgments collected per item.
  std::size_t judgments_per_item = 10;
  /// Items bundled into one HIT.
  std::size_t items_per_hit = 10;
  /// Payment per completed HIT in dollars ($0.02 in Experiments 1–2,
  /// $0.03 in Experiment 3).
  double payment_per_hit = 0.02;
  /// Whether the "I do not know this movie" option exists.
  bool allow_dont_know = true;
  /// Lookup mode (Experiment 3): workers research the answer on the web
  /// instead of judging from personal knowledge. Everybody answers, but
  /// answers converge on a shared "web consensus" that itself deviates
  /// from the reference data with `lookup_consensus_flip_rate`.
  bool lookup_mode = false;
  double lookup_consensus_flip_rate = 0.065;
  /// Fraction of items on which the web sources themselves disagree; for
  /// these, even diligent lookup workers split ~50/50, producing ties
  /// (the unclassified movies of Experiment 3) and residual errors.
  double lookup_contested_rate = 0.10;
  /// Perceptual judgments are subjective: for a fraction of items the
  /// casual-viewer consensus differs from the expert reference (a fuzzy
  /// comedy everyone mislabels). Honest workers judge *this* consensus
  /// with their personal accuracy, which caps majority-vote quality well
  /// below 100% no matter how many votes are collected — the effect
  /// behind Experiment 2's 79.4%.
  double perception_flip_rate = 0.12;
  /// Number of gold questions mixed into the task (Experiment 3 uses 100
  /// for 1,000 items — the recommended 10% ratio).
  std::size_t num_gold_questions = 0;
  /// Workers whose gold accuracy drops below this after at least
  /// `gold_min_probes` answered golds are excluded; their non-gold
  /// judgments are discarded, mirroring CrowdFlower's screening.
  double gold_exclusion_threshold = 0.7;
  std::size_t gold_min_probes = 3;
  std::uint64_t seed = 5;
  /// Platform fault injection (abandonment, stragglers, churn, duplicates,
  /// late delivery, spam bursts). Defaults to all-zero — the perfect
  /// platform — and uses its own RNG stream, so enabling it never perturbs
  /// the fault-free judgment stream of the same `seed`.
  FaultModel fault;
};

/// Result of a simulated crowd run: the full judgment stream ordered by
/// timestamp, plus aggregate cost/time/worker statistics for Table 1.
struct CrowdRunResult {
  std::vector<Judgment> judgments;  // sorted by timestamp_minutes
  double total_minutes = 0.0;
  double total_cost_dollars = 0.0;
  std::size_t num_participating_workers = 0;
  std::size_t num_excluded_workers = 0;
  // --- fault accounting (all zero when HitRunConfig::fault is zeroed) ---
  /// HIT assignments abandoned before submission (no judgments, no pay).
  std::size_t num_abandoned_hits = 0;
  /// Workers who dropped out mid-run and lost or refused assignments.
  std::size_t num_churned_workers = 0;
  /// Late duplicate (worker, item) judgments injected into the stream.
  std::size_t num_duplicate_judgments = 0;
  /// Judgments overwritten by a transient spam burst.
  std::size_t num_spam_burst_judgments = 0;
};

/// Validates a crowd run's inputs: non-empty pool and sample, non-zero
/// judgments_per_item / items_per_hit, sane payments, probabilities in
/// [0, 1]. Returns InvalidArgument describing the first violation.
[[nodiscard]] Status ValidateCrowdTask(const WorkerPool& pool,
                         const std::vector<bool>& true_labels,
                         const HitRunConfig& config);

/// Simulates dispatching the classification of `true_labels.size()` items
/// to `pool` under `config`. `true_labels` provides the reference answers
/// used for (a) honest workers' judgments, (b) gold screening, and
/// (c) the lookup consensus. Judgments on gold probes are marked is_gold
/// and never count toward item votes; judgments from workers excluded by
/// gold screening are dropped from the stream entirely. Inputs that
/// ValidateCrowdTask rejects CHECK-fail here; Dispatcher::Run validates
/// them first and returns that Status instead.
CrowdRunResult RunCrowdTask(const WorkerPool& pool,
                            const std::vector<bool>& true_labels,
                            const HitRunConfig& config);

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_PLATFORM_H_
