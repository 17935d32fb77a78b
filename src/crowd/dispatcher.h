#ifndef CCDB_CROWD_DISPATCHER_H_
#define CCDB_CROWD_DISPATCHER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/cancellation.h"
#include "common/journal.h"
#include "common/status.h"
#include "crowd/platform.h"

namespace ccdb::crowd {

/// Policy knobs of the resilient dispatcher that wraps RunCrowdTask.
struct DispatcherConfig {
  /// Per-posting deadline: judgments arriving more than this many minutes
  /// after the posting opened are "late"; items still short of
  /// `judgments_per_item` on-time judgments at the deadline time out and
  /// are reposted. Infinity (the default) waits forever — with a zeroed
  /// FaultModel this reproduces the plain RunCrowdTask output bit for bit.
  double deadline_minutes = std::numeric_limits<double>::infinity();
  /// Repost budget: maximum repost rounds after the primary posting.
  std::size_t max_reposts = 3;
  /// Exponential backoff before each repost round:
  /// backoff_initial_minutes * 2^(round-1).
  double backoff_initial_minutes = 5.0;
  /// Hard cap. A repost round whose *projected* cost would cross
  /// max_dollars is not issued; the dispatcher returns best-effort results
  /// with budget_exhausted set.
  double max_dollars = std::numeric_limits<double>::infinity();
  /// Wall-clock stop signal (cancellation token OR deadline), probed
  /// before the primary posting and before every repost round. The
  /// simulated backoff/deadline knobs above reason in *crowd* minutes;
  /// this one bounds *caller* wall time: when it fires the dispatcher
  /// stops waiting, accounts the remaining deficits as timed_out_items,
  /// and returns best-effort results with DispatchResult::stop_status
  /// set instead of issuing further (money-spending) rounds. The default
  /// never fires.
  StopCondition stop;
};

/// Structured accounting of one dispatch, for dashboards and benches.
struct DispatchStats {
  std::size_t repost_rounds = 0;
  /// Item postings issued in repost rounds (an item reposted twice counts
  /// twice).
  std::size_t reposted_items = 0;
  /// Deadline misses: item deficits observed at phase deadlines
  /// (cumulative across rounds).
  std::size_t timed_out_items = 0;
  /// Judgments that arrived after their posting's deadline (still used —
  /// late, not lost — but they may have triggered a hedged repost).
  std::size_t late_judgments = 0;
  /// Identical (worker, item) copies removed by deduplication.
  std::size_t duplicates_dropped = 0;
  // Fault accounting aggregated over all postings:
  std::size_t abandoned_hits = 0;
  std::size_t churned_workers = 0;
  std::size_t excluded_workers = 0;
  std::size_t spam_burst_judgments = 0;
  // Durability accounting (zero except on journal-backed resumes):
  /// Postings whose full judgment stream was replayed from a journal
  /// instead of being re-acquired from the platform.
  std::size_t replayed_postings = 0;
  /// Judgments recovered from a journal (already paid for in the crashed
  /// run — no new money changed hands).
  std::size_t replayed_judgments = 0;
  /// Dollars those replayed judgments had cost; total_cost_dollars minus
  /// this is the money the resumed run actually spent.
  double replayed_dollars = 0.0;
  /// Dollars paid for judgments beyond judgments_per_item on an item —
  /// hedged reposts racing late arrivals, the price of tail latency.
  double wasted_dollars = 0.0;
  /// True when a repost was needed but max_dollars forbade it.
  bool budget_exhausted = false;
  /// True when the repost budget ran out with item deficits remaining.
  bool reposts_exhausted = false;

  /// Accumulates another dispatch's accounting (used when an expansion
  /// chains several dispatches, e.g. one-class top-up rounds).
  void MergeFrom(const DispatchStats& other) {
    repost_rounds += other.repost_rounds;
    reposted_items += other.reposted_items;
    timed_out_items += other.timed_out_items;
    late_judgments += other.late_judgments;
    duplicates_dropped += other.duplicates_dropped;
    abandoned_hits += other.abandoned_hits;
    churned_workers += other.churned_workers;
    excluded_workers += other.excluded_workers;
    spam_burst_judgments += other.spam_burst_judgments;
    replayed_postings += other.replayed_postings;
    replayed_judgments += other.replayed_judgments;
    replayed_dollars += other.replayed_dollars;
    wasted_dollars += other.wasted_dollars;
    budget_exhausted |= other.budget_exhausted;
    reposts_exhausted |= other.reposts_exhausted;
  }
};

/// Final merged outcome of a dispatch: a deduplicated judgment stream
/// (sorted by timestamp) plus cost/time totals and the dispatch stats.
struct DispatchResult {
  std::vector<Judgment> judgments;
  double total_minutes = 0.0;
  double total_cost_dollars = 0.0;
  DispatchStats stats;
  /// Ok when the dispatch ran to completion; Cancelled / DeadlineExceeded
  /// when DispatcherConfig::stop fired first. The judgments collected up
  /// to the stop point are returned either way (best-effort, already paid
  /// for).
  Status stop_status;
};

/// Validates dispatcher policy knobs (positive deadline and dollar cap,
/// non-negative backoff).
[[nodiscard]] Status ValidateDispatcherConfig(const DispatcherConfig& config);

/// One posting the dispatcher is about to issue: the primary posting
/// (round 0, the whole sample) or a repost round over the deficient
/// items. `config` is fully derived — per-round seeds, judgment quotas
/// and gold questions (none in reposts) already applied — so a posting is
/// reproducible from its spec alone. `item_map[i]` translates posting-local
/// item id i to the dispatch-wide id.
struct PostingSpec {
  std::size_t round = 0;
  std::vector<bool> truth;
  HitRunConfig config;
  std::vector<std::uint32_t> item_map;
};

/// Acquires one posting's judgments. The default provider forwards to
/// RunCrowdTask (the simulated platform); a journaled Run wraps it with a
/// write-ahead journal that replays already-acquired postings on resume
/// instead of re-buying them.
using PostingProvider =
    std::function<StatusOr<CrowdRunResult>(const PostingSpec&)>;

/// Fault-tolerant wrapper around RunCrowdTask. The dispatcher posts the
/// whole sample, watches per-item judgment counts against the deadline,
/// reposts deficient items with exponential backoff (re-seeded, so repost
/// rounds draw fresh workers deterministically), deduplicates late
/// duplicate deliveries, and enforces the dollar budget cap. With a
/// zeroed FaultModel and the default config it is a transparent pass-through.
class Dispatcher {
 public:
  Dispatcher(WorkerPool pool, DispatcherConfig config);

  /// Dispatches the classification of `true_labels.size()` items under
  /// `hit_config`. Returns InvalidArgument for malformed configs instead
  /// of aborting; platform-level faults degrade the result, never fail it.
  ///
  /// With a `journal`, every posting and delivered judgment is journaled
  /// before it is used (crowd/dispatch_journal.h has the records). Run
  /// against the journal an interrupted run left, the same dispatch
  /// replays what that run acquired, rebuilding dedup and spend state,
  /// and buys only the remainder: the result is bit-identical to an
  /// uninterrupted run, and DispatchStats' replayed_* fields account for
  /// the recovered work. A journal of another dispatch, or one whose
  /// replayed judgments lie outside their postings or are not what the
  /// re-run of a partial posting delivers, is InvalidArgument.
  [[nodiscard]]
  StatusOr<DispatchResult> Run(const std::vector<bool>& true_labels,
                               const HitRunConfig& hit_config,
                               const JournalOptions* journal = nullptr) const;

  /// Same dispatch loop, but every posting is acquired through
  /// `provider` instead of the platform directly — the seam a journaled
  /// Run plugs into. Given the same posting results, the merged output is
  /// bit-identical to Run().
  [[nodiscard]]
  StatusOr<DispatchResult> RunWith(const std::vector<bool>& true_labels,
                                   const HitRunConfig& hit_config,
                                   const PostingProvider& provider) const;

  const DispatcherConfig& config() const { return config_; }
  const WorkerPool& pool() const { return pool_; }

 private:
  /// Run with a journal; implemented in dispatch_journal.cc.
  StatusOr<DispatchResult> RunJournaled(const std::vector<bool>& true_labels,
                                        const HitRunConfig& hit_config,
                                        const JournalOptions& journal) const;

  WorkerPool pool_;
  DispatcherConfig config_;
};

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_DISPATCHER_H_
