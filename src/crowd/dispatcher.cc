#include "crowd/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

namespace ccdb::crowd {
namespace {

/// Backoff growth per repost round: round r opens backoff_initial_minutes ·
/// 2^(r−1) after the deadline it follows.
constexpr double kBackoffFactor = 2.0;

/// Hedging: judgments requested per reposted item beyond its deficit.
/// Reposts can land on workers who already judged the item (their copies
/// are deduplicated away), so one extra makes each round far more likely
/// to clear the deficit at slight extra cost.
constexpr std::size_t kRepostOverprovision = 1;

/// Key for (worker, item) deduplication across postings.
std::uint64_t DedupKey(std::uint32_t worker, std::uint32_t item) {
  return (static_cast<std::uint64_t>(worker) << 32) | item;
}

/// Projected dollar cost of posting `num_items` items for
/// `judgments_per_item` rounds under `config`'s HIT size and payment.
double ProjectedCost(std::size_t num_items, std::size_t judgments_per_item,
                     const HitRunConfig& config) {
  const std::size_t hits_per_round =
      (num_items + config.items_per_hit - 1) / config.items_per_hit;
  return static_cast<double>(hits_per_round * judgments_per_item) *
         config.payment_per_hit;
}

}  // namespace

Status ValidateDispatcherConfig(const DispatcherConfig& config) {
  if (!(config.deadline_minutes > 0.0)) {
    return Status::InvalidArgument("deadline_minutes must be > 0");
  }
  if (config.max_reposts > 0 && !(config.backoff_initial_minutes >= 0.0)) {
    return Status::InvalidArgument("backoff_initial_minutes must be >= 0");
  }
  if (!(config.max_dollars > 0.0)) {
    return Status::InvalidArgument("max_dollars must be > 0");
  }
  return Status::Ok();
}

Dispatcher::Dispatcher(WorkerPool pool, DispatcherConfig config)
    : pool_(std::move(pool)), config_(std::move(config)) {}

StatusOr<DispatchResult> Dispatcher::Run(
    const std::vector<bool>& true_labels, const HitRunConfig& hit_config,
    const JournalOptions* journal) const {
  if (journal != nullptr) {
    return RunJournaled(true_labels, hit_config, *journal);
  }
  return RunWith(true_labels, hit_config, [this](const PostingSpec& spec) {
    return StatusOr<CrowdRunResult>(
        RunCrowdTask(pool_, spec.truth, spec.config));
  });
}

StatusOr<DispatchResult> Dispatcher::RunWith(
    const std::vector<bool>& true_labels, const HitRunConfig& hit_config,
    const PostingProvider& provider) const {
  if (Status status = ValidateDispatcherConfig(config_); !status.ok()) {
    return status;
  }
  if (Status status = ValidateCrowdTask(pool_, true_labels, hit_config);
      !status.ok()) {
    return status;
  }

  const std::size_t num_items = true_labels.size();
  DispatchResult result;
  // A stop that fired before anything was posted: return empty-handed
  // without spending a cent.
  if (config_.stop.ShouldStop()) {
    result.stop_status = config_.stop.ToStatus("dispatch");
    result.stats.timed_out_items += num_items;
    return result;
  }
  std::unordered_set<std::uint64_t> seen;
  // Distinct non-gold judgments that arrived before their posting deadline.
  std::vector<std::size_t> on_time(num_items, 0);
  std::size_t phases_merged = 0;

  // Merges one posting's run into the result. `item_map[i]` translates the
  // posting-local item id i to the dispatch-wide id; gold probes (ids past
  // the posting's sample) are kept verbatim — only the primary posting has
  // them, and its ids are already dispatch-wide.
  const auto merge = [&](const CrowdRunResult& run, double phase_start,
                         const std::vector<std::uint32_t>& item_map) {
    ++phases_merged;
    const double phase_deadline = phase_start + config_.deadline_minutes;
    seen.reserve(seen.size() + run.judgments.size());
    result.judgments.reserve(result.judgments.size() + run.judgments.size());
    for (const Judgment& judgment : run.judgments) {
      Judgment shifted = judgment;
      shifted.timestamp_minutes += phase_start;
      if (!shifted.is_gold) {
        shifted.item = item_map[shifted.item];
        if (!seen.insert(DedupKey(shifted.worker, shifted.item)).second) {
          ++result.stats.duplicates_dropped;
          continue;
        }
        if (shifted.timestamp_minutes <= phase_deadline) {
          ++on_time[shifted.item];
        } else {
          ++result.stats.late_judgments;
        }
      }
      result.judgments.push_back(shifted);
    }
    result.total_cost_dollars += run.total_cost_dollars;
    result.stats.abandoned_hits += run.num_abandoned_hits;
    result.stats.churned_workers += run.num_churned_workers;
    result.stats.excluded_workers += run.num_excluded_workers;
    result.stats.spam_burst_judgments += run.num_spam_burst_judgments;
  };

  // Primary posting: the full sample, ids map to themselves.
  PostingSpec primary_spec;
  primary_spec.round = 0;
  primary_spec.truth = true_labels;
  primary_spec.config = hit_config;
  primary_spec.item_map.resize(num_items);
  for (std::size_t i = 0; i < num_items; ++i) {
    primary_spec.item_map[i] = static_cast<std::uint32_t>(i);
  }
  StatusOr<CrowdRunResult> primary_or = provider(primary_spec);
  if (!primary_or.ok()) return primary_or.status();
  const CrowdRunResult primary = std::move(primary_or).value();
  const std::size_t judgments_before = result.judgments.size();
  merge(primary, /*phase_start=*/0.0, primary_spec.item_map);
  const bool primary_untouched =
      result.judgments.size() - judgments_before == primary.judgments.size();

  double phase_open = 0.0;
  for (std::size_t round = 1; round <= config_.max_reposts; ++round) {
    // An infinite deadline means "wait forever": every judgment that will
    // ever arrive already counts, so a repost can never open.
    if (!std::isfinite(config_.deadline_minutes)) break;
    // Items still short of their judgment quota at the last deadline.
    std::vector<std::uint32_t> deficient;
    std::size_t max_deficit = 0;
    for (std::size_t i = 0; i < num_items; ++i) {
      if (on_time[i] < hit_config.judgments_per_item) {
        deficient.push_back(static_cast<std::uint32_t>(i));
        max_deficit = std::max(max_deficit,
                               hit_config.judgments_per_item - on_time[i]);
      }
    }
    if (deficient.empty()) break;
    result.stats.timed_out_items += deficient.size();

    // Bugfix: an already-expired wall-clock deadline (or a cancellation)
    // used to be ignored here — once backoff_initial_minutes was
    // configured, every repost round waited unconditionally. Respect the
    // stop signal before committing to the backoff wait + repost: return
    // the best-effort results immediately with the deficits above already
    // accounted as timed_out_items.
    if (config_.stop.ShouldStop()) {
      result.stop_status = config_.stop.ToStatus("dispatch repost wait");
      break;
    }

    // Exponential backoff after the expired deadline before reposting.
    const double backoff =
        config_.backoff_initial_minutes *
        std::pow(kBackoffFactor, static_cast<double>(round - 1));
    const double next_open = phase_open + config_.deadline_minutes + backoff;

    HitRunConfig repost = hit_config;
    // The platform collects a uniform count per posting, so repost the
    // worst deficit for every deficient item; less-deficient items
    // over-collect (hedging — wasted dollars, bounded by the deficit skew).
    repost.judgments_per_item =
        std::min(max_deficit + kRepostOverprovision, pool_.workers.size());
    // Screening already happened in the primary posting: reposts carry no
    // gold questions and spend every cent on signal.
    repost.num_gold_questions = 0;
    // Re-seed both streams so repost rounds are fresh-but-deterministic.
    repost.seed = hit_config.seed + 0x9E3779B9ull * round;
    repost.fault.seed = hit_config.fault.seed + 0x85EBCA6Bull * round;

    if (result.total_cost_dollars +
            ProjectedCost(deficient.size(), repost.judgments_per_item,
                          repost) >
        config_.max_dollars) {
      result.stats.budget_exhausted = true;
      break;
    }

    PostingSpec repost_spec;
    repost_spec.round = round;
    repost_spec.config = repost;
    repost_spec.item_map = deficient;
    repost_spec.truth.resize(deficient.size());
    for (std::size_t i = 0; i < deficient.size(); ++i) {
      repost_spec.truth[i] = true_labels[deficient[i]];
    }
    StatusOr<CrowdRunResult> rerun_or = provider(repost_spec);
    if (!rerun_or.ok()) return rerun_or.status();
    merge(rerun_or.value(), next_open, deficient);
    ++result.stats.repost_rounds;
    result.stats.reposted_items += deficient.size();
    phase_open = next_open;
  }

  for (std::size_t i = 0; i < num_items; ++i) {
    if (on_time[i] < hit_config.judgments_per_item &&
        result.stats.repost_rounds == config_.max_reposts &&
        !result.stats.budget_exhausted) {
      result.stats.reposts_exhausted = true;
      break;
    }
  }

  // Hedging waste: dollars paid for judgments beyond an item's quota.
  std::vector<std::size_t> accepted(num_items, 0);
  for (const Judgment& judgment : result.judgments) {
    if (judgment.is_gold) continue;
    if (++accepted[judgment.item] > hit_config.judgments_per_item) {
      result.stats.wasted_dollars += judgment.cost_dollars;
    }
  }

  // A single clean posting is passed through verbatim (bit-for-bit with
  // RunCrowdTask); merged streams re-sort with full tie-breaking so the
  // output is deterministic regardless of phase interleaving.
  if (!(phases_merged == 1 && primary_untouched)) {
    std::sort(result.judgments.begin(), result.judgments.end(),
              [](const Judgment& a, const Judgment& b) {
                return std::tie(a.timestamp_minutes, a.worker, a.item) <
                       std::tie(b.timestamp_minutes, b.worker, b.item);
              });
  }
  result.total_minutes = result.judgments.empty()
                             ? 0.0
                             : result.judgments.back().timestamp_minutes;
  return result;
}

}  // namespace ccdb::crowd
