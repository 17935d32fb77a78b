#include "crowd/platform.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"

namespace ccdb::crowd {
namespace {

struct WorkerState {
  double next_free_minutes = 0.0;
  std::size_t gold_seen = 0;
  std::size_t gold_correct = 0;
  bool excluded = false;
  bool participated = false;
  bool churned = false;
};

/// Pre-drawn fault attributes. All draws happen on the dedicated fault RNG
/// in a fixed order (worker index, then the burst window) so a given
/// (FaultModel, seed) pair always produces the same fault schedule.
struct FaultState {
  bool enabled = false;
  Rng rng{0};
  std::vector<double> straggler_mult;  // per worker, >= 1
  std::vector<double> dropout_at;      // per worker, +inf = never churns
  double burst_start = std::numeric_limits<double>::infinity();
  double burst_end = -std::numeric_limits<double>::infinity();
};

FaultState PrepareFaults(const FaultModel& fault, std::size_t num_workers) {
  FaultState state;
  state.enabled = fault.any();
  if (!state.enabled) return state;
  state.rng = Rng(fault.seed);
  state.straggler_mult.assign(num_workers, 1.0);
  state.dropout_at.assign(num_workers,
                          std::numeric_limits<double>::infinity());
  for (std::size_t w = 0; w < num_workers; ++w) {
    if (fault.straggler_fraction > 0.0 &&
        state.rng.Bernoulli(fault.straggler_fraction)) {
      // Pareto tail on (0, 1]: u^(-1/alpha) >= 1, capped so one worker
      // cannot stall the simulated clock indefinitely.
      const double u = 1.0 - state.rng.Uniform();
      state.straggler_mult[w] = std::min(
          20.0, std::pow(u, -1.0 / fault.straggler_pareto_alpha));
    }
    if (fault.churn_prob > 0.0 && state.rng.Bernoulli(fault.churn_prob)) {
      state.dropout_at[w] = state.rng.Uniform(0.0, fault.churn_window_minutes);
    }
  }
  if (fault.spam_burst_prob > 0.0 &&
      state.rng.Bernoulli(fault.spam_burst_prob)) {
    state.burst_start =
        state.rng.Uniform(0.0, fault.spam_burst_window_minutes);
    state.burst_end = state.burst_start + fault.spam_burst_duration_minutes;
  }
  return state;
}

Status CheckProbability(double value, const char* name) {
  if (value < 0.0 || value > 1.0) {
    return Status::InvalidArgument(std::string(name) + " must be in [0, 1], got " +
                                   std::to_string(value));
  }
  return Status::Ok();
}

// The label a worker's judgment is anchored to: in lookup mode the web
// consensus, otherwise the casual-viewer perception consensus. Gold probes
// anchor to their true (platform-known) label.
Answer JudgeItem(const WorkerProfile& worker, bool anchor_label,
                 bool contested, const HitRunConfig& config, Rng& rng) {
  if (config.lookup_mode) {
    if (contested) {
      // The web sources disagree; each worker lands on one side at random.
      return rng.Bernoulli(0.5) ? Answer::kPositive : Answer::kNegative;
    }
    if (rng.Bernoulli(worker.lookup_diligence)) {
      return anchor_label ? Answer::kPositive : Answer::kNegative;
    }
    return rng.Bernoulli(worker.positive_bias) ? Answer::kPositive
                                               : Answer::kNegative;
  }

  if (worker.honest) {
    if (rng.Bernoulli(worker.knowledge)) {
      const bool correct = rng.Bernoulli(worker.accuracy);
      const bool answer = correct ? anchor_label : !anchor_label;
      return answer ? Answer::kPositive : Answer::kNegative;
    }
    if (config.allow_dont_know) return Answer::kDontKnow;
    return rng.Bernoulli(worker.positive_bias) ? Answer::kPositive
                                               : Answer::kNegative;
  }

  // Dishonest worker: claims to know nearly everything and fabricates.
  if (rng.Bernoulli(worker.knowledge)) {
    return rng.Bernoulli(worker.positive_bias) ? Answer::kPositive
                                               : Answer::kNegative;
  }
  return config.allow_dont_know
             ? Answer::kDontKnow
             : (rng.Bernoulli(worker.positive_bias) ? Answer::kPositive
                                                    : Answer::kNegative);
}

}  // namespace

Status ValidateCrowdTask(const WorkerPool& pool,
                         const std::vector<bool>& true_labels,
                         const HitRunConfig& config) {
  if (pool.workers.empty()) {
    return Status::InvalidArgument("worker pool is empty");
  }
  for (std::size_t w = 0; w < pool.workers.size(); ++w) {
    if (!(pool.workers[w].judgments_per_minute > 0.0)) {
      return Status::InvalidArgument(
          "worker " + std::to_string(w) +
          " has non-positive judgments_per_minute");
    }
  }
  if (true_labels.empty()) {
    return Status::InvalidArgument("sample is empty: nothing to crowd-source");
  }
  if (config.judgments_per_item == 0) {
    return Status::InvalidArgument("judgments_per_item must be > 0");
  }
  if (config.items_per_hit == 0) {
    return Status::InvalidArgument("items_per_hit must be > 0");
  }
  if (config.payment_per_hit < 0.0) {
    return Status::InvalidArgument("payment_per_hit must be >= 0");
  }
  for (const auto& [value, name] :
       {std::pair<double, const char*>{config.lookup_consensus_flip_rate,
                                       "lookup_consensus_flip_rate"},
        {config.lookup_contested_rate, "lookup_contested_rate"},
        {config.perception_flip_rate, "perception_flip_rate"},
        {config.gold_exclusion_threshold, "gold_exclusion_threshold"},
        {config.fault.abandonment_prob, "fault.abandonment_prob"},
        {config.fault.abandon_time_fraction, "fault.abandon_time_fraction"},
        {config.fault.straggler_fraction, "fault.straggler_fraction"},
        {config.fault.churn_prob, "fault.churn_prob"},
        {config.fault.duplicate_prob, "fault.duplicate_prob"},
        {config.fault.late_prob, "fault.late_prob"},
        {config.fault.spam_burst_prob, "fault.spam_burst_prob"},
        {config.fault.spam_burst_intensity, "fault.spam_burst_intensity"},
        {config.fault.spam_burst_positive_bias,
         "fault.spam_burst_positive_bias"}}) {
    const Status status = CheckProbability(value, name);
    if (!status.ok()) return status;
  }
  if (config.fault.straggler_fraction > 0.0 &&
      !(config.fault.straggler_pareto_alpha > 0.0)) {
    return Status::InvalidArgument(
        "fault.straggler_pareto_alpha must be > 0");
  }
  if (config.fault.churn_prob > 0.0 &&
      !(config.fault.churn_window_minutes > 0.0)) {
    return Status::InvalidArgument("fault.churn_window_minutes must be > 0");
  }
  if (config.fault.spam_burst_prob > 0.0 &&
      !(config.fault.spam_burst_window_minutes > 0.0)) {
    return Status::InvalidArgument(
        "fault.spam_burst_window_minutes must be > 0");
  }
  return Status::Ok();
}

CrowdRunResult RunCrowdTask(const WorkerPool& pool,
                            const std::vector<bool>& true_labels,
                            const HitRunConfig& config) {
  const Status valid = ValidateCrowdTask(pool, true_labels, config);
  CCDB_CHECK_MSG(valid.ok(), valid.ToString());

  Rng rng(config.seed);
  FaultState faults = PrepareFaults(config.fault, pool.workers.size());
  const std::size_t num_real_items = true_labels.size();
  const std::size_t num_total_items =
      num_real_items + config.num_gold_questions;

  // Gold probes get reference answers matching the positive rate of the
  // real task.
  std::vector<bool> gold_labels(config.num_gold_questions);
  double positive_rate = 0.0;
  for (bool label : true_labels) positive_rate += label ? 1.0 : 0.0;
  positive_rate /= static_cast<double>(num_real_items);
  for (std::size_t g = 0; g < config.num_gold_questions; ++g) {
    gold_labels[g] = rng.Bernoulli(positive_rate);
  }

  // The per-item judgment anchor: either the web consensus (lookup mode)
  // or the casual-viewer perception consensus. Both model correlated,
  // item-level deviation from the expert reference.
  const double flip_rate = config.lookup_mode
                               ? config.lookup_consensus_flip_rate
                               : config.perception_flip_rate;
  std::vector<bool> anchor(num_real_items);
  std::vector<bool> contested(num_real_items, false);
  for (std::size_t m = 0; m < num_real_items; ++m) {
    anchor[m] = rng.Bernoulli(flip_rate) ? !true_labels[m] : true_labels[m];
    if (config.lookup_mode) {
      contested[m] = rng.Bernoulli(config.lookup_contested_rate);
    }
  }

  // Items (including gold probes) are partitioned once into fixed HIT
  // groups, exactly like a real HIT-group posting; each group is then
  // completed `judgments_per_item` times by distinct workers.
  std::vector<std::uint32_t> item_ids(num_total_items);
  std::iota(item_ids.begin(), item_ids.end(), 0u);
  rng.Shuffle(item_ids);
  const std::size_t num_groups =
      (num_total_items + config.items_per_hit - 1) / config.items_per_hit;

  std::vector<WorkerState> states(pool.workers.size());
  for (WorkerState& state : states) {
    state.next_free_minutes = rng.Uniform() * 2.0;  // staggered arrival
  }
  // group_workers[g] = workers who already completed group g.
  std::vector<std::vector<std::uint32_t>> group_workers(num_groups);

  CrowdRunResult result;
  for (std::size_t round = 0; round < config.judgments_per_item; ++round) {
    // Randomize group order each round so the same workers don't always
    // process the same groups back-to-back.
    std::vector<std::size_t> group_order(num_groups);
    std::iota(group_order.begin(), group_order.end(), 0u);
    rng.Shuffle(group_order);

    for (std::size_t g : group_order) {
      // Earliest-free worker who has not completed this group yet.
      std::size_t chosen = pool.workers.size();
      double best_free = std::numeric_limits<double>::infinity();
      for (std::size_t w = 0; w < pool.workers.size(); ++w) {
        if (states[w].excluded) continue;
        if (faults.enabled &&
            states[w].next_free_minutes >= faults.dropout_at[w]) {
          states[w].churned = true;  // dropped out; refuses new work
          continue;
        }
        if (std::find(group_workers[g].begin(), group_workers[g].end(),
                      static_cast<std::uint32_t>(w)) !=
            group_workers[g].end()) {
          continue;
        }
        if (states[w].next_free_minutes < best_free) {
          best_free = states[w].next_free_minutes;
          chosen = w;
        }
      }
      if (chosen >= pool.workers.size()) {
        // Pool exhausted for this group (more rounds than eligible
        // workers); the group simply gets fewer judgments, as on a real
        // platform when a HIT expires.
        continue;
      }
      group_workers[g].push_back(static_cast<std::uint32_t>(chosen));

      WorkerState& state = states[chosen];
      const WorkerProfile& worker = pool.workers[chosen];
      const std::size_t start = g * config.items_per_hit;
      const std::size_t end =
          std::min(num_total_items, start + config.items_per_hit);
      double duration = static_cast<double>(end - start) /
                        worker.judgments_per_minute;
      if (faults.enabled) duration *= faults.straggler_mult[chosen];
      const double completion = state.next_free_minutes + duration;

      if (faults.enabled) {
        // Worker drops out mid-HIT: the assignment is lost, the group keeps
        // its slot open (fewer judgments this round), and the platform pays
        // nothing for the incomplete work.
        if (completion > faults.dropout_at[chosen]) {
          state.next_free_minutes = faults.dropout_at[chosen];
          state.churned = true;
          ++result.num_abandoned_hits;
          continue;
        }
        // Silent abandonment: the worker claims the HIT, wastes part of its
        // duration, and walks away without submitting.
        if (config.fault.abandonment_prob > 0.0 &&
            faults.rng.Bernoulli(config.fault.abandonment_prob)) {
          state.next_free_minutes +=
              duration * config.fault.abandon_time_fraction;
          ++result.num_abandoned_hits;
          continue;
        }
      }

      state.participated = true;
      state.next_free_minutes = completion;
      result.total_cost_dollars += config.payment_per_hit;
      const double cost_share =
          config.payment_per_hit / static_cast<double>(end - start);

      // Delivery delay applies to the whole submission (the work was done
      // at `completion`; the platform surfaces it late).
      double delivery_delay = 0.0;
      if (faults.enabled && config.fault.late_prob > 0.0 &&
          faults.rng.Bernoulli(config.fault.late_prob)) {
        delivery_delay = -config.fault.late_mean_delay_minutes *
                         std::log(1.0 - faults.rng.Uniform());
      }

      for (std::size_t i = start; i < end; ++i) {
        const std::uint32_t item = item_ids[i];
        const bool is_gold = item >= num_real_items;
        const bool anchor_label = is_gold
                                      ? gold_labels[item - num_real_items]
                                      : anchor[item];
        const bool item_contested = !is_gold && contested[item];
        Answer answer =
            JudgeItem(worker, anchor_label, item_contested, config, rng);
        // Transient spam burst: a wave of sock-puppet submissions replaces
        // honest work done inside the burst window. The platform (and gold
        // screening) only ever sees the submitted answer.
        if (faults.enabled && completion >= faults.burst_start &&
            completion < faults.burst_end &&
            faults.rng.Bernoulli(config.fault.spam_burst_intensity)) {
          answer = faults.rng.Bernoulli(config.fault.spam_burst_positive_bias)
                       ? Answer::kPositive
                       : Answer::kNegative;
          ++result.num_spam_burst_judgments;
        }
        Judgment judgment;
        judgment.item = item;
        judgment.worker = static_cast<std::uint32_t>(chosen);
        judgment.answer = answer;
        judgment.timestamp_minutes = completion + delivery_delay;
        judgment.cost_dollars = cost_share;
        judgment.is_gold = is_gold;
        result.judgments.push_back(judgment);
        // Late duplicate delivery of the same (worker, item) record. The
        // HIT was paid exactly once, so the copy carries zero cost; it is
        // pure stream noise the dispatcher has to deduplicate.
        if (faults.enabled && config.fault.duplicate_prob > 0.0 &&
            faults.rng.Bernoulli(config.fault.duplicate_prob)) {
          Judgment duplicate = judgment;
          duplicate.cost_dollars = 0.0;
          duplicate.timestamp_minutes +=
              -config.fault.duplicate_delay_minutes *
              std::log(1.0 - faults.rng.Uniform());
          result.judgments.push_back(duplicate);
          ++result.num_duplicate_judgments;
        }

        if (is_gold) {
          ++state.gold_seen;
          const bool answered_true = answer == Answer::kPositive;
          if (answer != Answer::kDontKnow &&
              answered_true == anchor_label) {
            ++state.gold_correct;
          }
          if (state.gold_seen >= config.gold_min_probes) {
            const double gold_accuracy =
                static_cast<double>(state.gold_correct) /
                static_cast<double>(state.gold_seen);
            if (gold_accuracy < config.gold_exclusion_threshold) {
              state.excluded = true;
            }
          }
        }
      }
    }
  }

  // Screening drops every judgment by excluded workers (the platform
  // discards their work; the paper's Exp. 3 relied on exactly this).
  if (config.num_gold_questions > 0) {
    std::erase_if(result.judgments, [&](const Judgment& j) {
      return states[j.worker].excluded;
    });
  }

  std::sort(result.judgments.begin(), result.judgments.end(),
            [](const Judgment& a, const Judgment& b) {
              return a.timestamp_minutes < b.timestamp_minutes;
            });
  for (const WorkerState& state : states) {
    if (state.participated) ++result.num_participating_workers;
    if (state.excluded) ++result.num_excluded_workers;
    if (state.churned) ++result.num_churned_workers;
  }
  result.total_minutes = result.judgments.empty()
                             ? 0.0
                             : result.judgments.back().timestamp_minutes;
  return result;
}

}  // namespace ccdb::crowd
