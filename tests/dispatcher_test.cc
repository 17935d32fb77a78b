#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "crowd/dispatcher.h"
#include "crowd/fault_model.h"
#include "crowd/platform.h"

namespace ccdb::crowd {
namespace {

std::vector<bool> MakeLabels(std::size_t n, double prevalence,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(prevalence);
  return labels;
}

WorkerPool HonestPool(std::size_t n, double knowledge = 1.0,
                      double accuracy = 0.95) {
  WorkerPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = knowledge;
    worker.accuracy = accuracy;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  return pool;
}

void ExpectSameStream(const std::vector<Judgment>& a,
                      const std::vector<Judgment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "at " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "at " << i;
    EXPECT_EQ(a[i].answer, b[i].answer) << "at " << i;
    EXPECT_DOUBLE_EQ(a[i].timestamp_minutes, b[i].timestamp_minutes)
        << "at " << i;
    EXPECT_DOUBLE_EQ(a[i].cost_dollars, b[i].cost_dollars) << "at " << i;
    EXPECT_EQ(a[i].is_gold, b[i].is_gold) << "at " << i;
  }
}

// ------------------------------------------------- fault model determinism

TEST(FaultModelTest, ZeroedFaultModelIsBitForBitFaultFree) {
  const auto labels = MakeLabels(80, 0.3, 1);
  HitRunConfig plain;
  plain.judgments_per_item = 5;
  plain.seed = 2;
  HitRunConfig zeroed = plain;
  zeroed.fault = FaultModel{};   // all probabilities zero
  zeroed.fault.seed = 123456;    // fault seed must be irrelevant when zeroed
  const auto a = RunCrowdTask(HonestPool(12), labels, plain);
  const auto b = RunCrowdTask(HonestPool(12), labels, zeroed);
  ExpectSameStream(a.judgments, b.judgments);
  EXPECT_DOUBLE_EQ(a.total_cost_dollars, b.total_cost_dollars);
  EXPECT_DOUBLE_EQ(a.total_minutes, b.total_minutes);
  EXPECT_EQ(b.num_abandoned_hits, 0u);
  EXPECT_EQ(b.num_churned_workers, 0u);
  EXPECT_EQ(b.num_duplicate_judgments, 0u);
  EXPECT_EQ(b.num_spam_burst_judgments, 0u);
}

TEST(FaultModelTest, FaultInjectionReplaysDeterministically) {
  const auto labels = MakeLabels(100, 0.3, 3);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.seed = 4;
  config.fault.abandonment_prob = 0.25;
  config.fault.straggler_fraction = 0.3;
  config.fault.churn_prob = 0.2;
  config.fault.duplicate_prob = 0.1;
  config.fault.late_prob = 0.2;
  config.fault.spam_burst_prob = 1.0;
  config.fault.seed = 77;
  const auto a = RunCrowdTask(HonestPool(15), labels, config);
  const auto b = RunCrowdTask(HonestPool(15), labels, config);
  ExpectSameStream(a.judgments, b.judgments);
  EXPECT_EQ(a.num_abandoned_hits, b.num_abandoned_hits);
  EXPECT_EQ(a.num_churned_workers, b.num_churned_workers);
  EXPECT_EQ(a.num_duplicate_judgments, b.num_duplicate_judgments);
  EXPECT_EQ(a.num_spam_burst_judgments, b.num_spam_burst_judgments);

  // A different fault seed yields a different fault schedule while the
  // underlying (non-fault) randomness stays fixed.
  HitRunConfig other = config;
  other.fault.seed = 78;
  const auto c = RunCrowdTask(HonestPool(15), labels, other);
  EXPECT_TRUE(c.judgments.size() != a.judgments.size() ||
              c.total_minutes != a.total_minutes);
}

TEST(FaultModelTest, AbandonmentLosesJudgmentsButNotMoney) {
  const auto labels = MakeLabels(100, 0.3, 5);
  HitRunConfig plain;
  plain.judgments_per_item = 5;
  plain.seed = 6;
  HitRunConfig faulty = plain;
  faulty.fault.abandonment_prob = 0.4;
  const auto clean = RunCrowdTask(HonestPool(20), labels, plain);
  const auto broken = RunCrowdTask(HonestPool(20), labels, faulty);
  EXPECT_GT(broken.num_abandoned_hits, 0u);
  EXPECT_LT(broken.judgments.size(), clean.judgments.size());
  // Abandoned HITs are never paid: dollars track completed work only.
  EXPECT_LT(broken.total_cost_dollars, clean.total_cost_dollars);
}

TEST(FaultModelTest, StragglersStretchTheMakespan) {
  const auto labels = MakeLabels(100, 0.3, 7);
  HitRunConfig plain;
  plain.seed = 8;
  HitRunConfig faulty = plain;
  faulty.fault.straggler_fraction = 0.5;
  faulty.fault.straggler_pareto_alpha = 1.2;
  const auto clean = RunCrowdTask(HonestPool(10), labels, plain);
  const auto slow = RunCrowdTask(HonestPool(10), labels, faulty);
  EXPECT_GT(slow.total_minutes, clean.total_minutes);
}

TEST(FaultModelTest, ChurnDropsWorkersMidRun) {
  const auto labels = MakeLabels(200, 0.3, 9);
  HitRunConfig config;
  config.seed = 10;
  config.fault.churn_prob = 0.6;
  config.fault.churn_window_minutes = 30.0;
  const auto result = RunCrowdTask(HonestPool(12), labels, config);
  EXPECT_GT(result.num_churned_workers, 0u);
}

TEST(FaultModelTest, DuplicatesCarryZeroCost) {
  const auto labels = MakeLabels(60, 0.3, 11);
  HitRunConfig config;
  config.judgments_per_item = 3;
  config.seed = 12;
  config.fault.duplicate_prob = 0.5;
  const auto result = RunCrowdTask(HonestPool(10), labels, config);
  EXPECT_GT(result.num_duplicate_judgments, 0u);
  double stream_cost = 0.0;
  for (const Judgment& judgment : result.judgments) {
    stream_cost += judgment.cost_dollars;
  }
  // The paid total is unchanged by duplicate deliveries.
  EXPECT_NEAR(stream_cost, result.total_cost_dollars, 1e-9);
}

// ------------------------------------------------------------- validation

TEST(ValidationTest, ValidateCrowdTaskRejectsBadConfigs) {
  const auto labels = MakeLabels(10, 0.3, 13);
  const WorkerPool pool = HonestPool(3);

  EXPECT_EQ(ValidateCrowdTask(WorkerPool{}, labels, HitRunConfig{}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCrowdTask(pool, {}, HitRunConfig{}).code(),
            StatusCode::kInvalidArgument);

  HitRunConfig zero_items;
  zero_items.items_per_hit = 0;
  EXPECT_FALSE(ValidateCrowdTask(pool, labels, zero_items).ok());

  HitRunConfig zero_judgments;
  zero_judgments.judgments_per_item = 0;
  EXPECT_FALSE(ValidateCrowdTask(pool, labels, zero_judgments).ok());

  HitRunConfig bad_prob;
  bad_prob.fault.abandonment_prob = 1.5;
  EXPECT_FALSE(ValidateCrowdTask(pool, labels, bad_prob).ok());

  WorkerPool frozen = pool;
  frozen.workers[0].judgments_per_minute = 0.0;
  EXPECT_FALSE(ValidateCrowdTask(frozen, labels, HitRunConfig{}).ok());

  EXPECT_TRUE(ValidateCrowdTask(pool, labels, HitRunConfig{}).ok());

  // The Dispatcher validates before it posts: the code comes back as a
  // Status instead of RunCrowdTask's abort.
  const Dispatcher no_workers(WorkerPool{}, DispatcherConfig{});
  EXPECT_EQ(no_workers.Run(labels, HitRunConfig{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidationTest, DispatcherConfigValidation) {
  DispatcherConfig good;
  EXPECT_TRUE(ValidateDispatcherConfig(good).ok());

  DispatcherConfig bad_deadline;
  bad_deadline.deadline_minutes = 0.0;
  EXPECT_FALSE(ValidateDispatcherConfig(bad_deadline).ok());

  DispatcherConfig bad_budget;
  bad_budget.max_dollars = 0.0;
  EXPECT_FALSE(ValidateDispatcherConfig(bad_budget).ok());

  const Dispatcher dispatcher(WorkerPool{}, DispatcherConfig{});
  EXPECT_FALSE(
      dispatcher.Run(MakeLabels(5, 0.3, 14), HitRunConfig{}).ok());
}

// ------------------------------------------------------------- dispatcher

TEST(DispatcherTest, PassThroughIsBitForBitWithZeroFaults) {
  const auto labels = MakeLabels(90, 0.3, 15);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.num_gold_questions = 10;
  config.seed = 16;
  const WorkerPool pool = HonestPool(15);
  const auto direct = RunCrowdTask(pool, labels, config);

  const Dispatcher dispatcher(pool, DispatcherConfig{});
  const auto dispatched = dispatcher.Run(labels, config);
  ASSERT_TRUE(dispatched.ok());
  ExpectSameStream(direct.judgments, dispatched.value().judgments);
  EXPECT_DOUBLE_EQ(direct.total_cost_dollars,
                   dispatched.value().total_cost_dollars);
  EXPECT_DOUBLE_EQ(direct.total_minutes, dispatched.value().total_minutes);
  const DispatchStats& stats = dispatched.value().stats;
  EXPECT_EQ(stats.repost_rounds, 0u);
  EXPECT_EQ(stats.timed_out_items, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.late_judgments, 0u);
  EXPECT_DOUBLE_EQ(stats.wasted_dollars, 0.0);
  EXPECT_FALSE(stats.budget_exhausted);
}

TEST(DispatcherTest, RepostsRecoverAbandonmentDeficits) {
  const auto labels = MakeLabels(80, 0.3, 17);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.seed = 18;
  config.fault.abandonment_prob = 0.4;
  DispatcherConfig policy;
  policy.deadline_minutes = 200.0;
  policy.max_reposts = 5;
  policy.backoff_initial_minutes = 2.0;
  const Dispatcher dispatcher(HonestPool(20), policy);
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().stats.repost_rounds, 1u);
  EXPECT_GT(result.value().stats.timed_out_items, 0u);
  EXPECT_GT(result.value().stats.abandoned_hits, 0u);

  // Every item ends with at least its quota of distinct judgments.
  std::map<std::uint32_t, std::set<std::uint32_t>> votes;
  for (const Judgment& judgment : result.value().judgments) {
    if (judgment.is_gold) continue;
    EXPECT_TRUE(votes[judgment.item].insert(judgment.worker).second)
        << "duplicate (worker,item) survived dedup";
  }
  std::size_t fully_served = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (votes[static_cast<std::uint32_t>(i)].size() >=
        config.judgments_per_item) {
      ++fully_served;
    }
  }
  EXPECT_EQ(fully_served, labels.size());
}

TEST(DispatcherTest, DeduplicatesLateDuplicateDeliveries) {
  const auto labels = MakeLabels(70, 0.3, 19);
  HitRunConfig config;
  config.judgments_per_item = 4;
  config.seed = 20;
  config.fault.duplicate_prob = 0.5;
  const Dispatcher dispatcher(HonestPool(12), DispatcherConfig{});
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.duplicates_dropped, 0u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Judgment& judgment : result.value().judgments) {
    if (judgment.is_gold) continue;
    EXPECT_TRUE(seen.insert({judgment.worker, judgment.item}).second);
  }
}

TEST(DispatcherTest, RespectsRepostBudget) {
  const auto labels = MakeLabels(60, 0.3, 21);
  HitRunConfig config;
  config.judgments_per_item = 6;
  config.seed = 22;
  config.fault.abandonment_prob = 0.6;  // heavy losses
  DispatcherConfig policy;
  policy.deadline_minutes = 100.0;
  policy.max_reposts = 2;
  const Dispatcher dispatcher(HonestPool(8), policy);
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().stats.repost_rounds, 2u);
}

TEST(DispatcherTest, DollarCapStopsReposting) {
  const auto labels = MakeLabels(100, 0.3, 23);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.payment_per_hit = 0.02;
  config.seed = 24;
  config.fault.abandonment_prob = 0.5;
  DispatcherConfig policy;
  policy.deadline_minutes = 150.0;
  policy.max_reposts = 10;
  // Primary posting costs at most 50 HITs x 5 rounds x $0.02 = $0.50 (less
  // with abandonment); the cap leaves no room for a full repost round.
  policy.max_dollars = 0.45;
  const Dispatcher dispatcher(HonestPool(15), policy);
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().stats.budget_exhausted);
  EXPECT_LE(result.value().total_cost_dollars, policy.max_dollars);
}

TEST(DispatcherTest, LateDeliveriesAreCountedAndKept) {
  const auto labels = MakeLabels(80, 0.3, 25);
  HitRunConfig config;
  config.judgments_per_item = 4;
  config.seed = 26;
  config.fault.late_prob = 0.5;
  config.fault.late_mean_delay_minutes = 500.0;  // far past any deadline
  DispatcherConfig policy;
  policy.deadline_minutes = 60.0;
  policy.max_reposts = 1;
  const Dispatcher dispatcher(HonestPool(16), policy);
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.late_judgments, 0u);
  // Hedged reposts raced judgments that eventually arrived: some items
  // now hold more than their quota, and that overshoot is priced.
  EXPECT_GT(result.value().stats.wasted_dollars, 0.0);
}

TEST(DispatcherTest, SpamBurstIsSurfacedInStats) {
  const auto labels = MakeLabels(120, 0.3, 27);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.seed = 28;
  config.fault.spam_burst_prob = 1.0;
  config.fault.spam_burst_window_minutes = 10.0;
  config.fault.spam_burst_duration_minutes = 60.0;
  config.fault.spam_burst_intensity = 0.9;
  const Dispatcher dispatcher(HonestPool(10), DispatcherConfig{});
  const auto result = dispatcher.Run(labels, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.spam_burst_judgments, 0u);
}

}  // namespace
}  // namespace ccdb::crowd
