#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "crowd/aggregation.h"
#include "crowd/em_aggregation.h"
#include "crowd/experiments.h"
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

WorkerPool PerfectPool(std::size_t n) {
  WorkerPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    WorkerProfile worker;
    worker.country = "Atlantis";
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 1.0;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  return pool;
}

TEST(PlatformTest, PerfectWorkersClassifyEverythingCorrectly) {
  const auto labels = MakeLabels(100, 0.3, 1);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.items_per_hit = 10;
  config.perception_flip_rate = 0.0;
  config.seed = 2;
  const CrowdRunResult result =
      RunCrowdTask(PerfectPool(20), labels, config);
  const auto classification =
      MajorityVote(result.judgments, labels.size(), 1e18);
  const auto summary = Summarize(classification, labels);
  EXPECT_EQ(summary.num_classified, 100u);
  EXPECT_EQ(summary.num_correct, 100u);
}

TEST(PlatformTest, JudgmentCountsPerItem) {
  const auto labels = MakeLabels(50, 0.3, 3);
  HitRunConfig config;
  config.judgments_per_item = 7;
  config.items_per_hit = 5;
  config.seed = 4;
  const CrowdRunResult result =
      RunCrowdTask(PerfectPool(30), labels, config);
  std::vector<std::size_t> counts(50, 0);
  for (const Judgment& judgment : result.judgments) {
    ASSERT_LT(judgment.item, 50u);
    ++counts[judgment.item];
  }
  for (std::size_t count : counts) EXPECT_EQ(count, 7u);
}

TEST(PlatformTest, NoWorkerJudgesItemTwice) {
  const auto labels = MakeLabels(40, 0.3, 5);
  HitRunConfig config;
  config.judgments_per_item = 8;
  config.items_per_hit = 10;
  config.seed = 6;
  const CrowdRunResult result =
      RunCrowdTask(PerfectPool(15), labels, config);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Judgment& judgment : result.judgments) {
    EXPECT_TRUE(seen.insert({judgment.worker, judgment.item}).second);
  }
}

TEST(PlatformTest, CostAccounting) {
  const auto labels = MakeLabels(100, 0.3, 7);
  HitRunConfig config;
  config.judgments_per_item = 10;
  config.items_per_hit = 10;
  config.payment_per_hit = 0.02;
  config.seed = 8;
  const CrowdRunResult result =
      RunCrowdTask(PerfectPool(20), labels, config);
  // 100 items × 10 judgments / 10 per HIT = 100 HITs → $2.00.
  EXPECT_NEAR(result.total_cost_dollars, 2.0, 1e-9);
  double stream_cost = 0.0;
  for (const Judgment& judgment : result.judgments) {
    stream_cost += judgment.cost_dollars;
  }
  EXPECT_NEAR(stream_cost, 2.0, 1e-9);
}

TEST(PlatformTest, TimestampsAreSortedAndPositive) {
  const auto labels = MakeLabels(60, 0.3, 9);
  HitRunConfig config;
  config.seed = 10;
  const CrowdRunResult result =
      RunCrowdTask(PerfectPool(10), labels, config);
  double last = 0.0;
  for (const Judgment& judgment : result.judgments) {
    EXPECT_GE(judgment.timestamp_minutes, last);
    last = judgment.timestamp_minutes;
  }
  EXPECT_GT(result.total_minutes, 0.0);
}

TEST(PlatformTest, MoreWorkersFinishFaster) {
  const auto labels = MakeLabels(100, 0.3, 11);
  HitRunConfig config;
  config.seed = 12;
  const CrowdRunResult small =
      RunCrowdTask(PerfectPool(5), labels, config);
  const CrowdRunResult large =
      RunCrowdTask(PerfectPool(50), labels, config);
  EXPECT_LT(large.total_minutes, small.total_minutes);
}

TEST(PlatformTest, DishonestWorkersDegradeQuality) {
  const auto labels = MakeLabels(200, 0.3, 13);
  WorkerPool spam_pool;
  for (std::size_t i = 0; i < 20; ++i) {
    WorkerProfile worker;
    worker.honest = false;
    worker.knowledge = 0.95;
    worker.positive_bias = 0.55;
    worker.judgments_per_minute = 1.5;
    worker.country = "Elbonia";
    spam_pool.workers.push_back(worker);
  }
  HitRunConfig config;
  config.seed = 14;
  const CrowdRunResult result = RunCrowdTask(spam_pool, labels, config);
  const auto classification =
      MajorityVote(result.judgments, labels.size(), 1e18);
  const auto summary = Summarize(classification, labels);
  // Spam answers carry (almost) no signal: accuracy near chance given the
  // 30% prevalence, far below the perfect pool's 100%.
  EXPECT_LT(summary.fraction_correct_of_classified, 0.75);
}

TEST(PlatformTest, DontKnowReducesCoverage) {
  const auto labels = MakeLabels(150, 0.3, 15);
  WorkerPool pool;
  for (std::size_t i = 0; i < 12; ++i) {
    WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 0.15;  // rarely knows an item
    worker.accuracy = 0.9;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.seed = 16;
  const CrowdRunResult result = RunCrowdTask(pool, labels, config);
  const auto classification =
      MajorityVote(result.judgments, labels.size(), 1e18);
  const auto summary = Summarize(classification, labels);
  EXPECT_LT(summary.num_classified, 140u);  // many items get no votes
}

TEST(PlatformTest, GoldScreeningExcludesSloppyWorkers) {
  const auto labels = MakeLabels(300, 0.3, 17);
  WorkerPool pool;
  for (std::size_t i = 0; i < 10; ++i) {  // diligent
    WorkerProfile worker;
    worker.honest = true;
    worker.lookup_diligence = 0.98;
    worker.judgments_per_minute = 1.0;
    pool.workers.push_back(worker);
  }
  for (std::size_t i = 0; i < 5; ++i) {  // sloppy
    WorkerProfile worker;
    worker.honest = false;
    worker.lookup_diligence = 0.2;
    worker.judgments_per_minute = 1.5;
    pool.workers.push_back(worker);
  }
  HitRunConfig config;
  config.lookup_mode = true;
  config.lookup_consensus_flip_rate = 0.0;
  config.allow_dont_know = false;
  config.num_gold_questions = 30;
  config.gold_exclusion_threshold = 0.75;
  config.gold_min_probes = 3;
  config.seed = 18;
  const CrowdRunResult result = RunCrowdTask(pool, labels, config);
  EXPECT_GE(result.num_excluded_workers, 3u);
  // With sloppy workers screened, accuracy should be very high.
  const auto classification =
      MajorityVote(result.judgments, labels.size(), 1e18);
  const auto summary = Summarize(classification, labels);
  EXPECT_GT(summary.fraction_correct_of_classified, 0.95);
}

TEST(PlatformTest, LookupConsensusCapsAccuracy) {
  const auto labels = MakeLabels(400, 0.3, 19);
  WorkerPool pool = PerfectPool(20);
  for (WorkerProfile& worker : pool.workers) worker.lookup_diligence = 1.0;
  HitRunConfig config;
  config.lookup_mode = true;
  config.lookup_consensus_flip_rate = 0.10;
  config.allow_dont_know = false;
  config.seed = 20;
  const CrowdRunResult result = RunCrowdTask(pool, labels, config);
  const auto classification =
      MajorityVote(result.judgments, labels.size(), 1e18);
  const auto summary = Summarize(classification, labels);
  // All workers repeat the same (sometimes wrong) consensus, so accuracy
  // tracks 1 − flip_rate instead of being boosted by majority voting.
  EXPECT_NEAR(summary.fraction_correct_of_classified, 0.90, 0.04);
}

TEST(AggregationTest, MajorityVoteBasics) {
  std::vector<Judgment> judgments;
  auto add = [&](std::uint32_t item, Answer answer, double time) {
    Judgment judgment;
    judgment.item = item;
    judgment.answer = answer;
    judgment.timestamp_minutes = time;
    judgments.push_back(judgment);
  };
  add(0, Answer::kPositive, 1.0);
  add(0, Answer::kPositive, 2.0);
  add(0, Answer::kNegative, 3.0);
  add(1, Answer::kNegative, 1.0);
  add(1, Answer::kPositive, 2.0);  // tie → unclassified
  add(2, Answer::kDontKnow, 1.0);  // only don't-know → unclassified

  const auto classification = MajorityVote(judgments, 4, 1e18);
  ASSERT_TRUE(classification[0].has_value());
  EXPECT_TRUE(*classification[0]);
  EXPECT_FALSE(classification[1].has_value());
  EXPECT_FALSE(classification[2].has_value());
  EXPECT_FALSE(classification[3].has_value());  // no judgments at all
}

TEST(AggregationTest, TimeCutoffRestrictsVotes) {
  std::vector<Judgment> judgments;
  Judgment early;
  early.item = 0;
  early.answer = Answer::kNegative;
  early.timestamp_minutes = 1.0;
  Judgment late_a = early, late_b = early;
  late_a.answer = Answer::kPositive;
  late_a.timestamp_minutes = 10.0;
  late_b.answer = Answer::kPositive;
  late_b.timestamp_minutes = 11.0;
  judgments = {early, late_a, late_b};

  const auto at_5 = MajorityVote(judgments, 1, 5.0);
  ASSERT_TRUE(at_5[0].has_value());
  EXPECT_FALSE(*at_5[0]);
  const auto at_end = MajorityVote(judgments, 1, 1e18);
  ASSERT_TRUE(at_end[0].has_value());
  EXPECT_TRUE(*at_end[0]);
}

TEST(AggregationTest, GoldJudgmentsExcludedFromVotes) {
  std::vector<Judgment> judgments;
  Judgment gold;
  gold.item = 0;
  gold.answer = Answer::kPositive;
  gold.timestamp_minutes = 1.0;
  gold.is_gold = true;
  judgments.push_back(gold);
  const auto classification = MajorityVote(judgments, 1, 1e18);
  EXPECT_FALSE(classification[0].has_value());
}

TEST(AggregationTest, CostUpToAccumulates) {
  std::vector<Judgment> judgments(3);
  judgments[0].timestamp_minutes = 1.0;
  judgments[0].cost_dollars = 0.002;
  judgments[1].timestamp_minutes = 2.0;
  judgments[1].cost_dollars = 0.002;
  judgments[2].timestamp_minutes = 9.0;
  judgments[2].cost_dollars = 0.002;
  EXPECT_NEAR(CostUpTo(judgments, 5.0), 0.004, 1e-12);
  EXPECT_NEAR(CostUpTo(judgments, 100.0), 0.006, 1e-12);
}

TEST(EmAggregationTest, MatchesMajorityOnCleanVotes) {
  // All-honest, high-accuracy votes: EM and majority should agree.
  const auto labels = MakeLabels(200, 0.3, 31);
  HitRunConfig config;
  config.judgments_per_item = 5;
  config.perception_flip_rate = 0.0;
  config.seed = 32;
  const WorkerPool pool = PerfectPool(15);
  const CrowdRunResult run = RunCrowdTask(pool, labels, config);
  const auto majority = MajorityVote(run.judgments, labels.size(), 1e18);
  const auto em = EmAggregate(run.judgments, labels.size(),
                              pool.workers.size(), EmAggregationConfig{});
  for (std::size_t m = 0; m < labels.size(); ++m) {
    if (majority[m].has_value() && em.classification[m].has_value()) {
      EXPECT_EQ(*majority[m], *em.classification[m]);
    }
  }
}

TEST(EmAggregationTest, DownweightsSpammers) {
  // A pool where spammers outnumber honest workers: majority voting is
  // poisoned, EM discovers worker reliability and recovers accuracy.
  const auto labels = MakeLabels(400, 0.3, 33);
  WorkerPool pool;
  for (int i = 0; i < 12; ++i) {  // spammers, always answer, biased
    WorkerProfile worker;
    worker.honest = false;
    worker.knowledge = 0.97;
    worker.positive_bias = 0.62;
    worker.judgments_per_minute = 1.5;
    pool.workers.push_back(worker);
  }
  for (int i = 0; i < 6; ++i) {  // honest, knowledgeable
    WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 0.9;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = 1.0;
    pool.workers.push_back(worker);
  }
  HitRunConfig config;
  config.judgments_per_item = 9;
  config.perception_flip_rate = 0.0;
  config.seed = 34;
  const CrowdRunResult run = RunCrowdTask(pool, labels, config);

  const auto majority_summary = Summarize(
      MajorityVote(run.judgments, labels.size(), 1e18), labels);
  const auto em = EmAggregate(run.judgments, labels.size(),
                              pool.workers.size(), EmAggregationConfig{});
  const auto em_summary = Summarize(em.classification, labels);

  EXPECT_GT(em_summary.fraction_correct_of_classified,
            majority_summary.fraction_correct_of_classified + 0.08);

  // Worker reliability estimates separate the two populations.
  double spam_mean = 0.0, honest_mean = 0.0;
  for (int i = 0; i < 12; ++i) spam_mean += em.worker_accuracy[i];
  for (int i = 12; i < 18; ++i) honest_mean += em.worker_accuracy[i];
  EXPECT_GT(honest_mean / 6.0, spam_mean / 12.0 + 0.15);
}

TEST(EmAggregationTest, HandlesEmptyAndGoldOnlyStreams) {
  const auto empty =
      EmAggregate({}, 10, 5, EmAggregationConfig{});
  for (const auto& label : empty.classification) {
    EXPECT_FALSE(label.has_value());
  }
  std::vector<Judgment> gold_only(3);
  for (auto& judgment : gold_only) {
    judgment.is_gold = true;
    judgment.answer = Answer::kPositive;
  }
  const auto result = EmAggregate(gold_only, 10, 5, EmAggregationConfig{});
  for (const auto& label : result.classification) {
    EXPECT_FALSE(label.has_value());
  }
}

TEST(EmAggregationTest, PosteriorsAreProbabilities) {
  const auto labels = MakeLabels(100, 0.3, 35);
  const CrowdRunResult run =
      RunCrowdTask(PerfectPool(8), labels, HitRunConfig{});
  const auto em = EmAggregate(run.judgments, labels.size(), 8,
                              EmAggregationConfig{});
  for (double p : em.posterior_positive) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_TRUE(em.converged);
}

TEST(EmAggregationTest, ConvergesWithinIterationBudget) {
  const auto labels = MakeLabels(150, 0.3, 37);
  const CrowdRunResult run =
      RunCrowdTask(PerfectPool(10), labels, HitRunConfig{});
  EmAggregationConfig config;
  config.max_iterations = 3;  // tight budget: must stop, not spin
  const auto em = EmAggregate(run.judgments, labels.size(), 10, config);
  EXPECT_LE(em.iterations, 3);
}

TEST(EmAggregationTest, WorkerAccuracyClamped) {
  // Even perfectly consistent workers must not hit accuracy 1.0 (their
  // log-odds weight must stay finite).
  const auto labels = MakeLabels(100, 0.3, 39);
  HitRunConfig config;
  config.perception_flip_rate = 0.0;
  const CrowdRunResult run =
      RunCrowdTask(PerfectPool(6), labels, config);
  const auto em = EmAggregate(run.judgments, labels.size(), 6,
                              EmAggregationConfig{});
  for (double accuracy : em.worker_accuracy) {
    EXPECT_GT(accuracy, 0.0);
    EXPECT_LT(accuracy, 1.0);
  }
}

TEST(ExperimentsTest, SetupsHaveExpectedShape) {
  const ExperimentSetup exp1 = MakeExperiment1();
  EXPECT_EQ(exp1.pool.workers.size(), 89u);
  EXPECT_TRUE(exp1.config.allow_dont_know);
  EXPECT_FALSE(exp1.config.lookup_mode);

  const ExperimentSetup exp2 = MakeExperiment2();
  EXPECT_EQ(exp2.pool.workers.size(), 27u);
  for (const WorkerProfile& worker : exp2.pool.workers) {
    EXPECT_TRUE(worker.honest);
  }

  const ExperimentSetup exp3 = MakeExperiment3();
  EXPECT_TRUE(exp3.config.lookup_mode);
  EXPECT_EQ(exp3.config.num_gold_questions, 100u);
  EXPECT_NEAR(exp3.config.payment_per_hit, 0.03, 1e-12);
}

TEST(ExperimentsTest, QualityOrderingExp1LessThanExp2LessThanExp3) {
  const auto labels = MakeLabels(500, 0.301, 21);
  double accuracies[3];
  const ExperimentSetup setups[3] = {MakeExperiment1(), MakeExperiment2(),
                                     MakeExperiment3()};
  for (int e = 0; e < 3; ++e) {
    const CrowdRunResult result =
        RunCrowdTask(setups[e].pool, labels, setups[e].config);
    const auto classification =
        MajorityVote(result.judgments, labels.size(), 1e18);
    accuracies[e] =
        Summarize(classification, labels).fraction_correct_of_classified;
  }
  EXPECT_LT(accuracies[0], accuracies[1]);
  EXPECT_LT(accuracies[1], accuracies[2]);
}

}  // namespace
}  // namespace ccdb::crowd
