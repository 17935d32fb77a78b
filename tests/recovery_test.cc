// Kill-at-point-k recovery tests: arm a crash point, run a durable
// operation until it "dies" (a throwing trap unwinds back here instead of
// _exit'ing, so recovery runs in-process), then resume against the same
// journal and require the result to be bit-identical to an uninterrupted
// run — with every journaled judgment replayed instead of re-paid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/crash_point.h"
#include "common/deadline.h"
#include "common/journal.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/expansion_manifest.h"
#include "core/perceptual_space.h"
#include "crowd/dispatch_journal.h"
#include "crowd/dispatcher.h"
#include "crowd/platform.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "factorization/checkpoint.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb {
namespace {

using crowd::DispatchResult;
using crowd::Dispatcher;
using crowd::DispatcherConfig;
using crowd::DurabilityOptions;
using crowd::DurableDispatcher;
using crowd::HitRunConfig;
using crowd::Judgment;
using crowd::WorkerPool;
using crowd::WorkerProfile;
using CrashPoints = ::ccdb::testing::CrashPoints;

/// What the throwing trap handler throws: unwinds out of the durable call
/// like a crash, but lets the test run recovery in the same process.
struct SimulatedCrash {
  std::string site;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashPoints::SetTrapHandler(
        [](const std::string& site) { throw SimulatedCrash{site}; });
  }
  void TearDown() override {
    CrashPoints::Disarm();
    CrashPoints::EnableTrace(false);
    CrashPoints::ClearTrace();
    CrashPoints::SetTrapHandler(nullptr);
  }
};

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  // The recovery ladder leaves rotated generations and forensic side files
  // (never deleted by the library) next to the base path; a fresh test must
  // clear them too, or a previous test-process run's generation would be
  // picked up as a valid resume point.
  std::remove(path.c_str());
  for (const char* suffix : {".1", ".2", ".3", ".corrupt", ".corrupt.1",
                             ".corrupt.2", ".1.corrupt", ".2.corrupt",
                             ".quarantine", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

std::vector<bool> MakeLabels(std::size_t n, double prevalence,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(prevalence);
  return labels;
}

WorkerPool HonestPool(std::size_t n) {
  WorkerPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
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
    EXPECT_EQ(a[i].timestamp_minutes, b[i].timestamp_minutes) << "at " << i;
    EXPECT_EQ(a[i].cost_dollars, b[i].cost_dollars) << "at " << i;
    EXPECT_EQ(a[i].is_gold, b[i].is_gold) << "at " << i;
  }
}

void ExpectSameDispatch(const DispatchResult& a, const DispatchResult& b) {
  ExpectSameStream(a.judgments, b.judgments);
  EXPECT_EQ(a.total_minutes, b.total_minutes);
  EXPECT_EQ(a.total_cost_dollars, b.total_cost_dollars);
  EXPECT_EQ(a.stats.repost_rounds, b.stats.repost_rounds);
  EXPECT_EQ(a.stats.reposted_items, b.stats.reposted_items);
  EXPECT_EQ(a.stats.duplicates_dropped, b.stats.duplicates_dropped);
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted);
}

// ----------------------------------------------------- dispatch recovery

/// A dispatch with enough faults to need repost rounds — the journal then
/// holds several postings, which is the interesting recovery surface.
struct DispatchScenario {
  std::vector<bool> labels = MakeLabels(60, 0.3, 17);
  WorkerPool pool = HonestPool(20);
  HitRunConfig hit;
  DispatcherConfig policy;

  DispatchScenario() {
    hit.judgments_per_item = 5;
    hit.seed = 18;
    hit.fault.abandonment_prob = 0.4;
    policy.deadline_minutes = 200.0;
    policy.max_reposts = 5;
    policy.backoff_initial_minutes = 2.0;
  }

  DispatchResult Baseline() const {
    auto result = Dispatcher(pool, policy).Run(labels, hit);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  }

  StatusOr<DispatchResult> RunDurable(const std::string& journal) const {
    DurabilityOptions durability;
    durability.journal_path = journal;
    return DurableDispatcher(pool, policy, durability).Run(labels, hit);
  }
};

TEST_F(RecoveryTest, FreshDurableDispatchMatchesPlainDispatcher) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();
  const std::string journal = FreshPath("fresh_dispatch.jnl");
  auto durable = scenario.RunDurable(journal);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ExpectSameDispatch(baseline, durable.value());
  // A run with no crash replays nothing.
  EXPECT_EQ(durable.value().stats.replayed_postings, 0u);
  EXPECT_EQ(durable.value().stats.replayed_judgments, 0u);
  EXPECT_EQ(durable.value().stats.replayed_dollars, 0.0);

  // The journal records a complete dispatch.
  auto contents = ReadJournal(journal);
  ASSERT_TRUE(contents.ok());
  auto state = crowd::ReplayDispatchJournal(contents.value().records);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_TRUE(state.value().complete);
  EXPECT_GT(state.value().paid_judgments(), 0u);
}

TEST_F(RecoveryTest, ResumeOfCompletedDispatchReplaysEverything) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();
  const std::string journal = FreshPath("completed_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(journal).ok());

  auto contents = ReadJournal(journal);
  ASSERT_TRUE(contents.ok());
  auto state = crowd::ReplayDispatchJournal(contents.value().records);
  ASSERT_TRUE(state.ok());

  auto resumed = scenario.RunDurable(journal);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameDispatch(baseline, resumed.value());
  EXPECT_GT(resumed.value().stats.replayed_postings, 0u);
  EXPECT_EQ(resumed.value().stats.replayed_judgments,
            state.value().paid_judgments());
  EXPECT_DOUBLE_EQ(resumed.value().stats.replayed_dollars,
                   state.value().paid_dollars());
}

TEST_F(RecoveryTest, KillAtEveryCrashPointThenResumeIsBitIdentical) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();

  // Enumerate the crash surface of an uninterrupted durable run.
  CrashPoints::EnableTrace(true);
  ASSERT_TRUE(scenario.RunDurable(FreshPath("trace_dispatch.jnl")).ok());
  const std::vector<std::string> trace = CrashPoints::Trace();
  CrashPoints::EnableTrace(false);
  CrashPoints::ClearTrace();
  ASSERT_FALSE(trace.empty());

  std::map<std::string, std::uint64_t> site_counts;
  for (const std::string& site : trace) ++site_counts[site];
  ASSERT_TRUE(site_counts.count("dispatch.begin"));
  ASSERT_TRUE(site_counts.count("dispatch.judgment"));
  ASSERT_TRUE(site_counts.count("dispatch.posting_end"));
  ASSERT_TRUE(site_counts.count("dispatch.end"));

  int scenario_index = 0;
  for (const auto& [site, count] : site_counts) {
    // Killing at every single judgment append would run the dispatch
    // hundreds of times; first, middle and last occurrence cover the
    // empty-prefix, partial-posting and complete-posting cases.
    std::set<std::uint64_t> hits = {1, (count + 1) / 2, count};
    for (std::uint64_t hit : hits) {
      SCOPED_TRACE(site + ":" + std::to_string(hit));
      const std::string journal = FreshPath(
          "kill_" + std::to_string(scenario_index++) + ".jnl");

      CrashPoints::Arm(site, hit);
      bool crashed = false;
      try {
        auto result = scenario.RunDurable(journal);
        // ccdb-lint: allow(status-nodiscard) — the run is expected to die at
        // the armed crash point; the result is unreachable on the crash path.
        (void)result;
      } catch (const SimulatedCrash& crash) {
        crashed = true;
        EXPECT_EQ(crash.site, site);
      }
      CrashPoints::Disarm();
      ASSERT_TRUE(crashed);

      // What the journal says was paid before the crash is exactly what
      // the resume must replay instead of buying again.
      auto contents = ReadJournal(journal);
      ASSERT_TRUE(contents.ok()) << contents.status().ToString();
      auto state = crowd::ReplayDispatchJournal(contents.value().records);
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      const double paid_before = state.value().paid_dollars();
      const std::size_t judged_before = state.value().paid_judgments();

      auto resumed = scenario.RunDurable(journal);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectSameDispatch(baseline, resumed.value());
      EXPECT_EQ(resumed.value().stats.replayed_judgments, judged_before);
      EXPECT_DOUBLE_EQ(resumed.value().stats.replayed_dollars, paid_before);
    }
  }
}

TEST_F(RecoveryTest, DispatchJournalOfDifferentRunIsRejected) {
  const DispatchScenario scenario;
  const std::string journal = FreshPath("mismatch_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(journal).ok());

  DispatchScenario other = scenario;
  other.hit.seed = 9999;  // different dispatch, same journal
  auto resumed = other.RunDurable(journal);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

// A field missing from a fingerprint would let a resume splice a journal
// written for other inputs into this run, so changing any identity field
// must change it. The caller-side stop signal is not an input and must not.
TEST_F(RecoveryTest, DispatchFingerprintCoversEveryIdentityField) {
  using S = DispatchScenario;
  const S base;
  const auto fingerprint = [](const S& s) {
    return crowd::DispatchFingerprint(s.pool, s.labels, s.hit, s.policy);
  };
  S stopped = base;
  stopped.policy.stop = StopCondition(Deadline::AfterSeconds(0.0));
  EXPECT_EQ(fingerprint(stopped), fingerprint(base));

  const struct {
    const char* field;
    void (*mutate)(S&);
  } kChanges[] = {
      {"label", [](S& s) { s.labels[3] = !s.labels[3]; }},
      {"worker", [](S& s) { s.pool.workers[2].accuracy = 0.5; }},
      {"hit.judgments_per_item", [](S& s) { ++s.hit.judgments_per_item; }},
      {"hit.items_per_hit", [](S& s) { ++s.hit.items_per_hit; }},
      {"hit.payment_per_hit", [](S& s) { s.hit.payment_per_hit = 0.05; }},
      {"hit.allow_dont_know",
       [](S& s) { s.hit.allow_dont_know = !s.hit.allow_dont_know; }},
      {"hit.lookup_mode", [](S& s) { s.hit.lookup_mode = !s.hit.lookup_mode; }},
      {"hit.lookup_consensus_flip_rate",
       [](S& s) { s.hit.lookup_consensus_flip_rate = 0.2; }},
      {"hit.lookup_contested_rate",
       [](S& s) { s.hit.lookup_contested_rate = 0.2; }},
      {"hit.perception_flip_rate",
       [](S& s) { s.hit.perception_flip_rate = 0.2; }},
      {"hit.num_gold_questions", [](S& s) { ++s.hit.num_gold_questions; }},
      {"hit.gold_exclusion_threshold",
       [](S& s) { s.hit.gold_exclusion_threshold = 0.5; }},
      {"hit.gold_min_probes", [](S& s) { ++s.hit.gold_min_probes; }},
      {"hit.seed", [](S& s) { ++s.hit.seed; }},
      {"fault.abandonment_prob",
       [](S& s) { s.hit.fault.abandonment_prob = 0.1; }},
      {"fault.abandon_time_fraction",
       [](S& s) { s.hit.fault.abandon_time_fraction = 0.9; }},
      {"fault.straggler_fraction",
       [](S& s) { s.hit.fault.straggler_fraction = 0.1; }},
      {"fault.straggler_pareto_alpha",
       [](S& s) { s.hit.fault.straggler_pareto_alpha = 2.5; }},
      {"fault.churn_prob", [](S& s) { s.hit.fault.churn_prob = 0.1; }},
      {"fault.churn_window_minutes",
       [](S& s) { s.hit.fault.churn_window_minutes = 60.0; }},
      {"fault.duplicate_prob", [](S& s) { s.hit.fault.duplicate_prob = 0.1; }},
      {"fault.duplicate_delay_minutes",
       [](S& s) { s.hit.fault.duplicate_delay_minutes = 5.0; }},
      {"fault.late_prob", [](S& s) { s.hit.fault.late_prob = 0.1; }},
      {"fault.late_mean_delay_minutes",
       [](S& s) { s.hit.fault.late_mean_delay_minutes = 5.0; }},
      {"fault.spam_burst_prob",
       [](S& s) { s.hit.fault.spam_burst_prob = 0.1; }},
      {"fault.spam_burst_window_minutes",
       [](S& s) { s.hit.fault.spam_burst_window_minutes = 60.0; }},
      {"fault.spam_burst_duration_minutes",
       [](S& s) { s.hit.fault.spam_burst_duration_minutes = 5.0; }},
      {"fault.spam_burst_intensity",
       [](S& s) { s.hit.fault.spam_burst_intensity = 0.5; }},
      {"fault.spam_burst_positive_bias",
       [](S& s) { s.hit.fault.spam_burst_positive_bias = 0.5; }},
      {"fault.seed", [](S& s) { ++s.hit.fault.seed; }},
      {"policy.deadline_minutes",
       [](S& s) { s.policy.deadline_minutes = 100.0; }},
      {"policy.max_reposts", [](S& s) { ++s.policy.max_reposts; }},
      {"policy.backoff_initial_minutes",
       [](S& s) { s.policy.backoff_initial_minutes = 1.0; }},
      {"policy.max_dollars", [](S& s) { s.policy.max_dollars = 5.0; }},
  };
  for (const auto& change : kChanges) {
    S changed = base;
    change.mutate(changed);
    EXPECT_NE(fingerprint(changed), fingerprint(base)) << change.field;
  }
}

TEST(ExpansionFingerprintTest, CoversEveryIdentityField) {
  struct Inputs {
    std::vector<std::uint32_t> items = {4, 8, 15};
    std::vector<Judgment> judgments = {
        {0, 1, crowd::Answer::kPositive, 1.5, 0.002, false},
        {2, 3, crowd::Answer::kNegative, 2.5, 0.002, false}};
    double total_minutes = 30.0;
    core::IncrementalExpansionOptions options;
  };
  const auto fingerprint = [](const Inputs& in) {
    return core::ExpansionFingerprint(in.items, in.judgments,
                                      in.total_minutes, in.options);
  };
  const Inputs base;
  Inputs stopped;
  stopped.options.stop = StopCondition(Deadline::AfterSeconds(0.0));
  stopped.options.extractor.smo.stop = stopped.options.stop;
  EXPECT_EQ(fingerprint(stopped), fingerprint(base));

  const struct {
    const char* field;
    void (*mutate)(Inputs&);
  } kChanges[] = {
      {"item", [](Inputs& in) { ++in.items[1]; }},
      {"judgment.item", [](Inputs& in) { ++in.judgments[1].item; }},
      {"judgment.worker", [](Inputs& in) { ++in.judgments[1].worker; }},
      {"judgment.answer",
       [](Inputs& in) { in.judgments[1].answer = crowd::Answer::kDontKnow; }},
      {"judgment.timestamp_minutes",
       [](Inputs& in) { in.judgments[1].timestamp_minutes = 3.0; }},
      {"judgment.cost_dollars",
       [](Inputs& in) { in.judgments[1].cost_dollars = 0.003; }},
      {"judgment.is_gold", [](Inputs& in) { in.judgments[1].is_gold = true; }},
      {"total_minutes", [](Inputs& in) { in.total_minutes = 25.0; }},
      {"checkpoint_interval_minutes",
       [](Inputs& in) { in.options.checkpoint_interval_minutes = 2.0; }},
      {"max_dollars", [](Inputs& in) { in.options.max_dollars = 1.0; }},
      {"extractor.kernel.gamma",
       [](Inputs& in) { in.options.extractor.kernel.gamma = 0.5; }},
      {"extractor.gamma_scale",
       [](Inputs& in) { in.options.extractor.gamma_scale = 0.5; }},
      {"extractor.cost", [](Inputs& in) { in.options.extractor.cost = 1.0; }},
      {"extractor.balance_class_costs",
       [](Inputs& in) { in.options.extractor.balance_class_costs = true; }},
      {"extractor.epsilon",
       [](Inputs& in) { in.options.extractor.epsilon = 0.2; }},
      {"extractor.smo.max_iterations",
       [](Inputs& in) { ++in.options.extractor.smo.max_iterations; }},
  };
  for (const auto& change : kChanges) {
    Inputs changed;
    change.mutate(changed);
    EXPECT_NE(fingerprint(changed), fingerprint(base)) << change.field;
  }
}

// ---------------------------------------------------- expansion recovery

class ExpansionRecoveryTest : public RecoveryTest {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::SyntheticWorld(data::TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();
    core::PerceptualSpaceOptions options;
    options.model.dims = 16;
    options.trainer.max_epochs = 12;
    options.trainer.learning_rate = 0.02;
    space_ = new core::PerceptualSpace(
        core::PerceptualSpace::Build(ratings, options));

    Rng rng(29);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_->num_items(), 120)) {
      sample_.push_back(static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      for (int vote = 0; vote < 3; ++vote) {
        Judgment judgment;
        judgment.item = static_cast<std::uint32_t>(i);
        judgment.answer = world_->GenreLabel(0, sample_[i])
                              ? crowd::Answer::kPositive
                              : crowd::Answer::kNegative;
        judgment.timestamp_minutes = rng.Uniform(0.0, 30.0);
        judgment.cost_dollars = 0.002;
        judgments_.push_back(judgment);
      }
    }
    std::sort(judgments_.begin(), judgments_.end(),
              [](const Judgment& a, const Judgment& b) {
                return a.timestamp_minutes < b.timestamp_minutes;
              });
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
    sample_.clear();
    judgments_.clear();
  }

  static core::IncrementalExpansionOptions Options() {
    core::IncrementalExpansionOptions options;
    options.checkpoint_interval_minutes = 5.0;
    return options;
  }

  /// The journal-free run every durable run must reproduce.
  static std::vector<core::ExpansionCheckpoint> Baseline() {
    auto baseline =
        RunIncrementalExpansion(*space_, sample_, judgments_, 30.0, Options());
    EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
    return baseline.ok() ? baseline.value()
                         : std::vector<core::ExpansionCheckpoint>{};
  }

  static void ExpectSameCheckpoints(
      const std::vector<core::ExpansionCheckpoint>& a,
      const std::vector<core::ExpansionCheckpoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].minutes, b[i].minutes) << "checkpoint " << i;
      EXPECT_EQ(a[i].dollars_spent, b[i].dollars_spent) << "checkpoint " << i;
      EXPECT_EQ(a[i].training_size, b[i].training_size) << "checkpoint " << i;
      EXPECT_EQ(a[i].crowd_classification, b[i].crowd_classification)
          << "checkpoint " << i;
      EXPECT_EQ(a[i].extracted, b[i].extracted) << "checkpoint " << i;
      EXPECT_EQ(a[i].extractor_trained, b[i].extractor_trained)
          << "checkpoint " << i;
    }
  }

  static data::SyntheticWorld* world_;
  static core::PerceptualSpace* space_;
  static std::vector<std::uint32_t> sample_;
  static std::vector<Judgment> judgments_;
};

data::SyntheticWorld* ExpansionRecoveryTest::world_ = nullptr;
core::PerceptualSpace* ExpansionRecoveryTest::space_ = nullptr;
std::vector<std::uint32_t> ExpansionRecoveryTest::sample_;
std::vector<Judgment> ExpansionRecoveryTest::judgments_;

TEST_F(ExpansionRecoveryTest, DurableRunMatchesPlainExpansion) {
  const auto baseline = Baseline();
  core::DurableExpansionOptions durable;
  durable.manifest_path = FreshPath("fresh_expansion.jnl");
  auto result = core::RunIncrementalExpansion(*space_, sample_, judgments_,
                                              30.0, Options(), &durable);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameCheckpoints(baseline, result.value());

  auto manifest = core::LoadExpansionManifest(durable.manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_TRUE(manifest.value().finished);
  EXPECT_EQ(manifest.value().checkpoints.size(), baseline.size());
}

TEST_F(ExpansionRecoveryTest, KillAtEveryCheckpointThenResumeIsBitIdentical) {
  const auto baseline = Baseline();
  ASSERT_EQ(baseline.size(), 6u);

  for (const std::string& site :
       {std::string("expansion.begin"), std::string("expansion.checkpoint"),
        std::string("expansion.finish")}) {
    const std::uint64_t occurrences =
        site == "expansion.checkpoint" ? baseline.size() : 1;
    for (std::uint64_t hit = 1; hit <= occurrences; ++hit) {
      SCOPED_TRACE(site + ":" + std::to_string(hit));
      core::DurableExpansionOptions durable;
      durable.manifest_path =
          FreshPath("kill_expansion_" + site + std::to_string(hit) + ".jnl");

      CrashPoints::Arm(site, hit);
      bool crashed = false;
      try {
        auto result = core::RunIncrementalExpansion(
            *space_, sample_, judgments_, 30.0, Options(), &durable);
        // ccdb-lint: allow(status-nodiscard) — the run is expected to die at
        // the armed crash point; the result is unreachable on the crash path.
        (void)result;
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      CrashPoints::Disarm();
      ASSERT_TRUE(crashed);

      auto resumed = core::RunIncrementalExpansion(
          *space_, sample_, judgments_, 30.0, Options(), &durable);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectSameCheckpoints(baseline, resumed.value());
    }
  }
}

TEST_F(ExpansionRecoveryTest, ManifestOfDifferentExpansionIsRejected) {
  core::DurableExpansionOptions durable;
  durable.manifest_path = FreshPath("mismatch_expansion.jnl");
  ASSERT_TRUE(core::RunIncrementalExpansion(*space_, sample_, judgments_,
                                            30.0, Options(), &durable)
                  .ok());
  // Same manifest, shorter run: different fingerprint.
  auto resumed = core::RunIncrementalExpansion(
      *space_, sample_, judgments_, 25.0, Options(), &durable);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ trainer recovery

class TrainerRecoveryTest : public RecoveryTest {
 protected:
  static RatingDataset MakeData(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Rating> ratings;
    for (std::uint32_t m = 0; m < 30; ++m) {
      for (std::uint32_t u = 0; u < 40; ++u) {
        if (!rng.Bernoulli(0.4)) continue;
        ratings.push_back(
            {m, u, static_cast<float>(rng.Uniform(1.0, 5.0))});
      }
    }
    return RatingDataset(30, 40, std::move(ratings));
  }

  static void ExpectSameModel(const factorization::FactorModel& a,
                              const factorization::FactorModel& b) {
    // Bitwise equality of the full trainable state.
    EXPECT_EQ(factorization::EncodeFactorModel(a),
              factorization::EncodeFactorModel(b));
  }
};

TEST_F(TrainerRecoveryTest, SgdCrashAtCheckpointThenResumeIsBitIdentical) {
  const RatingDataset data = MakeData(41);
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 8;
  trainer.learning_rate = 0.02;
  trainer.validation_fraction = 0.2;
  trainer.patience = 4;

  // Both model kinds: the Euclidean embedding the paper's space uses and
  // the SVD dot-product model ablation_space compares it against.
  for (const auto& [kind, kind_name] :
       {std::pair{factorization::ModelKind::kEuclideanEmbedding, "euclid"},
        std::pair{factorization::ModelKind::kSvdDotProduct, "svd"}}) {
    SCOPED_TRACE(kind_name);
    factorization::FactorModelConfig model_config;
    model_config.kind = kind;
    model_config.dims = 8;

    factorization::FactorModel reference(model_config, data);
    const auto trained = TrainSgd(trainer, data, reference);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    const factorization::TrainingReport& baseline = trained.value();

    // One snapshot per completed epoch; early stopping may end the run
    // before max_epochs, so derive the crash surface from the baseline.
    const auto last_epoch = static_cast<std::uint64_t>(baseline.epochs_run);
    ASSERT_GE(last_epoch, 2u);
    for (std::uint64_t crash_epoch :
         std::set<std::uint64_t>{1, (last_epoch + 1) / 2, last_epoch}) {
      SCOPED_TRACE("crash at epoch " + std::to_string(crash_epoch));
      factorization::TrainerCheckpointOptions checkpoint;
      checkpoint.path = FreshPath(std::string("sgd_crash_") + kind_name +
                                  "_" + std::to_string(crash_epoch) +
                                  ".ckpt");

      factorization::FactorModel crashed(model_config, data);
      CrashPoints::Arm("sgd.checkpoint", crash_epoch);
      EXPECT_THROW(
          { auto r = TrainSgd(trainer, data, crashed, &checkpoint); },
          SimulatedCrash);
      CrashPoints::Disarm();

      factorization::FactorModel resumed(model_config, data);
      auto report = TrainSgd(trainer, data, resumed, &checkpoint);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ExpectSameModel(reference, resumed);
      EXPECT_EQ(report.value().validation_rmse, baseline.validation_rmse);
      EXPECT_EQ(report.value().epochs_run, baseline.epochs_run);
      EXPECT_EQ(report.value().early_stopped, baseline.early_stopped);

      // The final snapshot short-circuits a third run entirely.
      factorization::FactorModel restored(model_config, data);
      auto again = TrainSgd(trainer, data, restored, &checkpoint);
      ASSERT_TRUE(again.ok());
      ExpectSameModel(reference, restored);
    }
  }
}

TEST_F(TrainerRecoveryTest, SgdCheckpointOfDifferentRunIsRejected) {
  const RatingDataset data = MakeData(43);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 3;

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_mismatch.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  trainer.seed = 12345;  // different schedule, same snapshot file
  factorization::FactorModel other(model_config, data);
  auto resumed = TrainSgd(trainer, data, other, &checkpoint);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

// The schedule bytes TrainSgd fingerprints a run by: its config's
// max_epochs, learning_rate, lr_decay, validation_fraction, patience and
// seed. A snapshot written with them belongs to that run.
std::string SgdSchedule(const factorization::SgdTrainerConfig& config) {
  ByteWriter w;
  w.PutU64(static_cast<std::uint64_t>(config.max_epochs));
  w.PutF64(config.learning_rate);
  w.PutF64(config.lr_decay);
  w.PutF64(config.validation_fraction);
  w.PutU64(static_cast<std::uint64_t>(config.patience));
  w.PutU64(config.seed);
  return w.Take();
}

TEST_F(TrainerRecoveryTest, SgdSnapshotWithTrainRmseSeriesIsRejected) {
  // The snapshot after the first epoch of a run without a holdout, written
  // by hand twice: in the current loop-state layout, and in the older one
  // that also kept a train-RMSE series ahead of the validation series. The
  // first resumes the run bit for bit; the second must be rejected, not
  // misread.
  const RatingDataset data = MakeData(47);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 3;

  factorization::FactorModel reference(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, reference).ok());
  factorization::SgdTrainerConfig first_epoch = trainer;
  first_epoch.max_epochs = 1;
  factorization::FactorModel after_one(model_config, data);
  ASSERT_TRUE(TrainSgd(first_epoch, data, after_one).ok());

  const auto write_snapshot = [&](bool older_layout) {
    ByteWriter w;
    w.PutU64(1);                                         // epochs run
    w.PutF64(trainer.learning_rate * trainer.lr_decay);  // next rate
    w.PutF64(std::numeric_limits<double>::infinity());   // best validation
    w.PutU64(0);       // epochs without improvement
    w.PutBool(false);  // early stopped
    if (older_layout) {
      factorization::PutDoubles(w, {after_one.EvaluateRmse(data)});
    }
    factorization::PutDoubles(w, {});  // the validation series
    factorization::TrainerCheckpointOptions checkpoint;
    checkpoint.path = FreshPath(older_layout ? "sgd_older_layout.ckpt"
                                             : "sgd_layout.ckpt");
    EXPECT_TRUE(factorization::WriteTrainerSnapshot(
                    checkpoint, SgdSchedule(trainer), data, w.Take(),
                    after_one)
                    .ok());
    return checkpoint;
  };

  const factorization::TrainerCheckpointOptions current =
      write_snapshot(false);
  factorization::FactorModel resumed(model_config, data);
  const auto report = TrainSgd(trainer, data, resumed, &current);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().epochs_run, trainer.max_epochs);
  ExpectSameModel(reference, resumed);

  const factorization::TrainerCheckpointOptions older = write_snapshot(true);
  factorization::FactorModel misread(model_config, data);
  EXPECT_EQ(TrainSgd(trainer, data, misread, &older).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainerSnapshotCodecTest, GetDoublesChecksItsLengthAgainstTheBytesLeft) {
  // A series length is checked against the bytes left before the series
  // is allocated: 3 doubles where 2 remain, and 2^61 of them, are both
  // InvalidArgument; a series that fits reads back whole.
  ByteWriter short_series;
  short_series.PutU64(3);
  short_series.PutF64(1.0);
  short_series.PutF64(2.0);
  ByteWriter huge_series;
  huge_series.PutU64(1ull << 61);
  for (const ByteWriter* w : {&short_series, &huge_series}) {
    ByteReader r(w->bytes());
    std::vector<double> values;
    EXPECT_EQ(factorization::GetDoubles(r, values, "series").code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(values.empty());
  }
  ByteWriter fits;
  factorization::PutDoubles(fits, {1.0, -0.0, 2.5});
  ByteReader r(fits.bytes());
  std::vector<double> values;
  ASSERT_TRUE(factorization::GetDoubles(r, values, "series").ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(values, (std::vector<double>{1.0, -0.0, 2.5}));
}

TEST_F(TrainerRecoveryTest, SnapshotFileIsMagicThenCrcThenPayload) {
  // The snapshot file layout, pinned byte for byte so that snapshots
  // written by earlier builds still resume: the magic CCDBCKP1, the
  // little-endian CRC-32 of the payload, then the payload, which is the
  // run's u64 fingerprint, the loop state and the encoded model, each
  // length-prefixed. A file assembled by hand in that layout resumes.
  const RatingDataset data = MakeData(61);
  factorization::FactorModelConfig model_config;
  model_config.dims = 4;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 1;
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model).ok());

  factorization::TrainerCheckpointOptions written;
  written.path = FreshPath("sgd_layout_pinned.ckpt");
  const std::string loop_state = "loop state bytes";
  ASSERT_TRUE(factorization::WriteTrainerSnapshot(
                  written, SgdSchedule(trainer), data, loop_state, model)
                  .ok());
  const StatusOr<std::string> file = Fs::Posix().ReadFile(written.path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::string& bytes = file.value();
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes.substr(0, 8), "CCDBCKP1");
  const std::string payload = bytes.substr(12);
  const std::uint32_t crc = Crc32(payload);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[8 + k]),
              (crc >> (8 * k)) & 0xFF)
        << "CRC byte " << k;
  }
  ByteReader r(payload);
  const std::uint64_t fingerprint = r.GetU64();
  EXPECT_EQ(r.GetBytes(), loop_state);
  EXPECT_EQ(r.GetBytes(), factorization::EncodeFactorModel(model));
  EXPECT_TRUE(r.AtEnd());

  ByteWriter by_hand;
  by_hand.PutU64(fingerprint);
  by_hand.PutBytes(loop_state);
  by_hand.PutBytes(factorization::EncodeFactorModel(model));
  const std::uint32_t by_hand_crc = Crc32(by_hand.bytes());
  std::string assembled = "CCDBCKP1";
  for (int k = 0; k < 4; ++k) {
    assembled.push_back(static_cast<char>((by_hand_crc >> (8 * k)) & 0xFF));
  }
  assembled += by_hand.bytes();
  EXPECT_EQ(assembled, bytes);
  factorization::TrainerCheckpointOptions assembled_file;
  assembled_file.path = FreshPath("sgd_layout_by_hand.ckpt");
  ASSERT_TRUE(
      Fs::Posix().WriteFileAtomic(assembled_file.path, assembled).ok());
  factorization::FactorModel resumed(model_config, data);
  const StatusOr<std::string> state = factorization::ReadTrainerSnapshot(
      assembled_file, SgdSchedule(trainer), data, resumed);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state.value(), loop_state);
  ExpectSameModel(model, resumed);
}

// Flips one payload bit in the snapshot file at `path`.
void CorruptSnapshotFile(const std::string& path) {
  auto bytes = Fs::Posix().ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, corrupted).ok());
}

TEST_F(TrainerRecoveryTest, CorruptSnapshotFallsBackToOlderGeneration) {
  const RatingDataset data = MakeData(53);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 2;

  factorization::FactorModel reference(model_config, data);
  const auto baseline = TrainSgd(trainer, data, reference);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_corrupt.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  // Corrupt the live snapshot (epoch 2). Recovery must not trust it: the
  // ladder renames it aside and resumes from the epoch-1 generation,
  // retraining the lost epoch to the bit-identical final state.
  CorruptSnapshotFile(checkpoint.path);

  factorization::FactorModel resumed(model_config, data);
  auto report = TrainSgd(trainer, data, resumed, &checkpoint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().epochs_run, baseline.value().epochs_run);
  ExpectSameModel(reference, resumed);

  // The corrupt file was quarantined for forensics, never deleted.
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".corrupt").ok());
}

TEST_F(TrainerRecoveryTest, AllGenerationsCorruptMeansFreshStart) {
  const RatingDataset data = MakeData(59);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 2;

  factorization::FactorModel reference(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, reference).ok());

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_corrupt_all.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  CorruptSnapshotFile(checkpoint.path);
  CorruptSnapshotFile(checkpoint.path + ".1");

  // Every generation is invalid: the run restarts from scratch instead of
  // failing — and still converges to the bit-identical final state.
  factorization::FactorModel resumed(model_config, data);
  auto report = TrainSgd(trainer, data, resumed, &checkpoint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSameModel(reference, resumed);
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".corrupt").ok());
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".1.corrupt").ok());
}

}  // namespace
}  // namespace ccdb
