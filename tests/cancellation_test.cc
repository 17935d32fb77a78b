#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/io.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/expansion_manifest.h"
#include "core/perceptual_space.h"
#include "crowd/dispatcher.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "factorization/checkpoint.h"
#include "factorization/sgd_trainer.h"
#include "svm/smo_solver.h"
#include "svm/tsvm.h"

namespace ccdb {
namespace {

// ---------------------------------------------------------------- deadline

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, NonFiniteMeansNever) {
  EXPECT_FALSE(Deadline::AfterSeconds(
                   std::numeric_limits<double>::infinity())
                   .has_deadline());
  EXPECT_FALSE(Deadline::AfterSeconds(std::nan("")).has_deadline());
  EXPECT_FALSE(Deadline::AfterSeconds(1e13).has_deadline());
}

TEST(DeadlineTest, ZeroIsAlreadyExpired) {
  const Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  const Deadline d = Deadline::AfterSeconds(3600.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 3000.0);
}

TEST(DeadlineTest, EarlierPicksTheTighterBound) {
  const Deadline never = Deadline::Never();
  const Deadline soon = Deadline::AfterSeconds(1.0);
  const Deadline later = Deadline::AfterSeconds(100.0);
  EXPECT_FALSE(Deadline::Earlier(never, never).has_deadline());
  EXPECT_LE(Deadline::Earlier(soon, later).RemainingSeconds(), 1.0);
  EXPECT_LE(Deadline::Earlier(later, soon).RemainingSeconds(), 1.0);
  EXPECT_LE(Deadline::Earlier(never, soon).RemainingSeconds(), 1.0);
}

// ------------------------------------------------------------ cancellation

TEST(CancellationTest, DefaultTokenNeverFires) {
  const CancellationToken token;
  EXPECT_FALSE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, SourceFiresItsTokens) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  source.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, TokenVisibleAcrossThreads) {
  CancellationSource source;
  const CancellationToken token = source.token();
  // ccdb-lint: allow(raw-thread) — the test exercises raw cross-thread token
  // visibility; a pool would hide the handoff.
  std::thread firer([&source] { source.Cancel(); });
  while (!token.cancelled()) {
    std::this_thread::yield();
  }
  firer.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(StopConditionTest, DefaultNeverStops) {
  const StopCondition stop;
  EXPECT_FALSE(stop.ShouldStop());
  EXPECT_TRUE(stop.ToStatus().ok());
}

TEST(StopConditionTest, CancellationBeatsDeadline) {
  CancellationSource source;
  source.Cancel();
  const StopCondition stop(source.token(), Deadline::AfterSeconds(0.0));
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_EQ(stop.ToStatus("stage").code(), StatusCode::kCancelled);
}

TEST(StopConditionTest, DeadlineAloneYieldsDeadlineExceeded) {
  const StopCondition stop(Deadline::AfterSeconds(0.0));
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_EQ(stop.ToStatus("stage").code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------- trainers

RatingDataset SmallDataset(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Rating> ratings;
  for (std::uint32_t m = 0; m < 30; ++m) {
    for (std::uint32_t u = 0; u < 20; ++u) {
      if (!rng.Bernoulli(0.5)) continue;
      ratings.push_back({m, u, static_cast<float>(rng.Uniform(1.0, 5.0))});
    }
  }
  return RatingDataset(30, 20, std::move(ratings));
}

TEST(TrainerCancellationTest, PreStoppedSgdRunsZeroEpochs) {
  const RatingDataset data = SmallDataset(3);
  factorization::FactorModelConfig model_config;
  model_config.dims = 4;
  CancellationSource source;
  source.Cancel();
  struct PreStop {
    const char* name;
    StopCondition stop;
    StatusCode code;
  };
  const PreStop cases[] = {
      {"cancelled token", StopCondition(source.token()),
       StatusCode::kCancelled},
      {"expired deadline", StopCondition(Deadline::AfterSeconds(0.0)),
       StatusCode::kDeadlineExceeded},
  };
  for (const PreStop& pre_stop : cases) {
    SCOPED_TRACE(pre_stop.name);
    factorization::FactorModel model(model_config, data);
    factorization::SgdTrainerConfig config;
    config.max_epochs = 50;
    config.stop = pre_stop.stop;
    const auto report = TrainSgd(config, data, model);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().epochs_run, 0);
    // No step ran: the model is still its initialization.
    EXPECT_EQ(factorization::EncodeFactorModel(model),
              factorization::EncodeFactorModel(
                  factorization::FactorModel(model_config, data)));
    EXPECT_EQ(report.value().stop_status.code(), pre_stop.code);
  }
}

// Removes a snapshot file and the older generations kept beside it.
void RemoveSnapshots(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

bool SnapshotExists(const std::string& path) {
  const StatusOr<bool> exists = ResolveFs(nullptr).Exists(path);
  return exists.ok() && exists.value();
}

TEST(TrainerCancellationTest, PreCancelledSgdWithSnapshotsResumesExactly) {
  const RatingDataset data = SmallDataset(3);
  factorization::FactorModelConfig model_config;
  model_config.dims = 4;
  factorization::SgdTrainerConfig config;
  config.max_epochs = 6;
  factorization::FactorModel reference(model_config, data);
  const auto uninterrupted = TrainSgd(config, data, reference);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();

  factorization::TrainerCheckpointOptions snapshots;
  snapshots.path = ::testing::TempDir() + "/cancelled_sgd.ckpt";
  RemoveSnapshots(snapshots.path);
  CancellationSource source;
  source.Cancel();
  factorization::SgdTrainerConfig stopped = config;
  stopped.stop = StopCondition(source.token());
  factorization::FactorModel model(model_config, data);
  const auto cancelled = TrainSgd(stopped, data, model, &snapshots);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled.value().epochs_run, 0);
  EXPECT_EQ(cancelled.value().stop_status.code(), StatusCode::kCancelled);
  // No epoch ran, so no snapshot may claim one did (let alone completion).
  EXPECT_FALSE(SnapshotExists(snapshots.path));

  factorization::FactorModel resumed(model_config, data);
  const auto report = TrainSgd(config, data, resumed, &snapshots);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().stop_status.ok());
  EXPECT_EQ(report.value().epochs_run, uninterrupted.value().epochs_run);
  EXPECT_EQ(factorization::EncodeFactorModel(resumed),
            factorization::EncodeFactorModel(reference));
  RemoveSnapshots(snapshots.path);
}

TEST(TrainerCancellationTest, MidTrainingCancelStopsWithinOneEpoch) {
  const RatingDataset data = SmallDataset(3);
  factorization::FactorModelConfig model_config;
  model_config.dims = 4;
  factorization::FactorModel model(model_config, data);
  CancellationSource source;
  factorization::SgdTrainerConfig config;
  config.max_epochs = 100000;  // would run ~forever without the stop
  config.stop = StopCondition(source.token());
  // ccdb-lint: allow(raw-thread) — cancellation must arrive from outside the
  // pool to prove mid-flight token delivery.
  std::thread firer([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    source.Cancel();
  });
  const auto report = TrainSgd(config, data, model);
  firer.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().stop_status.code(), StatusCode::kCancelled);
  EXPECT_LT(report.value().epochs_run, 100000);
  // The partial model is intact and usable.
  EXPECT_TRUE(std::isfinite(model.EvaluateRmse(data)));
}

// ------------------------------------------------------------------- SVM

/// Dense Q for a tiny hand-written problem (used to drive SolveSmo
/// directly, where the stop plumbing lives).
class DenseQ : public svm::QMatrix {
 public:
  DenseQ(std::vector<std::vector<double>> q) : q_(std::move(q)) {}
  std::size_t size() const override { return q_.size(); }
  std::span<const double> Row(std::size_t i) const override { return q_[i]; }
  double Diagonal(std::size_t i) const override { return q_[i][i]; }

 private:
  std::vector<std::vector<double>> q_;
};

TEST(SvmCancellationTest, PreCancelledSmoReturnsFeasibleIterate) {
  // A 4-variable separable problem; alpha = 0 is feasible.
  const DenseQ q({{1.0, 0.5, -0.5, -0.2},
                  {0.5, 1.0, -0.3, -0.4},
                  {-0.5, -0.3, 1.0, 0.6},
                  {-0.2, -0.4, 0.6, 1.0}});
  const std::vector<double> p(4, -1.0);
  const std::vector<std::int8_t> y = {1, 1, -1, -1};
  const std::vector<double> c(4, 10.0);
  const std::vector<double> alpha0(4, 0.0);
  CancellationSource source;
  source.Cancel();
  svm::SmoConfig config;
  config.stop = StopCondition(source.token());
  const svm::SmoResult result = SolveSmo(q, p, y, c, alpha0, config);
  EXPECT_EQ(result.stop_status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.alpha, alpha0);  // untouched feasible iterate
}

/// Two well-separated clusters: 8 labeled points and 12 unlabeled ones.
struct TsvmData {
  Matrix labeled{8, 2};
  std::vector<std::int8_t> labels = std::vector<std::int8_t>(8);
  Matrix unlabeled{12, 2};
};

TsvmData TwoClusterTsvmData() {
  Rng rng(7);
  TsvmData data;
  for (std::size_t i = 0; i < 8; ++i) {
    const double cx = i < 4 ? 2.0 : -2.0;
    data.labeled(i, 0) = cx + rng.Gaussian(0.0, 0.3);
    data.labeled(i, 1) = rng.Gaussian(0.0, 0.3);
    data.labels[i] = i < 4 ? 1 : -1;
  }
  for (std::size_t i = 0; i < 12; ++i) {
    const double cx = i < 6 ? 2.0 : -2.0;
    data.unlabeled(i, 0) = cx + rng.Gaussian(0.0, 0.3);
    data.unlabeled(i, 1) = rng.Gaussian(0.0, 0.3);
  }
  return data;
}

TEST(SvmCancellationTest, PreCancelledTsvmReportsStop) {
  const TsvmData data = TwoClusterTsvmData();
  svm::TsvmOptions options;
  options.stop = StopCondition(Deadline::AfterSeconds(0.0));
  svm::TsvmReport report;
  // ccdb-lint: allow(status-nodiscard) — outcome is asserted via
  // report.stop_status on the next line.
  (void)svm::TrainTsvm(data.labeled, data.labels, data.unlabeled, options,
                       &report);
  EXPECT_EQ(report.stop_status.code(), StatusCode::kDeadlineExceeded);
}

TEST(SvmCancellationTest, TsvmWithFiredSmoStopReturnsUntrainedModel) {
  // smo.stop fires before the seed solve's first step, so no solve keeps a
  // support vector: TrainTsvm must report the stop and hand back the
  // untrained model instead of taking decision values from it.
  const TsvmData data = TwoClusterTsvmData();
  svm::TsvmOptions options;
  options.smo.stop = StopCondition(Deadline::AfterSeconds(0.0));
  svm::TsvmReport report;
  const svm::SvmModel model = svm::TrainTsvm(
      data.labeled, data.labels, data.unlabeled, options, &report);
  EXPECT_EQ(report.stop_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(model.trained());
  EXPECT_EQ(report.retrains, 1u);
}

// -------------------------------------------------------------- dispatcher

crowd::WorkerPool SlowHonestPool(int n, double judgments_per_minute) {
  crowd::WorkerPool pool;
  for (int i = 0; i < n; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = judgments_per_minute;
    pool.workers.push_back(worker);
  }
  return pool;
}

TEST(DispatcherCancellationTest, PreFiredStopSpendsNothing) {
  const crowd::WorkerPool pool = SlowHonestPool(8, 2.0);
  crowd::DispatcherConfig config;
  CancellationSource source;
  source.Cancel();
  config.stop = StopCondition(source.token());
  const crowd::Dispatcher dispatcher(pool, config);
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 3;
  const std::vector<bool> truth(20, true);
  const auto result = dispatcher.Run(truth, hit_config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().stop_status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.value().judgments.empty());
  EXPECT_DOUBLE_EQ(result.value().total_cost_dollars, 0.0);
  EXPECT_EQ(result.value().stats.timed_out_items, truth.size());
}

// Regression test for the repost-backoff bug: a wall-clock stop that fires
// *during* the primary posting used to be ignored — once a backoff was
// configured, the dispatcher committed to every repost round anyway. It
// must instead return best-effort results at the first repost decision,
// with the deficits accounted as timed_out_items.
TEST(DispatcherCancellationTest, ExpiredStopPreemptsRepostRounds) {
  // Slow workers + a tight simulated deadline: most judgments are late,
  // so the repost loop would have work to do.
  const crowd::WorkerPool pool = SlowHonestPool(6, 0.05);
  crowd::DispatcherConfig config;
  config.deadline_minutes = 1.0;
  config.max_reposts = 4;
  config.backoff_initial_minutes = 5.0;
  CancellationSource source;
  config.stop = StopCondition(source.token());
  const crowd::Dispatcher dispatcher(pool, config);

  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 4;
  const std::vector<bool> truth(24, true);

  // The stop fires while the primary posting is being acquired — exactly
  // the "deadline expired mid-wait" shape of the bug.
  const auto result = dispatcher.RunWith(
      truth, hit_config, [&](const crowd::PostingSpec& spec) {
        auto run = RunCrowdTask(pool, spec.truth, spec.config);
        source.Cancel();
        return StatusOr<crowd::CrowdRunResult>(std::move(run));
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const crowd::DispatchResult& dispatch = result.value();
  // Best-effort: the primary posting's judgments come back...
  EXPECT_FALSE(dispatch.judgments.empty());
  EXPECT_GT(dispatch.total_cost_dollars, 0.0);
  // ...but no repost round was issued after the stop fired,
  EXPECT_EQ(dispatch.stats.repost_rounds, 0u);
  EXPECT_EQ(dispatch.stats.reposted_items, 0u);
  // the deficits are accounted,
  EXPECT_GT(dispatch.stats.timed_out_items, 0u);
  // and the stop is reported.
  EXPECT_EQ(dispatch.stop_status.code(), StatusCode::kCancelled);
}

// --------------------------------------------------------------- expansion

class ExpansionCancellationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::SyntheticWorld(data::TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();
    core::PerceptualSpaceOptions options;
    options.model.dims = 16;
    options.trainer.max_epochs = 15;
    space_ = new core::PerceptualSpace(
        core::PerceptualSpace::Build(ratings, options));
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
  }

  /// Synthesizes a judgment stream over `n` sample items (3 votes each,
  /// uniform arrivals over `minutes`).
  static void MakeStream(std::size_t n, double minutes,
                         std::vector<std::uint32_t>& sample,
                         std::vector<crowd::Judgment>& judgments) {
    Rng rng(29);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_->num_items(), n)) {
      sample.push_back(static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (int vote = 0; vote < 3; ++vote) {
        crowd::Judgment judgment;
        judgment.item = static_cast<std::uint32_t>(i);
        judgment.answer = world_->GenreLabel(0, sample[i])
                              ? crowd::Answer::kPositive
                              : crowd::Answer::kNegative;
        judgment.timestamp_minutes = rng.Uniform(0.0, minutes);
        judgment.cost_dollars = 0.002;
        judgments.push_back(judgment);
      }
    }
    std::sort(judgments.begin(), judgments.end(),
              [](const crowd::Judgment& a, const crowd::Judgment& b) {
                return a.timestamp_minutes < b.timestamp_minutes;
              });
  }

  static data::SyntheticWorld* world_;
  static core::PerceptualSpace* space_;
};

data::SyntheticWorld* ExpansionCancellationTest::world_ = nullptr;
core::PerceptualSpace* ExpansionCancellationTest::space_ = nullptr;

TEST_F(ExpansionCancellationTest, IncrementalStopReturnsStopStatus) {
  std::vector<std::uint32_t> sample;
  std::vector<crowd::Judgment> judgments;
  MakeStream(60, 50.0, sample, judgments);
  core::IncrementalExpansionOptions options;
  options.checkpoint_interval_minutes = 5.0;
  options.stop = StopCondition(Deadline::AfterSeconds(0.0));
  const auto checkpoints = core::RunIncrementalExpansion(
      *space_, sample, judgments, 50.0, options);
  // An already-expired deadline is reported, not a crash; without a
  // manifest there is no journaled prefix to resume from.
  EXPECT_EQ(checkpoints.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ExpansionCancellationTest, CancelledDurableRunResumesExactly) {
  std::vector<std::uint32_t> sample;
  std::vector<crowd::Judgment> judgments;
  MakeStream(60, 40.0, sample, judgments);
  core::IncrementalExpansionOptions options;
  options.checkpoint_interval_minutes = 2.0;

  // Reference: the uninterrupted in-memory run.
  const auto reference = core::RunIncrementalExpansion(
      *space_, sample, judgments, 40.0, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference.value().empty());

  const std::string path =
      ::testing::TempDir() + "/cancelled_expansion.manifest";
  std::remove(path.c_str());
  JournalOptions journal;
  journal.path = path;

  // Durable run with a mid-flight cancellation racing the checkpoints.
  CancellationSource source;
  core::IncrementalExpansionOptions stopped = options;
  stopped.stop = StopCondition(source.token());
  // ccdb-lint: allow(raw-thread) — cancellation must arrive from outside the
  // pool to prove mid-flight token delivery.
  std::thread firer([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    source.Cancel();
  });
  const auto first = core::RunIncrementalExpansion(
      *space_, sample, judgments, 40.0, stopped, &journal);
  firer.join();

  if (!first.ok()) {
    // The cancellation landed mid-run: the manifest must resume to the
    // bit-identical full checkpoint sequence.
    EXPECT_EQ(first.status().code(), StatusCode::kCancelled);
    const auto resumed = core::RunIncrementalExpansion(
        *space_, sample, judgments, 40.0, options, &journal);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(resumed.value().size(), reference.value().size());
    for (std::size_t i = 0; i < reference.value().size(); ++i) {
      EXPECT_EQ(core::EncodeExpansionCheckpoint(resumed.value()[i]),
                core::EncodeExpansionCheckpoint(reference.value()[i]))
          << "checkpoint " << i;
    }
  } else {
    // The run won the race; it must then match the reference outright.
    ASSERT_EQ(first.value().size(), reference.value().size());
  }
}

}  // namespace
}  // namespace ccdb
