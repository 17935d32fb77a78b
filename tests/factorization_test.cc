#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb::factorization {
namespace {

// Generates ratings from a planted low-rank model so training must recover
// predictive structure (not just memorize).
RatingDataset MakePlantedDataset(ModelKind kind, std::size_t num_items,
                                 std::size_t num_users, std::size_t dims,
                                 double density, std::uint64_t seed,
                                 double noise = 0.05) {
  Rng rng(seed);
  Matrix item_traits(num_items, dims);
  Matrix user_traits(num_users, dims);
  const double scale = 1.0 / std::sqrt(static_cast<double>(dims));
  item_traits.FillGaussian(rng, 0.0, scale);
  user_traits.FillGaussian(rng, 0.0, scale);

  std::vector<Rating> ratings;
  for (std::uint32_t m = 0; m < num_items; ++m) {
    for (std::uint32_t u = 0; u < num_users; ++u) {
      if (!rng.Bernoulli(density)) continue;
      double score;
      if (kind == ModelKind::kSvdDotProduct) {
        score = 3.0 + Dot(item_traits.Row(m), user_traits.Row(u)) * 3.0;
      } else {
        score = 4.5 - SquaredDistance(item_traits.Row(m), user_traits.Row(u));
      }
      score += rng.Gaussian(0.0, noise);
      ratings.push_back({m, u, static_cast<float>(score)});
    }
  }
  return RatingDataset(num_items, num_users, std::move(ratings));
}

// TrainSgd on a config the test knows to be valid.
TrainingReport TrainValid(const SgdTrainerConfig& trainer,
                          const RatingDataset& data, FactorModel& model) {
  StatusOr<TrainingReport> report = TrainSgd(trainer, data, model);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.value() : TrainingReport{};
}

TEST(FactorModelTest, InitializationWarmStartsBiases) {
  std::vector<Rating> ratings = {{0, 0, 5.0f}, {0, 1, 5.0f}, {1, 0, 1.0f},
                                 {1, 1, 1.0f}};
  RatingDataset data(2, 2, ratings);
  FactorModelConfig config;
  config.dims = 4;
  FactorModel model(config, data);
  EXPECT_DOUBLE_EQ(model.global_mean(), 3.0);
  EXPECT_NEAR(model.item_bias()[0], 2.0, 1e-9);
  EXPECT_NEAR(model.item_bias()[1], -2.0, 1e-9);
}

TEST(FactorModelTest, PredictComposesBiasAndGeometry) {
  std::vector<Rating> ratings = {{0, 0, 3.0f}};
  RatingDataset data(1, 1, ratings);
  FactorModelConfig config;
  config.dims = 2;
  config.kind = ModelKind::kEuclideanEmbedding;
  config.init_scale = 0.0;  // zero coordinates
  FactorModel model(config, data);
  // With zero coordinates the prediction is pure bias: μ + δm + δu = 3.
  EXPECT_NEAR(model.Predict(0, 0), 3.0, 1e-9);
}

TEST(SgdTrainerTest, EuclideanModelFitsPlantedData) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 60, 200, 4, 0.25, 51);
  FactorModelConfig config;
  config.kind = ModelKind::kEuclideanEmbedding;
  config.dims = 8;
  config.lambda = 0.02;
  config.seed = 3;
  FactorModel model(config, data);
  const double initial_rmse = model.EvaluateRmse(data);

  SgdTrainerConfig trainer;
  trainer.max_epochs = 40;
  trainer.learning_rate = 0.05;
  const TrainingReport report = TrainValid(trainer, data, model);
  EXPECT_EQ(report.epochs_run, 40);
  const double final_rmse = model.EvaluateRmse(data);
  EXPECT_LT(final_rmse, initial_rmse * 0.5);
  EXPECT_LT(final_rmse, 0.25);
}

TEST(SgdTrainerTest, SvdModelFitsPlantedData) {
  const RatingDataset data =
      MakePlantedDataset(ModelKind::kSvdDotProduct, 60, 200, 4, 0.25, 53);
  FactorModelConfig config;
  config.kind = ModelKind::kSvdDotProduct;
  config.dims = 8;
  config.lambda = 0.01;
  config.seed = 5;
  FactorModel model(config, data);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 40;
  trainer.learning_rate = 0.05;
  TrainValid(trainer, data, model);
  EXPECT_LT(model.EvaluateRmse(data), 0.25);
}

TEST(SgdTrainerTest, TrainingRmseDecreasesOverall) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 40, 120, 3, 0.3, 57);
  FactorModelConfig config;
  config.dims = 6;
  FactorModel one_epoch(config, data);
  FactorModel ten_epochs(config, data);
  SgdTrainerConfig trainer;
  trainer.learning_rate = 0.02;
  trainer.max_epochs = 1;
  TrainValid(trainer, data, one_epoch);
  trainer.max_epochs = 10;
  TrainValid(trainer, data, ten_epochs);
  // The same seed and learning rate: the one-epoch model is the ten-epoch
  // run's state after its first epoch.
  EXPECT_LT(ten_epochs.EvaluateRmse(data), one_epoch.EvaluateRmse(data));
}

TEST(SgdTrainerTest, ValidationEarlyStopping) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 30, 80, 3, 0.4, 59, /*noise=*/0.8);
  FactorModelConfig config;
  config.dims = 16;  // overparameterized on noisy data → should overfit
  config.lambda = 0.0;
  FactorModel model(config, data);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 200;
  trainer.learning_rate = 0.05;
  trainer.lr_decay = 1.0;
  trainer.validation_fraction = 0.2;
  trainer.patience = 2;
  const TrainingReport report = TrainValid(trainer, data, model);
  EXPECT_TRUE(report.early_stopped);
  EXPECT_LT(report.epochs_run, 200);
  EXPECT_FALSE(report.validation_rmse.empty());
}

TEST(SgdTrainerTest, GeneralizesToHeldOutRatings) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 80, 300, 4, 0.3, 61);
  FactorModelConfig config;
  config.dims = 8;
  config.lambda = 0.02;
  FactorModel model(config, data);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 40;
  trainer.learning_rate = 0.05;
  trainer.validation_fraction = 0.15;
  trainer.patience = 100;  // don't stop early, just measure
  const TrainingReport report = TrainValid(trainer, data, model);
  // Planted noise is 0.05, so holdout RMSE well under 0.5 means real
  // structure was learned, not memorized.
  EXPECT_LT(report.final_validation_rmse, 0.5);
}

TEST(SgdTrainerTest, DeterministicGivenSeeds) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 30, 60, 3, 0.4, 63);
  FactorModelConfig config;
  config.dims = 4;
  config.seed = 9;
  SgdTrainerConfig trainer;
  trainer.max_epochs = 5;
  trainer.seed = 11;

  FactorModel a(config, data), b(config, data);
  TrainValid(trainer, data, a);
  TrainValid(trainer, data, b);
  for (std::size_t i = 0; i < a.item_factors().Data().size(); ++i) {
    ASSERT_DOUBLE_EQ(a.item_factors().Data()[i], b.item_factors().Data()[i]);
  }
}

TEST(SgdTrainerTest, InvalidConfigIsInvalidArgument) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 10, 20, 2, 0.5, 65);
  FactorModelConfig config;
  config.dims = 2;
  FactorModel model(config, data);
  for (const auto& corrupt : std::vector<void (*)(SgdTrainerConfig&)>{
           [](SgdTrainerConfig& c) { c.max_epochs = 0; },
           [](SgdTrainerConfig& c) { c.learning_rate = 0.0; },
           [](SgdTrainerConfig& c) { c.lr_decay = 1.5; },
           [](SgdTrainerConfig& c) { c.validation_fraction = 1.0; }}) {
    SgdTrainerConfig trainer;
    corrupt(trainer);
    EXPECT_EQ(TrainSgd(trainer, data, model).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(SgdTrainerTest, EuclideanRecoversNeighborhoodStructure) {
  // Two well-separated item clusters: after training, intra-cluster item
  // distances in the embedding must be smaller than inter-cluster ones.
  Rng rng(67);
  const std::size_t items_per_cluster = 10;
  const std::size_t num_users = 300;
  Matrix traits(2 * items_per_cluster, 2);
  for (std::size_t m = 0; m < 2 * items_per_cluster; ++m) {
    const double center = m < items_per_cluster ? -1.0 : 1.0;
    traits(m, 0) = center + rng.Gaussian(0.0, 0.1);
    traits(m, 1) = rng.Gaussian(0.0, 0.1);
  }
  Matrix users(num_users, 2);
  users.FillGaussian(rng, 0.0, 1.0);
  std::vector<Rating> ratings;
  for (std::uint32_t m = 0; m < 2 * items_per_cluster; ++m) {
    for (std::uint32_t u = 0; u < num_users; ++u) {
      if (!rng.Bernoulli(0.6)) continue;
      const double score =
          4.5 - SquaredDistance(traits.Row(m), users.Row(u)) +
          rng.Gaussian(0.0, 0.1);
      ratings.push_back({m, u, static_cast<float>(score)});
    }
  }
  RatingDataset data(2 * items_per_cluster, num_users, std::move(ratings));

  FactorModelConfig config;
  config.dims = 6;
  config.lambda = 0.02;
  FactorModel model(config, data);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 60;
  trainer.learning_rate = 0.02;
  TrainValid(trainer, data, model);

  double intra = 0.0, inter = 0.0;
  std::size_t intra_count = 0, inter_count = 0;
  for (std::size_t a = 0; a < 2 * items_per_cluster; ++a) {
    for (std::size_t b = a + 1; b < 2 * items_per_cluster; ++b) {
      const double dist = Distance(model.item_factors().Row(a),
                                   model.item_factors().Row(b));
      const bool same =
          (a < items_per_cluster) == (b < items_per_cluster);
      if (same) {
        intra += dist;
        ++intra_count;
      } else {
        inter += dist;
        ++inter_count;
      }
    }
  }
  intra /= static_cast<double>(intra_count);
  inter /= static_cast<double>(inter_count);
  EXPECT_LT(intra, inter * 0.8);
}

// Planted dataset with per-item temporal drift on top of the static model.
RatingDataset MakeDriftingDataset(std::size_t num_items,
                                  std::size_t num_users, double drift,
                                  std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t dims = 4;
  Matrix item_traits(num_items, dims);
  Matrix user_traits(num_users, dims);
  const double scale = 1.0 / std::sqrt(static_cast<double>(dims));
  item_traits.FillGaussian(rng, 0.0, scale);
  user_traits.FillGaussian(rng, 0.0, scale);
  std::vector<double> drifts(num_items);
  for (auto& d : drifts) d = rng.Gaussian(0.0, drift);

  std::vector<Rating> ratings;
  const double timeline = 1000.0;
  for (std::uint32_t m = 0; m < num_items; ++m) {
    for (std::uint32_t u = 0; u < num_users; ++u) {
      if (!rng.Bernoulli(0.25)) continue;
      const double day = rng.Uniform(0.0, timeline);
      const double phase = day / timeline - 0.5;
      const double score =
          4.5 - SquaredDistance(item_traits.Row(m), user_traits.Row(u)) +
          drifts[m] * phase + rng.Gaussian(0.0, 0.05);
      ratings.push_back({m, u, static_cast<float>(score),
                         static_cast<float>(day)});
    }
  }
  return RatingDataset(num_items, num_users, std::move(ratings));
}

TEST(TemporalModelTest, TimeBinsReduceRmseOnDriftingData) {
  const RatingDataset data = MakeDriftingDataset(60, 200, 1.0, 97);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 30;

  FactorModelConfig static_config;
  static_config.dims = 8;
  static_config.time_bins = 1;
  FactorModel static_model(static_config, data);
  TrainValid(trainer, data, static_model);

  FactorModelConfig temporal_config = static_config;
  temporal_config.time_bins = 8;
  temporal_config.timeline_days = 1000.0;
  FactorModel temporal_model(temporal_config, data);
  TrainValid(trainer, data, temporal_model);

  // The drifting component is invisible to the static model but largely
  // captured by per-bin item biases.
  EXPECT_LT(temporal_model.EvaluateRmse(data),
            static_model.EvaluateRmse(data) * 0.85);
}

TEST(TemporalModelTest, EquivalentToStaticWithoutDrift) {
  const RatingDataset data = MakeDriftingDataset(40, 120, 0.0, 99);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 20;

  FactorModelConfig static_config;
  static_config.dims = 6;
  FactorModel static_model(static_config, data);
  TrainValid(trainer, data, static_model);

  FactorModelConfig temporal_config = static_config;
  temporal_config.time_bins = 6;
  temporal_config.timeline_days = 1000.0;
  FactorModel temporal_model(temporal_config, data);
  TrainValid(trainer, data, temporal_model);

  // No drift to model: the extra parameters must not hurt materially.
  EXPECT_NEAR(temporal_model.EvaluateRmse(data),
              static_model.EvaluateRmse(data), 0.05);
}

TEST(TemporalModelTest, PredictAtMatchesPredictForSingleBin) {
  const RatingDataset data = MakeDriftingDataset(20, 40, 0.5, 101);
  FactorModelConfig config;
  config.dims = 4;
  config.time_bins = 1;
  FactorModel model(config, data);
  EXPECT_DOUBLE_EQ(model.Predict(3, 7), model.PredictAt(3, 7, 123.0));
}

// ------------------------------------------- look-ahead passes, bit for bit

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Expects `actual` to hold `expected`'s bit patterns; reports the first
// entry that differs.
void ExpectSameBits(std::span<const double> actual,
                    std::span<const double> expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (Bits(actual[i]) != Bits(expected[i])) {
      ADD_FAILURE() << what << "[" << i << "]: " << actual[i] << " vs "
                    << expected[i];
      return;
    }
  }
}

void ExpectSameModel(const FactorModel& actual, const FactorModel& expected) {
  ExpectSameBits(actual.item_factors().Data(), expected.item_factors().Data(),
                 "item factors");
  ExpectSameBits(actual.user_factors().Data(), expected.user_factors().Data(),
                 "user factors");
  ExpectSameBits(actual.item_bias(), expected.item_bias(), "item biases");
  ExpectSameBits(actual.user_bias(), expected.user_bias(), "user biases");
  ExpectSameBits(actual.item_time_bias().Data(),
                 expected.item_time_bias().Data(), "item time biases");
}

// The RMSE loop the look-ahead passes replaced: one term after another,
// summed in index order.
double PlainRmse(const FactorModel& model, std::span<const Rating> ratings,
                 std::span<const std::size_t> indices) {
  if (indices.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t idx : indices) {
    const Rating& r = ratings[idx];
    const double diff = r.score - model.PredictAt(r.item, r.user, r.day);
    acc += diff * diff;
  }
  return std::sqrt(acc / static_cast<double>(indices.size()));
}

FactorModelConfig ReplayModelConfig(ModelKind kind, std::size_t time_bins) {
  FactorModelConfig config;
  config.kind = kind;
  config.dims = 8;
  config.time_bins = time_bins;
  config.timeline_days = 1000.0;
  return config;
}

// (model kind, validation fraction, time bins)
using ReplayCase = std::tuple<ModelKind, double, std::size_t>;
class SgdReplayTest : public ::testing::TestWithParam<ReplayCase> {};

std::string ReplayCaseName(const ::testing::TestParamInfo<ReplayCase>& info) {
  const auto [kind, validation_fraction, time_bins] = info.param;
  return std::string(kind == ModelKind::kSvdDotProduct ? "Svd" : "Euclidean") +
         (validation_fraction > 0.0 ? "_Holdout" : "_NoHoldout") + "_Bins" +
         std::to_string(time_bins);
}

// TrainSgd equals a hand-written replay of its schedule (SplitRatings, one
// Shuffle per epoch, SgdStep after SgdStep, RMSE summed in index order):
// every factor, bias and validation RMSE, by bit pattern.
TEST_P(SgdReplayTest, TrainSgdEqualsPlainReplay) {
  const auto [kind, validation_fraction, time_bins] = GetParam();
  const RatingDataset data = MakeDriftingDataset(60, 200, 0.5, 113);
  const FactorModelConfig model_config = ReplayModelConfig(kind, time_bins);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 5;
  trainer.validation_fraction = validation_fraction;
  trainer.patience = trainer.max_epochs;  // no early stop

  FactorModel trained(model_config, data);
  const TrainingReport report = TrainValid(trainer, data, trained);

  FactorModel replay(model_config, data);
  const auto ratings = data.ratings();
  Rng rng(trainer.seed);
  TrainHoldoutSplit split =
      SplitRatings(data.num_ratings(), validation_fraction, rng);
  ASSERT_EQ(split.holdout.empty(), validation_fraction == 0.0);
  ASSERT_EQ(report.epochs_run, trainer.max_epochs);
  ASSERT_EQ(report.validation_rmse.size(),
            split.holdout.empty()
                ? 0u
                : static_cast<std::size_t>(trainer.max_epochs));
  double learning_rate = trainer.learning_rate;
  for (int epoch = 0; epoch < trainer.max_epochs; ++epoch) {
    rng.Shuffle(split.train);
    for (std::size_t idx : split.train) {
      replay.SgdStep(ratings[idx], learning_rate);
    }
    learning_rate *= trainer.lr_decay;
    if (!split.holdout.empty()) {
      EXPECT_EQ(Bits(report.validation_rmse[epoch]),
                Bits(PlainRmse(replay, ratings, split.holdout)))
          << "epoch " << epoch;
    }
  }
  ExpectSameModel(trained, replay);

  std::vector<std::size_t> all(data.num_ratings());
  std::iota(all.begin(), all.end(), std::size_t{0});
  EXPECT_EQ(Bits(trained.EvaluateRmse(data)),
            Bits(PlainRmse(trained, ratings, all)));
  EXPECT_EQ(Bits(trained.EvaluateRmse(data, split.train)),
            Bits(PlainRmse(trained, ratings, split.train)));
}

INSTANTIATE_TEST_SUITE_P(
    KindsSplitsAndBins, SgdReplayTest,
    ::testing::Combine(::testing::Values(ModelKind::kSvdDotProduct,
                                         ModelKind::kEuclideanEmbedding),
                       ::testing::Values(0.0, 0.2),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    ReplayCaseName);

// The passes on their own, at lengths around the look-ahead distances and
// on inputs allocated to their exact size, so a read past the end of the
// order or of the ratings lands in an ASan redzone.
TEST(SgdEpochTest, EqualsPlainLoopAtEveryLength) {
  const RatingDataset source = MakeDriftingDataset(30, 60, 0.5, 127);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 300u}) {
    const auto first = source.ratings().begin();
    const RatingDataset data(
        source.num_items(), source.num_users(),
        std::vector<Rating>(first, first + static_cast<std::ptrdiff_t>(n)));
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(131 + n);
    rng.Shuffle(order);
    for (const std::size_t time_bins : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "n = " << n << ", time_bins = "
                                        << time_bins);
      const FactorModelConfig config =
          ReplayModelConfig(ModelKind::kEuclideanEmbedding, time_bins);
      FactorModel epoch(config, data);
      FactorModel plain(config, data);
      for (int pass = 0; pass < 2; ++pass) {
        epoch.SgdEpoch(data, order, 0.05);
        for (std::size_t idx : order) plain.SgdStep(data.ratings()[idx], 0.05);
      }
      ExpectSameModel(epoch, plain);
      std::vector<std::size_t> all(n);
      std::iota(all.begin(), all.end(), std::size_t{0});
      EXPECT_EQ(Bits(epoch.EvaluateRmse(data, order)),
                Bits(PlainRmse(plain, data.ratings(), order)));
      EXPECT_EQ(Bits(epoch.EvaluateRmse(data)),
                Bits(PlainRmse(plain, data.ratings(), all)));
    }
  }
}

}  // namespace
}  // namespace ccdb::factorization
