#include <gtest/gtest.h>

#include <cmath>
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
  EXPECT_LT(report.final_train_rmse, initial_rmse * 0.5);
  EXPECT_LT(report.final_train_rmse, 0.25);
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
  const TrainingReport report = TrainValid(trainer, data, model);
  EXPECT_LT(report.final_train_rmse, 0.25);
}

TEST(SgdTrainerTest, TrainingRmseDecreasesOverall) {
  const RatingDataset data = MakePlantedDataset(
      ModelKind::kEuclideanEmbedding, 40, 120, 3, 0.3, 57);
  FactorModelConfig config;
  config.dims = 6;
  FactorModel model(config, data);
  SgdTrainerConfig trainer;
  trainer.max_epochs = 10;
  trainer.learning_rate = 0.02;
  const TrainingReport report = TrainValid(trainer, data, model);
  ASSERT_EQ(report.train_rmse.size(), 10u);
  EXPECT_LT(report.train_rmse.back(), report.train_rmse.front());
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
  const TrainingReport static_report =
      TrainValid(trainer, data, static_model);

  FactorModelConfig temporal_config = static_config;
  temporal_config.time_bins = 8;
  temporal_config.timeline_days = 1000.0;
  FactorModel temporal_model(temporal_config, data);
  const TrainingReport temporal_report =
      TrainValid(trainer, data, temporal_model);

  // The drifting component is invisible to the static model but largely
  // captured by per-bin item biases.
  EXPECT_LT(temporal_report.final_train_rmse,
            static_report.final_train_rmse * 0.85);
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

}  // namespace
}  // namespace ccdb::factorization
