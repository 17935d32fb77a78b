#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "core/resolver.h"
#include "crowd/aggregation.h"
#include "crowd/experiments.h"
#include "crowd/platform.h"
#include "data/domains.h"
#include "data/expert_sources.h"
#include "data/metadata.h"
#include "data/synthetic_world.h"
#include "db/database.h"
#include "eval/metrics.h"
#include "lsi/lsi.h"

namespace ccdb {
namespace {

// Full pipeline fixture: world → ratings → perceptual space → database
// with a schema-expansion resolver. Built once for the whole suite.
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::SyntheticWorld(data::TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();

    core::PerceptualSpaceOptions options;
    options.model.dims = 24;
    options.trainer.max_epochs = 25;
    options.trainer.learning_rate = 0.02;
    space_ = new core::PerceptualSpace(
        core::PerceptualSpace::Build(ratings, options));
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
  }

  // Builds the movies table (factual part only) for the world.
  static db::Table MakeItemsTable() {
    db::Schema schema({{"item_id", db::ColumnType::kInt},
                       {"name", db::ColumnType::kString},
                       {"cluster", db::ColumnType::kInt}});
    db::Table table("movies", schema);
    for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
      EXPECT_TRUE(
          table
              .AppendRow({db::Value(static_cast<std::int64_t>(m)),
                          db::Value(world_->ItemName(m)),
                          db::Value(static_cast<std::int64_t>(
                              world_->ClusterOf(m)))})
              .ok());
    }
    return table;
  }

  static data::SyntheticWorld* world_;
  static core::PerceptualSpace* space_;
};

data::SyntheticWorld* PipelineFixture::world_ = nullptr;
core::PerceptualSpace* PipelineFixture::space_ = nullptr;

TEST_F(PipelineFixture, QueryDrivenSchemaExpansionEndToEnd) {
  // The paper's headline scenario: a SELECT on an attribute the schema
  // does not have triggers crowd-sourcing + space extraction at query
  // time, then returns rows.
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());

  crowd::WorkerPool pool;
  for (int i = 0; i < 12; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.92;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 5;
  hit_config.seed = 71;

  core::PerceptualExpansionResolver resolver(space_, pool, hit_config);
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = 80;
  spec.bool_truth = [&](std::uint32_t item) {
    return world_->GenreLabel(0, item);
  };
  resolver.RegisterAttribute("is_comedy", std::move(spec));
  database.SetResolver(&resolver);

  const auto result =
      database.Execute("SELECT name FROM movies WHERE is_comedy = true");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().num_rows(), 0u);
  EXPECT_LT(result.value().num_rows(), world_->num_items());
  EXPECT_GT(resolver.last_result().crowd_dollars, 0.0);

  // The filled column should agree with ground truth well above chance.
  const db::Table* movies = database.FindTable("movies");
  ASSERT_NE(movies, nullptr);
  const std::size_t column = movies->schema().FindColumn("is_comedy");
  ASSERT_NE(column, db::Schema::kNotFound);
  std::vector<bool> predicted(world_->num_items());
  std::vector<bool> truth(world_->num_items());
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    predicted[m] = std::get<bool>(movies->Get(m, column));
    truth[m] = world_->GenreLabel(0, m);
  }
  EXPECT_GT(eval::GMean(eval::CountConfusion(predicted, truth)), 0.6);
}

TEST_F(PipelineFixture, NumericAttributeExpansionViaSvr) {
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());

  core::PerceptualExpansionResolver resolver(
      space_, crowd::WorkerPool{{crowd::WorkerProfile{}}},
      crowd::HitRunConfig{});
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kDouble;
  spec.gold_sample_size = 60;
  // Humor score: a latent-trait functional scaled to 0–10.
  spec.numeric_truth = [&](std::uint32_t item) {
    return 5.0 + 4.0 * world_->item_traits()(item, 0) /
                     (std::abs(world_->item_traits()(item, 0)) + 0.5);
  };
  resolver.RegisterAttribute("humor", std::move(spec));
  database.SetResolver(&resolver);

  const auto result = database.Execute(
      "SELECT name, humor FROM movies ORDER BY humor DESC LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 5u);
  // Ordered descending by the extracted score.
  double previous = 1e18;
  for (std::size_t row = 0; row < 5; ++row) {
    const double humor = std::get<double>(result.value().Get(row, 1));
    EXPECT_LE(humor, previous);
    previous = humor;
  }
}

TEST_F(PipelineFixture, OneItemNumericGoldSampleFailsCleanly) {
  // One gold item always lies inside the ε-tube, so the ε-SVR keeps no
  // support vector: the query must fail with a Status instead of
  // aborting in the extract-all step, and with Expand's code for a gold
  // sample that cannot train.
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  core::PerceptualExpansionResolver resolver(
      space_, crowd::WorkerPool{{crowd::WorkerProfile{}}},
      crowd::HitRunConfig{});
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kDouble;
  spec.gold_sample_size = 1;
  spec.numeric_truth = [](std::uint32_t) { return 5.0; };
  resolver.RegisterAttribute("humor", std::move(spec));
  database.SetResolver(&resolver);

  const auto result =
      database.Execute("SELECT name FROM movies WHERE humor > 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PipelineFixture, UnregisteredAttributeFailsCleanly) {
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  core::PerceptualExpansionResolver resolver(
      space_, crowd::WorkerPool{{crowd::WorkerProfile{}}},
      crowd::HitRunConfig{});
  database.SetResolver(&resolver);
  const auto result =
      database.Execute("SELECT * FROM movies WHERE email = 'x'");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// A pool of honest, fully informed workers for the SQL expansion tests.
crowd::WorkerPool HonestPool(int n) {
  crowd::WorkerPool pool;
  for (int i = 0; i < n; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.92;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  return pool;
}

TEST_F(PipelineFixture, SqlExpansionMatchesPlainPipelineBitForBit) {
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  const crowd::WorkerPool pool = HonestPool(12);
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 5;
  hit_config.perception_flip_rate = 0.05;
  hit_config.seed = 71;

  core::PerceptualExpansionResolver resolver(space_, pool, hit_config);
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = 80;
  std::vector<std::uint32_t> asked;  // the gold sample, in the asked order
  spec.bool_truth = [&](std::uint32_t item) {
    asked.push_back(item);
    return world_->GenreLabel(0, item);
  };
  resolver.RegisterAttribute("is_comedy", std::move(spec));
  database.SetResolver(&resolver);
  const auto result =
      database.Execute("SELECT name FROM movies WHERE is_comedy = true");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(asked.size(), 80u);

  // The plain pipeline over the same gold sample: one crowd run, a
  // majority vote at its end, training on the classified items, the fill.
  std::vector<bool> sample_truth;
  for (std::uint32_t item : asked) {
    sample_truth.push_back(world_->GenreLabel(0, item));
  }
  const crowd::CrowdRunResult run =
      crowd::RunCrowdTask(pool, sample_truth, hit_config);
  const std::vector<std::optional<bool>> votes =
      crowd::MajorityVote(run.judgments, asked.size(), run.total_minutes);
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (!votes[i].has_value()) continue;
    items.push_back(asked[i]);
    labels.push_back(*votes[i]);
  }
  core::BinaryAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, labels));
  const std::vector<bool> expected = extractor.ExtractAll(*space_);

  const db::Table* movies = database.FindTable("movies");
  ASSERT_NE(movies, nullptr);
  const std::size_t column = movies->schema().FindColumn("is_comedy");
  ASSERT_NE(column, db::Schema::kNotFound);
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    ASSERT_EQ(std::get<bool>(movies->Get(m, column)), expected[m])
        << "row " << m;
  }
  EXPECT_EQ(resolver.last_result().crowd_dollars, run.total_cost_dollars);
  EXPECT_EQ(resolver.last_result().crowd_minutes, run.total_minutes);
  EXPECT_EQ(resolver.last_result().gold_sample_classified, items.size());
}

TEST_F(PipelineFixture, SqlExpansionRejectsBadInputsWithoutAborting) {
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 3;
  const auto run_query = [&](const crowd::WorkerPool& pool,
                             std::size_t gold_sample_size) {
    db::Database database;
    EXPECT_TRUE(database.AddTable(MakeItemsTable()).ok());
    core::PerceptualExpansionResolver resolver(space_, pool, hit_config);
    core::PerceptualAttributeSpec spec;
    spec.type = db::ColumnType::kBool;
    spec.gold_sample_size = gold_sample_size;
    spec.bool_truth = [&](std::uint32_t item) {
      return world_->GenreLabel(0, item);
    };
    resolver.RegisterAttribute("is_comedy", std::move(spec));
    database.SetResolver(&resolver);
    return database
        .Execute("SELECT name FROM movies WHERE is_comedy = true")
        .status();
  };
  EXPECT_EQ(run_query(HonestPool(5), 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_query(crowd::WorkerPool{}, 40).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PipelineFixture, SqlExpansionTopsUpOneClassGoldSample) {
  // One positive in the gold sample, judged once per item by workers who
  // know almost nothing: the primary pass cannot see two classes, so the
  // pipeline issues a top-up round instead of failing outright.
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  crowd::WorkerPool pool = HonestPool(10);
  for (auto& worker : pool.workers) worker.knowledge = 0.06;
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 1;
  hit_config.perception_flip_rate = 0.0;
  hit_config.seed = 33;

  core::PerceptualExpansionResolver resolver(space_, pool, hit_config);
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = 80;
  bool first = true;
  spec.bool_truth = [&first](std::uint32_t) {
    const bool positive = first;
    first = false;
    return positive;
  };
  resolver.RegisterAttribute("is_comedy", std::move(spec));
  database.SetResolver(&resolver);
  const auto result =
      database.Execute("SELECT name FROM movies WHERE is_comedy = true");
  EXPECT_GE(resolver.last_result().topup_rounds, 1u);
  // Whatever the top-up achieved, the query reports the pipeline's status.
  EXPECT_EQ(result.status().code(), resolver.last_result().status.code());
}

TEST_F(PipelineFixture, FailedNumericExpansionReplacesLastResult) {
  // A Boolean expansion that pays the crowd, then a numeric one whose
  // one-item gold sample cannot train: last_result() must describe the
  // failed expansion, with the query's status and none of the first
  // expansion's dollars.
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 5;
  hit_config.seed = 97;
  core::PerceptualExpansionResolver resolver(space_, HonestPool(8),
                                             hit_config);
  core::PerceptualAttributeSpec comedy;
  comedy.type = db::ColumnType::kBool;
  comedy.gold_sample_size = 60;
  comedy.bool_truth = [&](std::uint32_t item) {
    return world_->GenreLabel(0, item);
  };
  resolver.RegisterAttribute("is_comedy", std::move(comedy));
  core::PerceptualAttributeSpec humor;
  humor.type = db::ColumnType::kDouble;
  humor.gold_sample_size = 1;
  humor.numeric_truth = [](std::uint32_t) { return 5.0; };
  resolver.RegisterAttribute("humor", std::move(humor));
  database.SetResolver(&resolver);

  ASSERT_TRUE(database.Execute("SELECT name FROM movies WHERE is_comedy").ok());
  ASSERT_TRUE(resolver.last_result().status.ok());
  ASSERT_GT(resolver.last_result().crowd_dollars, 0.0);

  const auto result =
      database.Execute("SELECT name FROM movies WHERE humor > 5");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(resolver.last_result().status.ToString(),
            result.status().ToString());
  EXPECT_EQ(resolver.last_result().crowd_dollars, 0.0);
  EXPECT_EQ(resolver.last_result().gold_sample_classified, 0u);
}

TEST_F(PipelineFixture, AuditLogRecordsExpansions) {
  db::Database database;
  ASSERT_TRUE(database.AddTable(MakeItemsTable()).ok());
  crowd::WorkerPool pool;
  for (int i = 0; i < 8; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 5;
  hit_config.seed = 95;
  core::PerceptualExpansionResolver resolver(space_, pool, hit_config);
  core::PerceptualAttributeSpec comedy;
  comedy.type = db::ColumnType::kBool;
  comedy.gold_sample_size = 60;
  comedy.bool_truth = [&](std::uint32_t item) {
    return world_->GenreLabel(0, item);
  };
  resolver.RegisterAttribute("is_comedy", std::move(comedy));
  core::PerceptualAttributeSpec humor;
  humor.type = db::ColumnType::kDouble;
  humor.gold_sample_size = 40;
  humor.numeric_truth = [&](std::uint32_t item) {
    return world_->item_traits()(item, 0);
  };
  resolver.RegisterAttribute("humor", std::move(humor));
  database.SetResolver(&resolver);

  ASSERT_TRUE(database.Execute("SELECT * FROM movies WHERE is_comedy").ok());
  ASSERT_TRUE(
      database.Execute("SELECT * FROM movies WHERE humor > 0").ok());

  ASSERT_EQ(resolver.audit_log().size(), 2u);
  EXPECT_EQ(resolver.audit_log()[0].attribute, "is_comedy");
  EXPECT_GT(resolver.audit_log()[0].crowd_dollars, 0.0);
  EXPECT_EQ(resolver.audit_log()[1].attribute, "humor");

  // The audit table is itself queryable.
  db::Database audit_db;
  ASSERT_TRUE(audit_db.AddTable(resolver.AuditTable()).ok());
  const auto result = audit_db.Execute(
      "SELECT attribute FROM expansion_audit WHERE dollars > 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(db::ToString(result.value().Get(0, 0)), "is_comedy");
}

TEST_F(PipelineFixture, PerceptualSpaceBeatsMetadataSpace) {
  // Miniature Table 3: same SVM, same training samples, perceptual space
  // vs LSI metadata space. The perceptual space must win clearly.
  const auto documents = data::GenerateMetadata(*world_);
  lsi::LsiOptions lsi_options;
  lsi_options.dims = 24;
  const lsi::LsiSpace metadata = lsi::BuildLsiSpace(documents, lsi_options);
  core::PerceptualSpace metadata_space(metadata.document_coords);

  Rng rng(73);
  double perceptual_total = 0.0, metadata_total = 0.0;
  const int repetitions = 5;
  for (int rep = 0; rep < repetitions; ++rep) {
    // Balanced sample of 20+20 for genre 0.
    std::vector<std::uint32_t> positives, negatives;
    std::vector<std::size_t> order =
        rng.SampleWithoutReplacement(world_->num_items(),
                                     world_->num_items());
    for (std::size_t index : order) {
      const auto item = static_cast<std::uint32_t>(index);
      if (world_->GenreLabel(0, item)) {
        if (positives.size() < 20) positives.push_back(item);
      } else if (negatives.size() < 20) {
        negatives.push_back(item);
      }
    }
    std::vector<std::uint32_t> items = positives;
    items.insert(items.end(), negatives.begin(), negatives.end());
    std::vector<bool> labels(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) labels[i] = i < 20;

    std::vector<bool> truth(world_->num_items());
    for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
      truth[m] = world_->GenreLabel(0, m);
    }

    core::BinaryAttributeExtractor perceptual_extractor;
    ASSERT_TRUE(perceptual_extractor.Train(*space_, items, labels));
    perceptual_total += eval::GMean(eval::CountConfusion(
        perceptual_extractor.ExtractAll(*space_), truth));

    core::BinaryAttributeExtractor metadata_extractor;
    ASSERT_TRUE(metadata_extractor.Train(metadata_space, items, labels));
    metadata_total += eval::GMean(eval::CountConfusion(
        metadata_extractor.ExtractAll(metadata_space), truth));
  }
  EXPECT_GT(perceptual_total / repetitions,
            metadata_total / repetitions + 0.1);
}

TEST_F(PipelineFixture, ExpertSourcesProvideUsableReference) {
  const data::ExpertSources sources = data::SimulateExpertSources(*world_);
  // Training on majority-reference samples still yields a good extractor.
  Rng rng(79);
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  for (std::size_t index :
       rng.SampleWithoutReplacement(world_->num_items(), 60)) {
    items.push_back(static_cast<std::uint32_t>(index));
    labels.push_back(sources.majority[0][index]);
  }
  core::BinaryAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, labels));
  const auto predicted = extractor.ExtractAll(*space_);
  std::vector<bool> reference(sources.majority[0].begin(),
                              sources.majority[0].end());
  EXPECT_GT(eval::GMean(eval::CountConfusion(predicted, reference)), 0.6);
}

}  // namespace
}  // namespace ccdb
