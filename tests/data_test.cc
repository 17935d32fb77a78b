#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "data/domains.h"
#include "data/expert_sources.h"
#include "data/metadata.h"
#include "data/ratings_io.h"
#include "data/synthetic_world.h"
#include "eval/metrics.h"

namespace ccdb::data {
namespace {

TEST(SyntheticWorldTest, GenrePrevalencesMatchSpec) {
  const WorldConfig config = TinyConfig();
  SyntheticWorld world(config);
  for (std::size_t g = 0; g < config.genres.size(); ++g) {
    std::size_t positives = 0;
    for (std::uint32_t m = 0; m < world.num_items(); ++m) {
      positives += world.GenreLabel(g, m) ? 1 : 0;
    }
    const double prevalence =
        static_cast<double>(positives) / static_cast<double>(world.num_items());
    EXPECT_NEAR(prevalence, config.genres[g].prevalence, 0.06)
        << config.genres[g].name;
  }
}

TEST(SyntheticWorldTest, DeterministicForSeed) {
  const WorldConfig config = TinyConfig();
  SyntheticWorld a(config), b(config);
  for (std::uint32_t m = 0; m < a.num_items(); ++m) {
    ASSERT_EQ(a.ItemName(m), b.ItemName(m));
    ASSERT_EQ(a.ClusterOf(m), b.ClusterOf(m));
  }
  const RatingDataset ra = a.SampleRatings();
  const RatingDataset rb = b.SampleRatings();
  ASSERT_EQ(ra.num_ratings(), rb.num_ratings());
}

TEST(SyntheticWorldTest, RatingsWithinScale) {
  SyntheticWorld world(TinyConfig());
  const RatingDataset ratings = world.SampleRatings();
  EXPECT_GT(ratings.num_ratings(), 0u);
  for (const Rating& rating : ratings.ratings()) {
    EXPECT_GE(rating.score, world.config().rating_min);
    EXPECT_LE(rating.score, world.config().rating_max);
    // Ratings are integer stars.
    EXPECT_DOUBLE_EQ(rating.score, std::round(rating.score));
  }
}

TEST(SyntheticWorldTest, NoDuplicateUserItemPairs) {
  SyntheticWorld world(TinyConfig());
  const RatingDataset ratings = world.SampleRatings();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Rating& rating : ratings.ratings()) {
    EXPECT_TRUE(seen.insert({rating.user, rating.item}).second);
  }
}

TEST(SyntheticWorldTest, PopularityIsSkewed) {
  SyntheticWorld world(TinyConfig());
  const RatingDataset ratings = world.SampleRatings();
  std::vector<std::size_t> counts;
  for (std::uint32_t m = 0; m < world.num_items(); ++m) {
    counts.push_back(ratings.ItemCount(m));
  }
  std::sort(counts.rbegin(), counts.rend());
  // Top decile of items should hold far more than 10% of ratings.
  std::size_t top = 0, total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < counts.size() / 10) top += counts[i];
  }
  EXPECT_GT(static_cast<double>(top), 0.2 * static_cast<double>(total));
}

TEST(SyntheticWorldTest, ExpectedRatingCentersNearGlobalMean) {
  SyntheticWorld world(TinyConfig());
  double total = 0.0;
  std::size_t count = 0;
  for (std::uint32_t m = 0; m < 100; ++m) {
    for (std::uint32_t u = 0; u < 100; ++u) {
      total += world.ExpectedRating(m, u);
      ++count;
    }
  }
  EXPECT_NEAR(total / static_cast<double>(count),
              world.config().global_mean, 0.5);
}

TEST(SyntheticWorldTest, ClusterMembersShareTraits) {
  SyntheticWorld world(TinyConfig());
  // Items in the same cluster must be closer in trait space on average.
  double intra = 0.0, inter = 0.0;
  std::size_t intra_count = 0, inter_count = 0;
  for (std::uint32_t a = 0; a < 120; ++a) {
    for (std::uint32_t b = a + 1; b < 120; ++b) {
      double dist = 0.0;
      for (std::size_t k = 0; k < world.config().latent_dims; ++k) {
        const double diff =
            world.item_traits()(a, k) - world.item_traits()(b, k);
        dist += diff * diff;
      }
      if (world.ClusterOf(a) == world.ClusterOf(b)) {
        intra += dist;
        ++intra_count;
      } else {
        inter += dist;
        ++inter_count;
      }
    }
  }
  ASSERT_GT(intra_count, 0u);
  ASSERT_GT(inter_count, 0u);
  EXPECT_LT(intra / intra_count, inter / inter_count);
}

TEST(SyntheticWorldTest, ItemNamesThemedByCluster) {
  SyntheticWorld world(TinyConfig());
  // Two items of the same cluster share the theme prefix.
  std::uint32_t first = 0, second = 0;
  bool found = false;
  for (std::uint32_t a = 0; a < world.num_items() && !found; ++a) {
    for (std::uint32_t b = a + 1; b < world.num_items() && !found; ++b) {
      if (world.ClusterOf(a) == world.ClusterOf(b)) {
        first = a;
        second = b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const std::string& name_a = world.ItemName(first);
  const std::string& name_b = world.ItemName(second);
  const std::string prefix_a = name_a.substr(0, name_a.find(' '));
  EXPECT_EQ(name_b.substr(0, prefix_a.size()), prefix_a);
}

TEST(SyntheticWorldTest, ItemLabelSetsMatchGenreLabels) {
  SyntheticWorld world(TinyConfig());
  const auto sets = world.ItemLabelSets();
  ASSERT_EQ(sets.size(), world.num_items());
  for (std::uint32_t m = 0; m < world.num_items(); ++m) {
    for (std::size_t g = 0; g < world.num_genres(); ++g) {
      EXPECT_EQ(sets[m][g], world.GenreLabel(g, m));
    }
  }
}

TEST(SyntheticWorldTest, RatingsCarryTimestamps) {
  SyntheticWorld world(TinyConfig());
  const RatingDataset ratings = world.SampleRatings();
  bool any_nonzero = false;
  for (const Rating& rating : ratings.ratings()) {
    EXPECT_GE(rating.day, 0.0f);
    EXPECT_LE(rating.day, world.config().timeline_days);
    any_nonzero = any_nonzero || rating.day > 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(SyntheticWorldTest, DriftShiftsExpectedRatingOverTime) {
  WorldConfig config = TinyConfig();
  config.item_drift_stddev = 1.0;
  SyntheticWorld world(config);
  // Some item must have a measurably different expectation early vs late.
  double max_shift = 0.0;
  for (std::uint32_t m = 0; m < 50; ++m) {
    const double early = world.ExpectedRatingAt(m, 0, 0.0);
    const double late =
        world.ExpectedRatingAt(m, 0, config.timeline_days);
    max_shift = std::max(max_shift, std::abs(late - early));
  }
  EXPECT_GT(max_shift, 0.5);

  // Without drift the expectation is time-invariant.
  WorldConfig static_config = TinyConfig();
  SyntheticWorld static_world(static_config);
  for (std::uint32_t m = 0; m < 20; ++m) {
    EXPECT_DOUBLE_EQ(static_world.ExpectedRatingAt(m, 0, 0.0),
                     static_world.ExpectedRatingAt(
                         m, 0, static_config.timeline_days));
  }
}

TEST(ExpertSourcesTest, SourcesAgreeWithMajorityAtExpectedBand) {
  SyntheticWorld world(TinyConfig());
  const ExpertSources sources = SimulateExpertSources(world);
  ASSERT_EQ(sources.source_labels.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t g = 0; g < world.num_genres(); ++g) {
      std::vector<bool> predicted(sources.source_labels[s][g].begin(),
                                  sources.source_labels[s][g].end());
      std::vector<bool> reference(sources.majority[g].begin(),
                                  sources.majority[g].end());
      const auto counts = eval::CountConfusion(predicted, reference);
      // Sources track the majority but not perfectly (paper: 0.91–0.95
      // g-mean band; looser bounds here because the tiny world is small).
      EXPECT_GT(eval::GMean(counts), 0.75);
      EXPECT_LT(eval::Accuracy(counts), 1.0);
    }
  }
}

TEST(ExpertSourcesTest, MajorityIsCloseToWorldTruth) {
  SyntheticWorld world(TinyConfig());
  const ExpertSources sources = SimulateExpertSources(world);
  for (std::size_t g = 0; g < world.num_genres(); ++g) {
    std::size_t agreements = 0;
    for (std::uint32_t m = 0; m < world.num_items(); ++m) {
      if (sources.majority[g][m] == world.GenreLabel(g, m)) ++agreements;
    }
    // Majority-of-3 with ~5% flips per source is right w.p. ≈ 0.993.
    EXPECT_GT(static_cast<double>(agreements) /
                  static_cast<double>(world.num_items()),
              0.97);
  }
}

TEST(MetadataTest, DocumentsHaveFactualStructure) {
  SyntheticWorld world(TinyConfig());
  const auto documents = GenerateMetadata(world);
  ASSERT_EQ(documents.size(), world.num_items());
  for (const auto& doc : documents) {
    std::size_t directors = 0, actors = 0, keywords = 0;
    for (const std::string& token : doc) {
      if (token.starts_with("director:")) ++directors;
      if (token.starts_with("actor:")) ++actors;
      if (token.starts_with("kw:")) ++keywords;
    }
    EXPECT_EQ(directors, 1u);
    EXPECT_GE(actors, kMinActorTokens);
    EXPECT_LE(actors, kMaxActorTokens);
    EXPECT_GE(keywords, kMinKeywordTokens);
    EXPECT_LE(keywords, kMaxKeywordTokens);
  }
}

TEST(RatingsIoTest, SaveLoadRoundTrip) {
  SyntheticWorld world(TinyConfig());
  const RatingDataset sampled = world.SampleRatings();
  std::vector<Rating> ratings(sampled.ratings().begin(),
                              sampled.ratings().end());
  // A non-integer score, days below 1 and 16, the smallest subnormal, and
  // a day whose shortest text read through double lands on the next float.
  ratings.push_back({0, 0, 3.7f, 0.3f});
  ratings.push_back({1, 0, 0.1f, 1e-3f});
  ratings.push_back({0, 1, 4.25f, 15.999999f});
  ratings.push_back({1, 1, 2.0f, 0x1p-149f});
  ratings.push_back({0, 0, 1.0f, 0x1.5c87fap-84f});
  const RatingDataset original(sampled.num_items(), sampled.num_users(),
                               std::move(ratings));
  const std::string path = ::testing::TempDir() + "/ratings.csv";
  ASSERT_TRUE(SaveRatingsCsv(original, path).ok());
  auto loaded = LoadRatingsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_ratings(), original.num_ratings());
  // Ids are densified in first-seen order; scores and days come back as
  // the same floats.
  const auto a = original.ratings();
  const auto b = loaded.value().ratings();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].score),
              std::bit_cast<std::uint32_t>(b[i].score))
        << "rating " << i << ": " << std::hexfloat << a[i].score << " vs "
        << b[i].score;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].day),
              std::bit_cast<std::uint32_t>(b[i].day))
        << "rating " << i << ": " << std::hexfloat << a[i].day << " vs "
        << b[i].day;
  }
}

TEST(RatingsIoTest, RejectsTextAfterClosingQuote) {
  const std::string path = ::testing::TempDir() + "/quoted_ratings.csv";
  for (const std::string bad_line : {"\"7\"5,2,4.0", "7,2,\"4\".5"}) {
    SCOPED_TRACE(bad_line);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fputs(("\"7\",\"8\",3.5\n" + bad_line + "\n").c_str(), f);
      std::fclose(f);
    }
    const Status status = LoadRatingsCsv(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(":2:"), std::string::npos)
        << status.ToString();
  }
}

TEST(RatingsIoTest, ParsesHeaderAndThreeColumnForm) {
  const std::string path = ::testing::TempDir() + "/ml.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("movieId,userId,rating\n10,7,4.5\n10,9,3\n22,7,1\n", f);
    std::fclose(f);
  }
  auto loaded = LoadRatingsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_items(), 2u);   // 10, 22 densified
  EXPECT_EQ(loaded.value().num_users(), 2u);   // 7, 9 densified
  EXPECT_EQ(loaded.value().num_ratings(), 3u);
  EXPECT_FLOAT_EQ(loaded.value().ratings()[0].score, 4.5f);
}

TEST(RatingsIoTest, RejectsMalformedInput) {
  const std::string path = ::testing::TempDir() + "/bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("1,2\n", f);  // too few columns
    std::fclose(f);
  }
  EXPECT_FALSE(LoadRatingsCsv(path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("1,2,abc\n", f);  // non-numeric score
    std::fclose(f);
  }
  EXPECT_FALSE(LoadRatingsCsv(path).ok());
  EXPECT_FALSE(LoadRatingsCsv("/no/such/ratings.csv").ok());
}

TEST(RatingsIoTest, RejectsCorruptNumericFields) {
  const std::string path = ::testing::TempDir() + "/corrupt_ratings.csv";
  // Each line, and what its error message says.
  const std::pair<std::string, std::string> bad_lines[] = {
      // Ids past the 64-bit range must be InvalidArgument, not wrapped.
      {"99999999999999999999999999,2,4.0", "item id out of range"},
      // A score past double range.
      {"1,2,1" + std::string(400, '0'), "score out of range"},
      // A score and a day that fit a double but not a finite float.
      {"1,2,1" + std::string(48, '0'), "score out of range"},
      {"1,2,4.0,1" + std::string(48, '0'), "day out of range"},
      // Embedded garbage in an otherwise numeric-looking field.
      {"1,2,4.5,12..5", "non-numeric field"},
      // An id is read whole: no digit, or a fraction, is not an id.
      {".,7,3.0", "item id malformed"},
      {"-.,9,2.0", "item id malformed"},
      {"+.,9,2.0", "item id malformed"},
      {"7.5,2,3.0", "item id malformed"},
      {"7,8.5,3.0", "user id malformed"},
      // A score or day without a digit is malformed, not out of range.
      {"1,2,.", "score malformed"},
      {"1,2,4.0,-.", "day malformed"},
  };
  for (const auto& [bad_line, message] : bad_lines) {
    SCOPED_TRACE(bad_line);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fputs(("7,8,3.5\n" + bad_line + "\n").c_str(), f);
      std::fclose(f);
    }
    const Status status = LoadRatingsCsv(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(":2: " + message), std::string::npos)
        << status.ToString();
  }
}

TEST(RatingsIoTest, RejectsOversizedLines) {
  const std::string path = ::testing::TempDir() + "/huge_line.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string line = "1,2," + std::string((1 << 20) + 16, '4') + "\n";
    std::fputs(line.c_str(), f);
    std::fclose(f);
  }
  auto loaded = LoadRatingsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(RatingsIoTest, TruncatedFileFailsCleanlyAtEveryCut) {
  const std::string path = ::testing::TempDir() + "/truncated_ratings.csv";
  const std::string content = "10,7,4.5,100\n10,9,3.0,200\n22,7,1.0,300\n";
  for (std::size_t cut = 0; cut <= content.size(); ++cut) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(content.data(), 1, cut, f), cut);
    std::fclose(f);
    // Every truncation point must produce a clean Status (ok for a whole
    // number of rows, InvalidArgument otherwise) — never a crash.
    auto loaded = LoadRatingsCsv(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "cut at " << cut;
    }
  }
}

TEST(DomainsTest, PresetShapes) {
  const WorldConfig movies = MoviesConfig(0.1);
  EXPECT_EQ(movies.genres.size(), 6u);
  EXPECT_NEAR(movies.genres[0].prevalence, 0.301, 1e-9);  // Comedy

  const WorldConfig restaurants = RestaurantsConfig(0.1);
  EXPECT_EQ(restaurants.genres.size(), 10u);

  const WorldConfig games = BoardGamesConfig(0.05);
  EXPECT_EQ(games.genres.size(), 20u);
  std::size_t factual = 0;
  for (const GenreSpec& genre : games.genres) factual += genre.factual;
  EXPECT_GE(factual, 2u);  // the perceptual-vs-factual contrast exists
  EXPECT_DOUBLE_EQ(games.rating_max, 10.0);  // BGG scale
}

TEST(DomainsTest, ScaleParameterScalesCounts) {
  const WorldConfig full = MoviesConfig(1.0);
  const WorldConfig half = MoviesConfig(0.5);
  EXPECT_EQ(full.num_items, 10562u);
  EXPECT_EQ(half.num_items, 5281u);
  EXPECT_LT(half.num_users, full.num_users);
}

TEST(DomainsTest, FactualGenresIndependentOfTraits) {
  // For a factual genre, labels should be (nearly) independent of cluster
  // structure; test via label rates across clusters staying near global.
  WorldConfig config = TinyConfig();
  SyntheticWorld world(config);
  std::size_t factual_index = config.genres.size();
  for (std::size_t g = 0; g < config.genres.size(); ++g) {
    if (config.genres[g].factual) factual_index = g;
  }
  ASSERT_LT(factual_index, config.genres.size());
  std::size_t positives = 0;
  for (std::uint32_t m = 0; m < world.num_items(); ++m) {
    positives += world.GenreLabel(factual_index, m) ? 1 : 0;
  }
  const double rate =
      static_cast<double>(positives) / static_cast<double>(world.num_items());
  EXPECT_NEAR(rate, config.genres[factual_index].prevalence, 0.08);
}

}  // namespace
}  // namespace ccdb::data
