#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>

#include "common/cancellation.h"
#include "common/journal.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/expansion.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "core/policy.h"
#include "core/quality.h"
#include "core/resolver.h"
#include "crowd/aggregation.h"
#include "crowd/platform.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "db/table.h"
#include "eval/metrics.h"
#include "eval/neighbors.h"

namespace ccdb::core {
namespace {

using data::SyntheticWorld;
using data::TinyConfig;

// Shared fixture: build one tiny world + perceptual space for all tests
// (SGD on the tiny world takes ~1s; doing it once keeps the suite fast).
class PerceptualSpaceFixture : public ::testing::Test {
 protected:
  static PerceptualSpaceOptions Options() {
    PerceptualSpaceOptions options;
    options.model.dims = 24;
    options.model.lambda = 0.02;
    options.trainer.max_epochs = 25;
    options.trainer.learning_rate = 0.02;
    return options;
  }
  static void SetUpTestSuite() {
    world_ = new SyntheticWorld(TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();
    space_ = new PerceptualSpace(PerceptualSpace::Build(ratings, Options()));
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
  }

  static SyntheticWorld* world_;
  static PerceptualSpace* space_;
};

SyntheticWorld* PerceptualSpaceFixture::world_ = nullptr;
PerceptualSpace* PerceptualSpaceFixture::space_ = nullptr;

// ------------------------------------------------------------- metrics

TEST(MetricsTest, ConfusionCounting) {
  const std::vector<bool> predicted = {true, true, false, false, true};
  const std::vector<bool> actual = {true, false, false, true, true};
  const auto counts = eval::CountConfusion(predicted, actual);
  EXPECT_EQ(counts.true_positive, 2u);
  EXPECT_EQ(counts.false_positive, 1u);
  EXPECT_EQ(counts.true_negative, 1u);
  EXPECT_EQ(counts.false_negative, 1u);
  EXPECT_DOUBLE_EQ(eval::Accuracy(counts), 0.6);
}

TEST(MetricsTest, GMeanPunishesDegenerateClassifier) {
  // "Never horror" classifier on 10% horror data: 90% accuracy, 0 g-mean
  // (the paper's Sec. 4.3 motivation for the measure).
  std::vector<bool> predicted(100, false);
  std::vector<bool> actual(100, false);
  for (int i = 0; i < 10; ++i) actual[i] = true;
  const auto counts = eval::CountConfusion(predicted, actual);
  EXPECT_DOUBLE_EQ(eval::Accuracy(counts), 0.9);
  EXPECT_DOUBLE_EQ(eval::GMean(counts), 0.0);
}

TEST(MetricsTest, GMeanOfPerfectClassifierIsOne) {
  std::vector<bool> labels = {true, false, true, false};
  const auto counts = eval::CountConfusion(labels, labels);
  EXPECT_DOUBLE_EQ(eval::GMean(counts), 1.0);
  EXPECT_DOUBLE_EQ(eval::Sensitivity(counts), 1.0);
  EXPECT_DOUBLE_EQ(eval::Specificity(counts), 1.0);
}

TEST(MetricsTest, RandomCoinIsNearHalfGMean) {
  Rng rng(3);
  std::vector<bool> predicted(20000), actual(20000);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    predicted[i] = rng.Bernoulli(0.5);
    actual[i] = rng.Bernoulli(0.1);  // imbalanced ground truth
  }
  const auto counts = eval::CountConfusion(predicted, actual);
  EXPECT_NEAR(eval::GMean(counts), 0.5, 0.02);
}

TEST(MetricsTest, PrecisionRecall) {
  std::vector<bool> predicted = {true, true, true, false};
  std::vector<bool> actual = {true, false, false, false};
  const auto counts = eval::CountConfusion(predicted, actual);
  EXPECT_NEAR(eval::Precision(counts), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(eval::Recall(counts), 1.0);
}

TEST(MetricsTest, MeanStddev) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const auto stats = eval::ComputeMeanStddev(values);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_NEAR(stats.stddev, std::sqrt(1.25), 1e-12);
}

TEST(MetricsTest, RmseKnownValue) {
  const std::vector<double> predicted = {1.0, 2.0};
  const std::vector<double> actual = {2.0, 4.0};
  EXPECT_NEAR(eval::Rmse(predicted, actual), std::sqrt(2.5), 1e-12);
}

// ------------------------------------------------------------- space

TEST_F(PerceptualSpaceFixture, SpaceShape) {
  EXPECT_EQ(space_->num_items(), world_->num_items());
  EXPECT_EQ(space_->dims(), 24u);
  EXPECT_GT(space_->CoordinateVariance(), 0.0);
}

/// The reference coordinate variance: two row-major passes, column means
/// then squared deviations, each summed per column in row order. The
/// value a space stores must match it bit for bit, or the auto RBF width
/// γ — and with it every extraction — would move.
double ReferenceCoordinateVariance(const Matrix& coords) {
  const std::size_t n = coords.rows();
  const std::size_t d = coords.cols();
  if (n == 0 || d == 0) return 0.0;
  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) mean[c] += row[c];
  }
  for (std::size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  std::vector<double> variance(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = row[c] - mean[c];
      variance[c] += diff * diff;
    }
  }
  double total_variance = 0.0;
  for (std::size_t c = 0; c < d; ++c) {
    total_variance += variance[c] / static_cast<double>(n);
  }
  return total_variance / static_cast<double>(d);
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST_F(PerceptualSpaceFixture, StoredCoordinateVarianceMatchesTheTwoPassLoop) {
  const double want = ReferenceCoordinateVariance(space_->item_coords());
  ASSERT_GT(want, 0.0);
  // The built space (coordinates, biases and mean) and the same
  // coordinates through the coordinates-only constructor.
  EXPECT_EQ(Bits(space_->CoordinateVariance()), Bits(want));
  const PerceptualSpace bare{Matrix(space_->item_coords())};
  EXPECT_EQ(Bits(bare.CoordinateVariance()), Bits(want));
  // A save/load round trip rebuilds each kind through its constructor.
  const std::string path = ::testing::TempDir() + "/space_variance.bin";
  const PerceptualSpace* const spaces[] = {space_, &bare};
  for (const PerceptualSpace* space : spaces) {
    ASSERT_TRUE(space->SaveToFile(path).ok());
    const auto loaded = PerceptualSpace::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(Bits(loaded.value().CoordinateVariance()), Bits(want));
  }
}

TEST(PerceptualSpaceVariance, MatchesTheTwoPassLoopOnOffsetCoordinates) {
  // Far from the origin, where a one-pass E[x²] − E[x]² would cancel: the
  // stored value is still the two-pass loop's, bit for bit.
  Rng rng(17);
  Matrix coords(37, 5);
  coords.FillGaussian(rng, 1e4, 0.5);
  const double want = ReferenceCoordinateVariance(coords);
  EXPECT_EQ(Bits(PerceptualSpace(coords).CoordinateVariance()), Bits(want));
  EXPECT_EQ(Bits(PerceptualSpace(coords, std::vector<double>(37, 0.25), 3.5)
                     .CoordinateVariance()),
            Bits(want));
}

TEST(PerceptualSpaceVariance, EmptySpaceHasZeroVariance) {
  EXPECT_EQ(Bits(PerceptualSpace(Matrix(0, 8)).CoordinateVariance()),
            Bits(0.0));
  EXPECT_EQ(Bits(PerceptualSpace(Matrix(0, 8), {}, 3.5).CoordinateVariance()),
            Bits(0.0));
  EXPECT_EQ(Bits(PerceptualSpace(Matrix(6, 0)).CoordinateVariance()),
            Bits(0.0));
  // An empty space survives the round trip with its zero.
  const std::string path = ::testing::TempDir() + "/space_empty.bin";
  ASSERT_TRUE(PerceptualSpace(Matrix(0, 8)).SaveToFile(path).ok());
  const auto loaded = PerceptualSpace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_items(), 0u);
  EXPECT_EQ(Bits(loaded.value().CoordinateVariance()), Bits(0.0));
}

TEST_F(PerceptualSpaceFixture, DistanceIsAMetricOnSamples) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    const auto b = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    const auto c = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    EXPECT_NEAR(space_->Distance(a, b), space_->Distance(b, a), 1e-12);
    EXPECT_GE(space_->Distance(a, b) + space_->Distance(b, c),
              space_->Distance(a, c) - 1e-9);
    EXPECT_DOUBLE_EQ(space_->Distance(a, a), 0.0);
  }
}

TEST_F(PerceptualSpaceFixture, NearestNeighborsSortedAndExcludeSelf) {
  const auto neighbors = space_->NearestNeighbors(0, 5);
  ASSERT_EQ(neighbors.size(), 5u);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_NE(neighbors[i].index, 0u);
    if (i > 0) {
      EXPECT_GE(neighbors[i].distance, neighbors[i - 1].distance);
    }
  }
}

TEST_F(PerceptualSpaceFixture, NeighborsShareClusters) {
  // The learned geometry must reflect the planted clusters: neighbor lists
  // should contain same-cluster items far above the chance rate.
  Rng rng(7);
  std::size_t same = 0, total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto query = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    for (const auto& neighbor : space_->NearestNeighbors(query, 5)) {
      same += world_->ClusterOf(static_cast<std::uint32_t>(neighbor.index)) ==
                      world_->ClusterOf(query)
                  ? 1
                  : 0;
      ++total;
    }
  }
  const double rate = static_cast<double>(same) / static_cast<double>(total);
  // Chance rate with 8 clusters ≈ 0.125; the space should far exceed it.
  EXPECT_GT(rate, 0.4);
}

TEST_F(PerceptualSpaceFixture, DistanceCorrelatesWithTraitDistance) {
  // Sec. 4.2's space-quality claim: embedding distances track the latent
  // perceptual dissimilarity (Pearson ≈ 0.52 in the paper).
  Rng rng(9);
  std::vector<double> space_distances, trait_distances;
  for (int pair = 0; pair < 500; ++pair) {
    const auto a = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    const auto b = static_cast<std::uint32_t>(
        rng.UniformInt(space_->num_items()));
    if (a == b) continue;
    space_distances.push_back(space_->Distance(a, b));
    trait_distances.push_back(Distance(world_->item_traits().Row(a),
                                       world_->item_traits().Row(b)));
  }
  const double correlation =
      PearsonCorrelation(space_distances, trait_distances);
  EXPECT_GT(correlation, 0.35);
}

TEST_F(PerceptualSpaceFixture, GatherRowsCopiesCoordinates) {
  const Matrix gathered = space_->GatherRows({3, 1});
  ASSERT_EQ(gathered.rows(), 2u);
  for (std::size_t c = 0; c < space_->dims(); ++c) {
    EXPECT_DOUBLE_EQ(gathered(0, c), space_->CoordsOf(3)[c]);
    EXPECT_DOUBLE_EQ(gathered(1, c), space_->CoordsOf(1)[c]);
  }
}

/// Every coordinate, every bias and the global mean of `loaded` are those
/// of `saved`, bit for bit.
void ExpectSameBits(const PerceptualSpace& saved,
                    const PerceptualSpace& loaded) {
  ASSERT_EQ(loaded.num_items(), saved.num_items());
  ASSERT_EQ(loaded.dims(), saved.dims());
  const auto expected = saved.item_coords().Data();
  const auto actual = loaded.item_coords().Data();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_EQ(Bits(actual[k]), Bits(expected[k])) << "coordinate " << k;
  }
  for (std::uint32_t m = 0; m < saved.num_items(); ++m) {
    ASSERT_EQ(Bits(loaded.BiasOf(m)), Bits(saved.BiasOf(m))) << "item " << m;
  }
  EXPECT_EQ(Bits(loaded.global_mean()), Bits(saved.global_mean()));
}

TEST_F(PerceptualSpaceFixture, SaveLoadRoundTrip) {
  // Through both constructors: the built space (coordinates, biases and
  // mean) and a space of its coordinates only.
  const PerceptualSpace bare{Matrix(space_->item_coords())};
  const std::string path = ::testing::TempDir() + "/space_roundtrip.bin";
  const PerceptualSpace* const spaces[] = {space_, &bare};
  for (const PerceptualSpace* space : spaces) {
    SCOPED_TRACE(space == space_ ? "built" : "coordinates only");
    ASSERT_TRUE(space->SaveToFile(path).ok());
    auto loaded = PerceptualSpace::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameBits(*space, loaded.value());
  }
}

TEST_F(PerceptualSpaceFixture, BuildHoldsTheTrainedFactorsBitForBit) {
  // Build moves the trained factors and biases into the space; they are
  // those of the same training run outside it, bit for bit.
  const RatingDataset ratings = world_->SampleRatings();
  const PerceptualSpaceOptions options = Options();
  factorization::FactorModel model(options.model, ratings);
  ASSERT_TRUE(factorization::TrainSgd(options.trainer, ratings, model).ok());
  ASSERT_EQ(space_->num_items(), model.num_items());
  ASSERT_EQ(space_->dims(), model.dims());
  const auto coords = space_->item_coords().Data();
  const auto factors = model.item_factors().Data();
  for (std::size_t k = 0; k < coords.size(); ++k) {
    ASSERT_EQ(Bits(coords[k]), Bits(factors[k])) << "coordinate " << k;
  }
  for (std::uint32_t m = 0; m < space_->num_items(); ++m) {
    ASSERT_EQ(Bits(space_->BiasOf(m)), Bits(model.item_bias()[m]))
        << "item " << m;
  }
  EXPECT_EQ(Bits(space_->global_mean()), Bits(model.global_mean()));
}

TEST(PerceptualSpaceIo, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a space", f);
  std::fclose(f);
  EXPECT_FALSE(PerceptualSpace::LoadFromFile(path).ok());
  EXPECT_FALSE(PerceptualSpace::LoadFromFile("/nonexistent/nope").ok());
}

TEST_F(PerceptualSpaceFixture, LoadRejectsFlippedPayloadByte) {
  const std::string path = ::testing::TempDir() + "/space_corrupt.bin";
  ASSERT_TRUE(space_->SaveToFile(path).ok());
  StatusOr<std::string> bytes = Fs::Posix().ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = std::move(bytes).value();
  // Flip one coordinate byte in the middle of the payload: the length
  // checks all pass, only the CRC can catch it.
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, corrupted).ok());
  const auto loaded = PerceptualSpace::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  // A bench cache hit distinguishes "no cache" (rebuild silently) from
  // "rejected cache" (rebuild loudly); corruption must be the latter.
  EXPECT_NE(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(PerceptualSpaceFixture, LoadRejectsTruncatedFile) {
  const std::string path = ::testing::TempDir() + "/space_truncated.bin";
  ASSERT_TRUE(space_->SaveToFile(path).ok());
  StatusOr<std::string> bytes = Fs::Posix().ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  // A torn write can cut the file anywhere; every prefix must be
  // rejected, never crash or load garbage.
  for (const double fraction : {0.1, 0.5, 0.9, 0.999}) {
    const auto cut =
        static_cast<std::string::size_type>(full.size() * fraction);
    ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, full.substr(0, cut)).ok());
    EXPECT_FALSE(PerceptualSpace::LoadFromFile(path).ok())
        << "prefix of " << cut << " bytes";
  }
}

TEST_F(PerceptualSpaceFixture, LoadRejectsStaleFormatMagic) {
  const std::string path = ::testing::TempDir() + "/space_stale.bin";
  ASSERT_TRUE(space_->SaveToFile(path).ok());
  StatusOr<std::string> bytes = Fs::Posix().ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string stale = std::move(bytes).value();
  // A cache written by an older build (different magic) must be refused
  // up front, so benches fall back to recomputing the space.
  stale.replace(0, 8, "CCDBPS01");
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, stale).ok());
  EXPECT_FALSE(PerceptualSpace::LoadFromFile(path).ok());
}

/// A 5-item, 3-dimensional space whose values include signed zeros, a
/// subnormal and values no decimal prints exactly; with biases and a
/// global mean when `biased`.
PerceptualSpace SmallSpace(bool biased) {
  const double values[] = {0.1,       -0.0,    4.9e-324,   // item 0
                           1.0 / 3.0, -2.5,    1e300,      // item 1
                           -1e-300,   7.25,    0.0,        // item 2
                           -0.1,      6.0,     2.0 / 3.0,  // item 3
                           -9.5e-12,  123.456, 3.0};       // item 4
  Matrix coords(5, 3);
  std::copy(std::begin(values), std::end(values), coords.Data().begin());
  if (!biased) return PerceptualSpace(std::move(coords));
  return PerceptualSpace(std::move(coords), {0.25, -0.5, 0.0, -0.0, 1e-9},
                         3.6);
}

/// Writes `file` to `path` and loads it: success when the load fails with
/// a status other than NotFound (a bench cache rebuilds such a file and
/// says so).
::testing::AssertionResult LoadRefuses(const std::string& path,
                                       const std::string& file) {
  if (!Fs::Posix().WriteFile(path, file).ok()) {
    return ::testing::AssertionFailure() << "cannot write " << path;
  }
  const auto loaded = PerceptualSpace::LoadFromFile(path);
  if (loaded.ok()) return ::testing::AssertionFailure() << "loaded";
  if (loaded.status().code() == StatusCode::kNotFound) {
    return ::testing::AssertionFailure() << loaded.status().ToString();
  }
  return ::testing::AssertionSuccess();
}

TEST(PerceptualSpaceIo, LoadRejectsEveryPrefixAndEveryBitFlip) {
  // A torn write can cut the file anywhere and bit rot can flip any bit:
  // every such file is refused, never loaded and never an abort. The
  // intact file round-trips bit for bit.
  const std::string path = ::testing::TempDir() + "/space_small.bin";
  for (const bool biased : {false, true}) {
    SCOPED_TRACE(biased ? "with biases" : "without biases");
    const PerceptualSpace space = SmallSpace(biased);
    ASSERT_TRUE(space.SaveToFile(path).ok());
    const StatusOr<std::string> bytes = Fs::Posix().ReadFile(path);
    ASSERT_TRUE(bytes.ok());
    const std::string& full = bytes.value();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      ASSERT_TRUE(LoadRefuses(path, full.substr(0, cut)))
          << "prefix of " << cut << " bytes";
    }
    for (std::size_t bit = 0; bit < 8 * full.size(); ++bit) {
      std::string flipped = full;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_TRUE(LoadRefuses(path, flipped)) << "bit " << bit << " flipped";
    }
    ASSERT_TRUE(Fs::Posix().WriteFile(path, full).ok());
    const auto loaded = PerceptualSpace::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameBits(space, loaded.value());
  }
}

TEST(PerceptualSpaceIo, LoadRejectsItemCountsThePayloadCannotHold) {
  // Sealed, CRC-valid files whose header counts more items than the
  // payload holds are InvalidArgument before anything is allocated for
  // them: items of no value at all (dims 0, no biases); 2^61 biases, whose
  // byte count wraps to 0; and 2^63 + 1 items of 2 coordinates, whose
  // count of doubles wraps to the 2 the payload holds. The control header
  // matches its payload and loads.
  struct Header {
    std::uint64_t items;
    std::uint64_t dims;
    bool has_bias;
    std::size_t doubles;  // written after the header
    const char* what;
  };
  const Header crafted[] = {
      {1, 0, false, 0, "1 item of no value"},
      {1ull << 61, 0, false, 0, "2^61 items of no value"},
      {1ull << 61, 0, true, 0, "2^61 biases"},
      {(1ull << 63) + 1, 2, false, 2, "items x dims wraps to 2"},
  };
  constexpr char kMagic[8] = {'C', 'C', 'D', 'B', 'P', 'S', '0', '3'};
  const std::string path = ::testing::TempDir() + "/space_crafted.bin";
  const auto load = [&](const Header& header) {
    ByteWriter w;
    w.PutU64(header.items);
    w.PutU64(header.dims);
    w.PutBool(header.has_bias);
    w.PutF64(3.5);
    for (std::size_t k = 0; k < header.doubles; ++k) w.PutF64(0.5);
    EXPECT_TRUE(
        Fs::Posix().WriteFile(path, SealEnvelope(kMagic, w.bytes())).ok());
    return PerceptualSpace::LoadFromFile(path);
  };
  for (const Header& header : crafted) {
    EXPECT_EQ(load(header).status().code(), StatusCode::kInvalidArgument)
        << header.what;
  }
  const auto control = load({2, 1, true, 4, "2 items of 1 coordinate"});
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control.value().num_items(), 2u);
  EXPECT_EQ(control.value().BiasOf(1), 0.5);
  EXPECT_EQ(control.value().global_mean(), 3.5);
}

// ------------------------------------------------------------- extractor

std::pair<std::vector<std::uint32_t>, std::vector<bool>> BalancedSample(
    const SyntheticWorld& world, std::size_t genre, std::size_t n,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> positives, negatives;
  std::vector<std::uint32_t> order(world.num_items());
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  for (std::uint32_t item : order) {
    if (world.GenreLabel(genre, item)) {
      if (positives.size() < n) positives.push_back(item);
    } else if (negatives.size() < n) {
      negatives.push_back(item);
    }
  }
  std::vector<std::uint32_t> items = positives;
  items.insert(items.end(), negatives.begin(), negatives.end());
  std::vector<bool> labels(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) labels[i] = i < n;
  return {items, labels};
}

TEST_F(PerceptualSpaceFixture, StoredLabelPointsLabelAsFreshlyPreparedOnes) {
  // The label points a space prepares at construction give the labels
  // that points prepared from the same coordinates give, and those are
  // the exact values' signs: for the built space (the three-argument
  // constructor), the coordinates-only constructor, a copy and a moved
  // space, and each of the first two after a save/load round trip.
  const auto [items, labels] = BalancedSample(*world_, 0, 25, 43);
  BinaryAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, labels));
  const svm::SvmModel& model = extractor.model();
  const auto check = [&](const PerceptualSpace& space,
                         const std::string& what) {
    SCOPED_TRACE(what);
    const Matrix& coords = space.item_coords();
    const std::size_t n = coords.rows();
    ASSERT_EQ(space.label_points().rows(), n);
    ASSERT_EQ(space.label_points().cols(), coords.cols());
    const auto stored = std::make_unique<bool[]>(n);
    const auto fresh = std::make_unique<bool[]>(n);
    ASSERT_TRUE(model.LabelsInto(coords, space.label_points(),
                                 StopCondition(), std::span(stored.get(), n)));
    ASSERT_TRUE(model.LabelsInto(coords, svm::LabelPoints(coords),
                                 StopCondition(), std::span(fresh.get(), n)));
    std::vector<double> values(n);
    ASSERT_TRUE(model.DecisionValuesInto(coords, StopCondition(), values));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(stored[i], fresh[i]) << "item " << i;
      ASSERT_EQ(stored[i], values[i] >= 0.0) << "item " << i;
    }
  };
  const PerceptualSpace bare{Matrix(space_->item_coords())};
  check(*space_, "built");
  check(bare, "coordinates only");
  PerceptualSpace copy = *space_;
  check(copy, "copy");
  const PerceptualSpace moved = std::move(copy);
  check(moved, "moved");
  const std::string path = ::testing::TempDir() + "/space_label_points.bin";
  const PerceptualSpace* const spaces[] = {space_, &bare};
  for (const PerceptualSpace* space : spaces) {
    ASSERT_TRUE(space->SaveToFile(path).ok());
    const auto loaded = PerceptualSpace::LoadFromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    check(loaded.value(), space == space_ ? "built, loaded" : "bare, loaded");
  }
}

TEST_F(PerceptualSpaceFixture, BinaryExtractorBeatsChance) {
  const auto [items, labels] = BalancedSample(*world_, 0, 20, 11);
  BinaryAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, labels));
  const std::vector<bool> predicted = extractor.ExtractAll(*space_);
  std::vector<bool> truth(world_->num_items());
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    truth[m] = world_->GenreLabel(0, m);
  }
  const auto counts = eval::CountConfusion(predicted, truth);
  EXPECT_GT(eval::GMean(counts), 0.62);
}

TEST_F(PerceptualSpaceFixture, ExtractorRefusesSingleClassSample) {
  BinaryAttributeExtractor extractor;
  EXPECT_FALSE(extractor.Train(*space_, {0, 1, 2}, {true, true, true}));
  EXPECT_FALSE(extractor.trained());
}

TEST_F(PerceptualSpaceFixture, MoreTrainingDataHelps) {
  double gmeans[2];
  const std::size_t sizes[2] = {5, 40};
  for (int round = 0; round < 2; ++round) {
    std::vector<double> values;
    for (std::uint64_t rep = 0; rep < 5; ++rep) {
      const auto [items, labels] =
          BalancedSample(*world_, 1, sizes[round], 13 + rep);
      BinaryAttributeExtractor extractor;
      if (!extractor.Train(*space_, items, labels)) continue;
      const auto predicted = extractor.ExtractAll(*space_);
      std::vector<bool> truth(world_->num_items());
      for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
        truth[m] = world_->GenreLabel(1, m);
      }
      values.push_back(eval::GMean(eval::CountConfusion(predicted, truth)));
    }
    gmeans[round] = eval::ComputeMeanStddev(values).mean;
  }
  EXPECT_GT(gmeans[1], gmeans[0] - 0.05);  // n=40 ≳ n=5
}

TEST_F(PerceptualSpaceFixture, FactualAttributeIsUnlearnable) {
  // Genre 2 of TinyConfig is factual: independent of the geometry. The
  // extractor must not beat chance on *held-out* items (training items
  // are excluded from evaluation — the SVM can memorize those).
  double total = 0.0;
  const int reps = 4;
  for (int rep = 0; rep < reps; ++rep) {
    const auto [items, labels] = BalancedSample(*world_, 2, 30, 17 + rep);
    BinaryAttributeExtractor extractor;
    ASSERT_TRUE(extractor.Train(*space_, items, labels));
    const auto predicted = extractor.ExtractAll(*space_);
    std::vector<bool> heldout_predicted, heldout_truth;
    std::vector<bool> in_training(world_->num_items(), false);
    for (std::uint32_t item : items) in_training[item] = true;
    for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
      if (in_training[m]) continue;
      heldout_predicted.push_back(predicted[m]);
      heldout_truth.push_back(world_->GenreLabel(2, m));
    }
    total += eval::GMean(
        eval::CountConfusion(heldout_predicted, heldout_truth));
  }
  EXPECT_LT(total / reps, 0.62);  // no better than ~chance
}

TEST_F(PerceptualSpaceFixture, DecisionValuesSignLabelsAndRankConfidence) {
  const auto [items, labels] = BalancedSample(*world_, 0, 25, 41);
  BinaryAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, labels));
  const auto decisions = extractor.DecisionValues(*space_);
  const auto predicted = extractor.ExtractAll(*space_);
  ASSERT_EQ(decisions.size(), world_->num_items());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    ASSERT_EQ(decisions[i] >= 0.0, predicted[i]) << "item " << i;
  }
  // Informative margins, which the hybrid strategy ranks by: items beyond
  // the positive margin are mostly true positives.
  std::size_t confident = 0, confident_correct = 0;
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    if (decisions[m] >= 1.0) {
      ++confident;
      confident_correct += world_->GenreLabel(0, m) ? 1 : 0;
    }
  }
  ASSERT_GT(confident, 10u);
  EXPECT_GT(static_cast<double>(confident_correct) /
                static_cast<double>(confident),
            0.6);
}

TEST_F(PerceptualSpaceFixture, NumericExtractorTracksLatentScore) {
  // Use distance-to-first-cluster-center as a synthetic numeric perceptual
  // attribute; SVR must approximate it from 60 samples.
  std::vector<double> truth(world_->num_items());
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    truth[m] = 5.0 - Distance(world_->item_traits().Row(m),
                              world_->item_traits().Row(0));
  }
  Rng rng(19);
  std::vector<std::uint32_t> items;
  std::vector<double> values;
  for (std::size_t index :
       rng.SampleWithoutReplacement(world_->num_items(), 60)) {
    items.push_back(static_cast<std::uint32_t>(index));
    values.push_back(truth[index]);
  }
  NumericAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, values));
  const std::vector<double> predicted = extractor.ExtractAll(*space_);
  EXPECT_GT(PearsonCorrelation(predicted, truth), 0.5);
}

TEST_F(PerceptualSpaceFixture, NumericExtractorRejectsEmptySample) {
  NumericAttributeExtractor extractor;
  EXPECT_FALSE(extractor.Train(*space_, {}, {}));
}

// ------------------------------------------------------------- quality

TEST_F(PerceptualSpaceFixture, QualityCheckerFindsSwappedLabels) {
  // Sec. 4.4's controlled experiment at tiny scale: swap 10% of labels,
  // expect recall well above chance and precision far above the 10% base
  // rate of swapped labels.
  Rng rng(23);
  std::vector<bool> labels(world_->num_items());
  std::vector<bool> swapped(world_->num_items(), false);
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    labels[m] = world_->GenreLabel(0, m);
  }
  const std::size_t num_swaps = world_->num_items() / 10;
  for (std::size_t index :
       rng.SampleWithoutReplacement(world_->num_items(), num_swaps)) {
    labels[index] = !labels[index];
    swapped[index] = true;
  }
  const QualityCheckResult result =
      FlagQuestionableLabels(*space_, labels, QualityCheckOptions{});
  const auto counts = eval::CountConfusion(result.flagged, swapped);
  EXPECT_GT(eval::Recall(counts), 0.55);
  EXPECT_GT(eval::Precision(counts), 0.25);
}

TEST_F(PerceptualSpaceFixture, QualityCheckerDegenerateLabels) {
  std::vector<bool> labels(world_->num_items(), true);
  const QualityCheckResult result =
      FlagQuestionableLabels(*space_, labels, QualityCheckOptions{});
  EXPECT_EQ(result.num_flagged, 0u);
}

// ------------------------------------------------------------- policy

TEST(PolicyTest, SpaceStrategyWinsOnLargeTables) {
  CrowdCostModel model;
  const ExpansionPlan plan = PlanExpansion(10562, 100, model);
  EXPECT_TRUE(plan.use_space);
  // Direct: 10562 items → ceil(10562/10)·10 HITs · $0.02 = $211.4;
  // space: 100 items → 100 HITs · $0.02 = $2.
  EXPECT_NEAR(plan.direct.dollars, 211.4, 0.01);
  EXPECT_NEAR(plan.space.dollars, 2.0, 1e-9);
  EXPECT_GT(plan.cost_ratio, 100.0);
  EXPECT_GT(plan.direct.minutes, plan.space.minutes);
}

TEST(PolicyTest, DirectWinsWithoutSpace) {
  const ExpansionPlan plan =
      PlanExpansion(10562, 100, CrowdCostModel{}, /*space_available=*/false);
  EXPECT_FALSE(plan.use_space);
}

TEST(PolicyTest, TinyTableIsBreakEven) {
  const ExpansionPlan plan = PlanExpansion(50, 100, CrowdCostModel{});
  // The gold sample cannot exceed the table; costs tie → direct is fine.
  EXPECT_FALSE(plan.use_space);
  EXPECT_NEAR(plan.direct.dollars, plan.space.dollars, 1e-9);
}

TEST(PolicyTest, SelectUncertainItemsPicksSmallestMargins) {
  const std::vector<double> decisions = {5.0, -0.1, 2.0, 0.05, -3.0};
  const auto uncertain = SelectUncertainItems(decisions, 0.4);
  ASSERT_EQ(uncertain.size(), 2u);
  EXPECT_EQ(uncertain[0], 3u);  // |0.05|
  EXPECT_EQ(uncertain[1], 1u);  // |-0.1|
}

TEST(PolicyTest, SelectUncertainEdgeFractions) {
  const std::vector<double> decisions = {1.0, 2.0};
  EXPECT_TRUE(SelectUncertainItems(decisions, 0.0).empty());
  EXPECT_EQ(SelectUncertainItems(decisions, 1.0).size(), 2u);
}

// ------------------------------------------------------------- expansion

TEST_F(PerceptualSpaceFixture, IncrementalExpansionProducesCheckpoints) {
  // Synthesize a judgment stream: 200 sample items, honest judgments
  // arriving uniformly over 50 minutes.
  Rng rng(29);
  std::vector<std::uint32_t> sample;
  for (std::size_t index :
       rng.SampleWithoutReplacement(world_->num_items(), 200)) {
    sample.push_back(static_cast<std::uint32_t>(index));
  }
  std::vector<crowd::Judgment> judgments;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (int vote = 0; vote < 3; ++vote) {
      crowd::Judgment judgment;
      judgment.item = static_cast<std::uint32_t>(i);
      judgment.answer = world_->GenreLabel(0, sample[i])
                            ? crowd::Answer::kPositive
                            : crowd::Answer::kNegative;
      judgment.timestamp_minutes = rng.Uniform(0.0, 50.0);
      judgment.cost_dollars = 0.002;
      judgments.push_back(judgment);
    }
  }
  std::sort(judgments.begin(), judgments.end(),
            [](const crowd::Judgment& a, const crowd::Judgment& b) {
              return a.timestamp_minutes < b.timestamp_minutes;
            });

  IncrementalExpansionOptions options;
  options.checkpoint_interval_minutes = 5.0;
  const StatusOr<std::vector<ExpansionCheckpoint>> run =
      RunIncrementalExpansion(*space_, sample, judgments, 50.0, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::vector<ExpansionCheckpoint>& checkpoints = run.value();
  ASSERT_EQ(checkpoints.size(), 10u);
  // Training sets grow, money grows, and the extractor eventually trains.
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_GE(checkpoints[i].training_size, checkpoints[i - 1].training_size);
    EXPECT_GE(checkpoints[i].dollars_spent, checkpoints[i - 1].dollars_spent);
  }
  EXPECT_TRUE(checkpoints.back().extractor_trained);
  EXPECT_EQ(checkpoints.back().extracted.size(), sample.size());

  // Final extraction should beat the crowd's coverage (100% vs partial)
  // and be decently accurate.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (checkpoints.back().extracted[i] == world_->GenreLabel(0, sample[i])) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(sample.size()),
            0.7);
}

// ------------------------------------------------------------ Expand

namespace {

// The gold sample + honest pool shared by the expansion pipeline tests.
struct ExpandSetup {
  SchemaExpansionRequest request;
  std::vector<bool> sample_truth;
  crowd::WorkerPool pool;
  crowd::HitRunConfig hit_config;
};

ExpandSetup MakeExpandSetup(data::SyntheticWorld& world, std::uint64_t seed) {
  ExpandSetup setup;
  Rng rng(seed);
  setup.request.attribute_name = "is_comedy";
  for (std::size_t index :
       rng.SampleWithoutReplacement(world.num_items(), 80)) {
    setup.request.gold_sample_items.push_back(
        static_cast<std::uint32_t>(index));
    setup.sample_truth.push_back(
        world.GenreLabel(0, static_cast<std::uint32_t>(index)));
  }
  for (int i = 0; i < 10; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = 2.0;
    setup.pool.workers.push_back(worker);
  }
  setup.hit_config.judgments_per_item = 5;
  setup.hit_config.perception_flip_rate = 0.05;
  setup.hit_config.seed = 33;
  return setup;
}

}  // namespace

TEST_F(PerceptualSpaceFixture, ExpandEndToEnd) {
  const ExpandSetup setup = MakeExpandSetup(*world_, 31);
  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, ExpansionOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.values.size(), world_->num_items());
  EXPECT_GT(result.crowd_dollars, 0.0);
  EXPECT_GT(result.gold_sample_classified, 60u);

  std::vector<bool> truth(world_->num_items());
  for (std::uint32_t m = 0; m < world_->num_items(); ++m) {
    truth[m] = world_->GenreLabel(0, m);
  }
  const auto counts = eval::CountConfusion(result.values, truth);
  EXPECT_GT(eval::GMean(counts), 0.6);
}

TEST_F(PerceptualSpaceFixture, ExpandMatchesPlainPipelineOnZeroFaults) {
  const ExpandSetup setup = MakeExpandSetup(*world_, 31);
  // The plain pipeline, stage by stage: one crowd run, a majority vote at
  // its end, training on the classified items, and the fill.
  const crowd::CrowdRunResult run =
      crowd::RunCrowdTask(setup.pool, setup.sample_truth, setup.hit_config);
  const std::vector<std::optional<bool>> votes = crowd::MajorityVote(
      run.judgments, setup.sample_truth.size(), run.total_minutes);
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (!votes[i].has_value()) continue;
    items.push_back(setup.request.gold_sample_items[i]);
    labels.push_back(*votes[i]);
  }
  BinaryAttributeExtractor plain(setup.request.extractor);
  ASSERT_TRUE(plain.Train(*space_, items, labels));

  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, ExpansionOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.topup_rounds, 0u);
  EXPECT_EQ(result.gold_sample_classified, items.size());
  EXPECT_EQ(result.crowd_dollars, run.total_cost_dollars);
  EXPECT_EQ(result.crowd_minutes, run.total_minutes);
  // Identical judgments -> identical training set -> identical classifier.
  EXPECT_EQ(result.values, plain.ExtractAll(*space_));
}

// The resolver builds each expanded column once and hands it to
// Table::AddColumn; the column must hold its extractor's ExtractAll output,
// cell for cell. Row i is item i, as the resolver requires; a table may
// hold only a prefix of the items.
namespace {

db::Table ItemTable(std::size_t num_items) {
  std::vector<db::Value> ids;
  for (std::size_t item = 0; item < num_items; ++item) {
    ids.emplace_back(static_cast<std::int64_t>(item));
  }
  return db::Table("items", db::Schema({{"item_id", db::ColumnType::kInt}}),
                   {std::move(ids)});
}

}  // namespace

TEST_F(PerceptualSpaceFixture, ResolvedBoolColumnIsTheExtractorOutput) {
  const ExpandSetup setup = MakeExpandSetup(*world_, 31);
  PerceptualExpansionResolver resolver(space_, setup.pool, setup.hit_config);
  std::vector<std::uint32_t> asked;
  PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = 80;
  spec.bool_truth = [&](std::uint32_t item) {
    asked.push_back(item);
    return world_->GenreLabel(0, item);
  };
  resolver.RegisterAttribute("is_comedy", std::move(spec));
  db::Table full = ItemTable(space_->num_items());
  db::Table prefix = ItemTable(space_->num_items() / 3);
  ASSERT_TRUE(resolver.Resolve(full, "is_comedy").ok());
  const std::vector<std::uint32_t> gold = asked;
  ASSERT_TRUE(resolver.Resolve(prefix, "is_comedy").ok());
  // Both expansions asked the crowd about the same gold sample.
  ASSERT_EQ(asked.size(), 2 * gold.size());
  ASSERT_TRUE(
      std::equal(gold.begin(), gold.end(), asked.begin() + gold.size()));

  // The same expansion outside the resolver: its gold items and their
  // truth, the same pool and HITs.
  SchemaExpansionRequest request;
  request.attribute_name = "is_comedy";
  request.gold_sample_items = gold;
  std::vector<bool> sample_truth;
  for (std::uint32_t item : gold) {
    sample_truth.push_back(world_->GenreLabel(0, item));
  }
  const SchemaExpansionResult want =
      Expand(*space_, request, setup.pool, setup.hit_config, sample_truth,
             ExpansionOptions{});
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_EQ(want.values.size(), space_->num_items());

  for (const db::Table* table : {&full, &prefix}) {
    SCOPED_TRACE(std::to_string(table->num_rows()) + " rows");
    ASSERT_EQ(table->schema().FindColumn("is_comedy"), 1u);
    ASSERT_EQ(table->Column(1).size(), table->num_rows());
    for (std::size_t row = 0; row < table->num_rows(); ++row) {
      const bool* cell = std::get_if<bool>(&table->Get(row, 1));
      ASSERT_NE(cell, nullptr) << "row " << row;
      ASSERT_EQ(*cell, want.values[row]) << "row " << row;
    }
  }
}

TEST_F(PerceptualSpaceFixture, EachAttributeKeepsItsOwnGoldSample) {
  // A gold sample is seeded by its attribute's place in registration
  // order: two Boolean attributes are asked about different items, and
  // registering a third attribute leaves the first one's sample and its
  // filled column as they were.
  const ExpandSetup setup = MakeExpandSetup(*world_, 31);
  std::map<std::string, std::vector<std::uint32_t>> asked;
  const auto register_genres = [&](PerceptualExpansionResolver& resolver,
                                   std::size_t count) {
    for (std::size_t genre = 0; genre < count; ++genre) {
      const std::string name = "genre" + std::to_string(genre);
      PerceptualAttributeSpec spec;
      spec.type = db::ColumnType::kBool;
      spec.gold_sample_size = 80;
      spec.bool_truth = [&asked, name, genre](std::uint32_t item) {
        asked[name].push_back(item);
        return world_->GenreLabel(genre, item);
      };
      resolver.RegisterAttribute(name, std::move(spec));
    }
  };

  PerceptualExpansionResolver two(space_, setup.pool, setup.hit_config);
  register_genres(two, 2);
  db::Table two_table = ItemTable(space_->num_items());
  ASSERT_TRUE(two.Resolve(two_table, "genre0").ok());
  ASSERT_TRUE(two.Resolve(two_table, "genre1").ok());
  const std::vector<std::uint32_t> first_sample = asked["genre0"];
  ASSERT_EQ(first_sample.size(), 80u);
  EXPECT_NE(first_sample, asked["genre1"]);

  asked.clear();
  PerceptualExpansionResolver three(space_, setup.pool, setup.hit_config);
  register_genres(three, 3);
  db::Table three_table = ItemTable(space_->num_items());
  ASSERT_TRUE(three.Resolve(three_table, "genre0").ok());
  EXPECT_EQ(asked["genre0"], first_sample);
  EXPECT_EQ(three_table.Column(1), two_table.Column(1));
}

TEST_F(PerceptualSpaceFixture, ResolvedDoubleColumnIsTheExtractorOutput) {
  constexpr std::uint64_t kSeed = 5;
  constexpr std::size_t kGold = 60;
  const auto humor = [&](std::uint32_t item) {
    return 5.0 + 4.0 * world_->item_traits()(item, 0) /
                     (std::abs(world_->item_traits()(item, 0)) + 0.5);
  };
  PerceptualExpansionResolver resolver(space_, crowd::WorkerPool{},
                                       crowd::HitRunConfig{}, kSeed);
  std::vector<std::uint32_t> asked;
  PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kDouble;
  spec.gold_sample_size = kGold;
  spec.numeric_truth = [&](std::uint32_t item) {
    asked.push_back(item);
    return humor(item);
  };
  resolver.RegisterAttribute("humor", std::move(spec));
  db::Table table = ItemTable(space_->num_items());
  ASSERT_TRUE(resolver.Resolve(table, "humor").ok());

  // The resolver's gold judgments, drawn as it draws them: the items from
  // Rng(seed + 2k + 2) for the k-th attribute registered (k = 0 here), then
  // one N(0, 0.25) draw per item on top of its truth.
  Rng rng(kSeed + 2);
  std::vector<std::uint32_t> items;
  std::vector<double> judgments;
  for (std::size_t index :
       rng.SampleWithoutReplacement(space_->num_items(), kGold)) {
    const auto item = static_cast<std::uint32_t>(index);
    items.push_back(item);
    judgments.push_back(humor(item) + rng.Gaussian(0.0, 0.25));
  }
  ASSERT_EQ(items, asked);
  NumericAttributeExtractor extractor;
  ASSERT_TRUE(extractor.Train(*space_, items, judgments));
  const std::vector<double> want = extractor.ExtractAll(*space_);

  ASSERT_EQ(table.schema().FindColumn("humor"), 1u);
  ASSERT_EQ(table.Column(1).size(), want.size());
  for (std::size_t row = 0; row < want.size(); ++row) {
    const double* cell = std::get_if<double>(&table.Get(row, 1));
    ASSERT_NE(cell, nullptr) << "row " << row;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*cell),
              std::bit_cast<std::uint64_t>(want[row]))
        << "row " << row << ": " << *cell << " vs " << want[row];
  }
}

TEST_F(PerceptualSpaceFixture, ExpandHonorsDollarCapUnderAbandonment) {
  ExpandSetup setup = MakeExpandSetup(*world_, 31);
  setup.hit_config.fault.abandonment_prob = 0.3;

  ExpansionOptions options;
  options.dispatcher.deadline_minutes = 60.0;
  options.dispatcher.max_reposts = 4;
  options.dispatcher.backoff_initial_minutes = 2.0;
  options.dispatcher.max_dollars = 1.50;

  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, options);
  // Degradation must be graceful: a classifier still comes back, the
  // spend stays under the cap, and the dispatch ledger is populated.
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_LE(result.crowd_dollars, options.dispatcher.max_dollars);
  EXPECT_GT(result.dispatch.abandoned_hits, 0u);
  EXPECT_EQ(result.values.size(), world_->num_items());
}

TEST_F(PerceptualSpaceFixture, ExpandTopsUpOneClassSample) {
  ExpandSetup setup = MakeExpandSetup(*world_, 31);
  // A sample with a single positive, judged once per item by workers who
  // know almost nothing: the primary pass classifies a few negatives at
  // best, the lone positive (and most of the sample) stays unresolved —
  // exactly the one-class situation the top-up is for.
  setup.request.gold_sample_items.clear();
  setup.sample_truth.clear();
  bool have_positive = false;
  for (std::uint32_t m = 0;
       m < world_->num_items() &&
       setup.request.gold_sample_items.size() < 80;
       ++m) {
    const bool label = world_->GenreLabel(0, m);
    if (label && have_positive) continue;
    if (label) have_positive = true;
    setup.request.gold_sample_items.push_back(m);
    setup.sample_truth.push_back(label);
  }
  ASSERT_TRUE(have_positive);
  setup.hit_config.judgments_per_item = 1;
  setup.hit_config.perception_flip_rate = 0.0;
  for (auto& worker : setup.pool.workers) worker.knowledge = 0.06;

  ExpansionOptions options;
  options.topup_judgments_per_item = 7;
  options.max_topups = 2;

  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, options);
  // If even the top-ups cannot produce two classes the failure is a
  // reported status, never a crash; a success had to come from a top-up
  // round, not the starved primary.
  if (result.status.ok()) {
    EXPECT_GE(result.topup_rounds, 1u);
    EXPECT_GT(result.gold_sample_classified, 0u);
  }
}

TEST_F(PerceptualSpaceFixture, ExpandReportsASampleThatStaysOneClass) {
  // Every gold item is truly negative, and the honest workers answer
  // correctly or say "don't know": one judgment per item leaves most of
  // the sample unresolved, so top-up rounds run, and every vote they add
  // is negative too. The sample is one-class after voting and stays so
  // after the top-ups. Expand must say so in its status, within its
  // dollar cap, and never abort.
  ExpandSetup setup = MakeExpandSetup(*world_, 31);
  setup.request.gold_sample_items.clear();
  setup.sample_truth.clear();
  for (std::uint32_t m = 0;
       m < world_->num_items() &&
       setup.request.gold_sample_items.size() < 60;
       ++m) {
    if (world_->GenreLabel(0, m)) continue;
    setup.request.gold_sample_items.push_back(m);
    setup.sample_truth.push_back(false);
  }
  ASSERT_EQ(setup.sample_truth.size(), 60u);
  setup.hit_config.judgments_per_item = 1;
  setup.hit_config.perception_flip_rate = 0.0;
  for (auto& worker : setup.pool.workers) {
    worker.honest = true;
    worker.knowledge = 0.3;
    worker.accuracy = 1.0;
  }

  ExpansionOptions options;
  options.topup_judgments_per_item = 3;
  options.max_topups = 2;
  options.dispatcher.max_dollars = 2.0;

  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, options);
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
      << result.status.ToString();
  EXPECT_GE(result.topup_rounds, 1u);
  EXPECT_GT(result.crowd_dollars, 0.0);
  EXPECT_LE(result.crowd_dollars, options.dispatcher.max_dollars);
  EXPECT_FALSE(result.dispatch.budget_exhausted);
  EXPECT_TRUE(result.values.empty());
}

TEST_F(PerceptualSpaceFixture, ExpandRejectsMalformedRequests) {
  const ExpandSetup setup = MakeExpandSetup(*world_, 31);
  SchemaExpansionRequest empty;
  empty.attribute_name = "nothing";
  const SchemaExpansionResult no_sample =
      Expand(*space_, empty, setup.pool, setup.hit_config, {},
             ExpansionOptions{});
  EXPECT_EQ(no_sample.status.code(), StatusCode::kInvalidArgument);

  std::vector<bool> short_truth(setup.sample_truth.begin(),
                                setup.sample_truth.end() - 1);
  const SchemaExpansionResult mismatched =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             short_truth, ExpansionOptions{});
  EXPECT_EQ(mismatched.status.code(), StatusCode::kInvalidArgument);

  const SchemaExpansionResult no_workers =
      Expand(*space_, setup.request, crowd::WorkerPool{}, setup.hit_config,
             setup.sample_truth, ExpansionOptions{});
  EXPECT_EQ(no_workers.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(PerceptualSpaceFixture, ExpandReportsStopThatFiresBeforeTraining) {
  // The stop lands after the pipeline's last between-stage check but
  // before SMO's first step (here: it fired before the call, and only the
  // solver sees it). SMO keeps no support vector; the pipeline must report
  // the stop — which the service's circuit breaker treats as neutral —
  // instead of aborting on the empty model or blaming the gold sample.
  ExpandSetup setup = MakeExpandSetup(*world_, 31);
  CancellationSource source;
  source.Cancel();
  setup.request.extractor.smo.stop = StopCondition(source.token());
  const SchemaExpansionResult result =
      Expand(*space_, setup.request, setup.pool, setup.hit_config,
             setup.sample_truth, ExpansionOptions{});
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.values.empty());
  EXPECT_GT(result.crowd_dollars, 0.0);
}

TEST_F(PerceptualSpaceFixture, IncrementalExpansionStopsAtDollarCap) {
  Rng rng(29);
  std::vector<std::uint32_t> sample;
  for (std::size_t index :
       rng.SampleWithoutReplacement(world_->num_items(), 100)) {
    sample.push_back(static_cast<std::uint32_t>(index));
  }
  std::vector<crowd::Judgment> judgments;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (int vote = 0; vote < 3; ++vote) {
      crowd::Judgment judgment;
      judgment.item = static_cast<std::uint32_t>(i);
      judgment.answer = world_->GenreLabel(0, sample[i])
                            ? crowd::Answer::kPositive
                            : crowd::Answer::kNegative;
      judgment.timestamp_minutes = rng.Uniform(0.0, 50.0);
      judgment.cost_dollars = 0.01;
      judgments.push_back(judgment);
    }
  }
  IncrementalExpansionOptions options;
  options.checkpoint_interval_minutes = 5.0;

  const auto uncapped =
      RunIncrementalExpansion(*space_, sample, judgments, 50.0, options);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status().ToString();
  ASSERT_EQ(uncapped.value().size(), 10u);

  options.max_dollars = 1.0;  // total spend is $3 over the 50 minutes
  const auto capped =
      RunIncrementalExpansion(*space_, sample, judgments, 50.0, options);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_LT(capped.value().size(), uncapped.value().size());
  EXPECT_FALSE(capped.value().empty());
  // Every checkpoint before the terminal one respects the cap.
  for (std::size_t i = 0; i + 1 < capped.value().size(); ++i) {
    EXPECT_LE(capped.value()[i].dollars_spent, options.max_dollars);
  }

  // Bad input is reported instead of aborting.
  const auto bad =
      RunIncrementalExpansion(*space_, {}, judgments, 50.0, options);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ccdb::core
