#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/csv.h"
#include "common/eigen_sym.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/sparse.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace ccdb {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differences;
  }
  EXPECT_GT(differences, 12);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntRangeAndCoverage) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(14);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t index : sample) EXPECT_LT(index, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(18);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Split();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

// ---------------------------------------------------------------- vec

TEST(VecTest, DotAndNorms) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(x), 14.0);
  EXPECT_DOUBLE_EQ(Norm(x), std::sqrt(14.0));
}

TEST(VecTest, Distances) {
  std::vector<double> x = {0.0, 0.0};
  std::vector<double> y = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(x, y), 25.0);
  EXPECT_DOUBLE_EQ(Distance(x, y), 5.0);
}

TEST(VecTest, AxpyAndScale) {
  std::vector<double> x = {1.0, 2.0};
  std::vector<double> y = {10.0, 20.0};
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  Scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
}

TEST(VecTest, MeanVariance) {
  std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(x), 5.0);
  EXPECT_DOUBLE_EQ(Variance(x), 4.0);
}

TEST(VecTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {-1.0, -2.0, -3.0, -4.0};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(VecTest, PearsonZeroVarianceIsZero) {
  std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(VecTest, NormalizeInPlace) {
  std::vector<double> x = {3.0, 4.0};
  NormalizeInPlace(x);
  EXPECT_NEAR(Norm(x), 1.0, 1e-12);
  std::vector<double> zero = {0.0, 0.0};
  NormalizeInPlace(zero);  // must not produce NaN
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, BasicAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 5.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  for (std::size_t i = 0; i < 6; ++i) {
    a.Data()[i] = av[i];
    b.Data()[i] = bv[i];
  }
  const Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposeMultiplyMatchesExplicitTranspose) {
  Rng rng(23);
  Matrix a(4, 3);
  Matrix b(4, 5);
  a.FillGaussian(rng, 0.0, 1.0);
  b.FillGaussian(rng, 0.0, 1.0);
  const Matrix direct = a.TransposeMultiply(b);
  const Matrix via_transpose = a.Transposed().Multiply(b);
  ASSERT_EQ(direct.rows(), via_transpose.rows());
  ASSERT_EQ(direct.cols(), via_transpose.cols());
  for (std::size_t i = 0; i < direct.rows(); ++i)
    for (std::size_t j = 0; j < direct.cols(); ++j)
      EXPECT_NEAR(direct(i, j), via_transpose(i, j), 1e-12);
}

TEST(MatrixTest, OrthonormalizeColumns) {
  Rng rng(29);
  Matrix m(10, 4);
  m.FillGaussian(rng, 0.0, 1.0);
  OrthonormalizeColumns(m);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double dot = 0.0;
      for (std::size_t r = 0; r < 10; ++r) dot += m(r, i) * m(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

// ---------------------------------------------------------------- Jacobi

TEST(JacobiEigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 3.0;
  a(2, 2) = 2.0;
  const SymmetricEigen eigen = JacobiEigenSymmetric(a);
  EXPECT_NEAR(eigen.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eigen.eigenvalues[1], 2.0, 1e-10);
  EXPECT_NEAR(eigen.eigenvalues[2], 1.0, 1e-10);
}

TEST(JacobiEigenTest, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const SymmetricEigen eigen = JacobiEigenSymmetric(a);
  EXPECT_NEAR(eigen.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eigen.eigenvalues[1], 1.0, 1e-10);
}

TEST(JacobiEigenTest, ReconstructsMatrix) {
  Rng rng(31);
  Matrix g(6, 6);
  g.FillGaussian(rng, 0.0, 1.0);
  const Matrix a = g.TransposeMultiply(g);  // symmetric PSD
  const SymmetricEigen eigen = JacobiEigenSymmetric(a);
  // Reconstruct A = V diag(λ) Vᵀ.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double value = 0.0;
      for (std::size_t k = 0; k < 6; ++k) {
        value += eigen.eigenvectors(i, k) * eigen.eigenvalues[k] *
                 eigen.eigenvectors(j, k);
      }
      EXPECT_NEAR(value, a(i, j), 1e-8);
    }
  }
  // Eigenvalues of a PSD matrix are nonnegative and sorted.
  for (std::size_t k = 0; k + 1 < 6; ++k) {
    EXPECT_GE(eigen.eigenvalues[k], eigen.eigenvalues[k + 1] - 1e-12);
    EXPECT_GE(eigen.eigenvalues[k], -1e-9);
  }
}

// ---------------------------------------------------------------- sparse

TEST(RatingDatasetTest, CountsAndStats) {
  std::vector<Rating> ratings = {
      {0, 0, 5.0f}, {0, 1, 3.0f}, {1, 1, 4.0f}, {2, 0, 1.0f},
  };
  RatingDataset data(3, 2, ratings);
  EXPECT_EQ(data.num_ratings(), 4u);
  EXPECT_DOUBLE_EQ(data.GlobalMean(), (5.0 + 3.0 + 4.0 + 1.0) / 4.0);
  EXPECT_EQ(data.ItemCount(0), 2u);
  EXPECT_EQ(data.ItemCount(1), 1u);
  EXPECT_EQ(data.UserCount(0), 2u);
  EXPECT_EQ(data.UserCount(1), 2u);
  EXPECT_DOUBLE_EQ(data.ItemMean(0), 4.0);
  EXPECT_DOUBLE_EQ(data.UserMean(0), 3.0);
  EXPECT_EQ(data.ItemCount(2), 1u);
}

TEST(RatingDatasetTest, UnratedItemFallsBackToGlobalMean) {
  std::vector<Rating> ratings = {{0, 0, 4.0f}};
  RatingDataset data(2, 1, ratings);
  EXPECT_DOUBLE_EQ(data.ItemMean(1), data.GlobalMean());
}

TEST(RatingDatasetTest, DensityComputation) {
  std::vector<Rating> ratings = {{0, 0, 4.0f}, {1, 1, 2.0f}};
  RatingDataset data(2, 2, ratings);
  EXPECT_DOUBLE_EQ(data.Density(), 0.5);
}

TEST(RatingDatasetTest, CountsCoverEveryRating) {
  Rng rng(37);
  std::vector<Rating> ratings;
  for (int i = 0; i < 500; ++i) {
    ratings.push_back({static_cast<std::uint32_t>(rng.UniformInt(20)),
                       static_cast<std::uint32_t>(rng.UniformInt(30)),
                       static_cast<float>(rng.Uniform(1.0, 5.0))});
  }
  RatingDataset data(20, 30, ratings);
  std::size_t total = 0;
  for (std::uint32_t m = 0; m < 20; ++m) total += data.ItemCount(m);
  EXPECT_EQ(total, data.num_ratings());
  total = 0;
  for (std::uint32_t u = 0; u < 30; ++u) total += data.UserCount(u);
  EXPECT_EQ(total, data.num_ratings());

  // Means sum in storage order, the order the bias warm start depends on.
  for (std::uint32_t m = 0; m < 20; ++m) {
    double sum = 0.0;
    for (const Rating& r : ratings) {
      if (r.item == m) sum += r.score;
    }
    EXPECT_EQ(data.ItemMean(m), sum / static_cast<double>(data.ItemCount(m)));
  }
  for (std::uint32_t u = 0; u < 30; ++u) {
    double sum = 0.0;
    for (const Rating& r : ratings) {
      if (r.user == u) sum += r.score;
    }
    EXPECT_EQ(data.UserMean(u), sum / static_cast<double>(data.UserCount(u)));
  }
}

TEST(SplitRatingsTest, PartitionsAllIndices) {
  Rng rng(41);
  const auto split = SplitRatings(1000, 0.2, rng);
  EXPECT_EQ(split.train.size() + split.holdout.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(split.holdout.size()), 200.0, 50.0);
}

TEST(SplitRatingsTest, ZeroFractionKeepsEverything) {
  Rng rng(43);
  const auto split = SplitRatings(100, 0.0, rng);
  EXPECT_EQ(split.train.size(), 100u);
  EXPECT_TRUE(split.holdout.empty());
}

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counters(100);
  pool.ParallelFor(0, 100, [&](std::size_t i) { ++counters[i]; });
  for (const auto& counter : counters) EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.Submit([&] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, TryEnqueueRespectsTheBound) {
  ThreadPool pool(1);
  // Park the lone worker so queued tasks pile up deterministically.
  std::mutex gate;
  gate.lock();
  pool.Submit([&gate] {
    gate.lock();
    gate.unlock();
  });
  // Give the worker a moment to dequeue the blocker (QueuedTasks counts
  // only waiting tasks, not running ones).
  while (pool.QueuedTasks() > 0) std::this_thread::yield();

  std::atomic<int> counter{0};
  const auto task = [&counter] { ++counter; };
  EXPECT_TRUE(pool.TryEnqueue(task, 2));
  EXPECT_TRUE(pool.TryEnqueue(task, 2));
  // Queue holds 2 waiting tasks: a bound of 2 rejects, a bound of 3
  // still admits.
  EXPECT_EQ(pool.QueuedTasks(), 2u);
  EXPECT_FALSE(pool.TryEnqueue(task, 2));
  EXPECT_TRUE(pool.TryEnqueue(task, 3));

  gate.unlock();
  pool.Wait();
  // Exactly the three admitted tasks ran; the shed one never did.
  EXPECT_EQ(counter.load(), 3);
  EXPECT_EQ(pool.QueuedTasks(), 0u);
}

TEST(ThreadPoolTest, TryEnqueueZeroBoundAlwaysSheds) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.TryEnqueue([] {}, 0));
}

TEST(ThreadPoolTest, NestedSubmitFromTask) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      ++counter;
      pool.Submit([&] { ++counter; });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(TablePrinterTest, SeparatorRendersLine) {
  TablePrinter printer({"col"});
  printer.AddRow({"above"});
  printer.AddSeparator();
  printer.AddRow({"below"});
  std::ostringstream oss;
  printer.Print(oss);
  const std::string text = oss.str();
  // Five horizontal rules: top, under header, separator, bottom... at
  // least 4 occurrences of the dashed line.
  std::size_t rules = 0, pos = 0;
  while ((pos = text.find("+---", pos)) != std::string::npos) {
    ++rules;
    pos += 4;
  }
  EXPECT_GE(rules, 4u);
}

// ---------------------------------------------------------------- status

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  const Status status = Status::InvalidArgument("bad d");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad d");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("x"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- csv

TEST(CsvTest, WriteEscapesSpecials) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.WriteRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(oss.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvTest, ParseRoundTrip) {
  const auto fields = ParseCsvLine("plain,\"with,comma\",\"with\"\"quote\"");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields.value().size(), 3u);
  EXPECT_EQ(fields.value()[0], "plain");
  EXPECT_EQ(fields.value()[1], "with,comma");
  EXPECT_EQ(fields.value()[2], "with\"quote");
}

TEST(CsvTest, ParseRejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

TEST(CsvTest, ParseRejectsTextAfterClosingQuote) {
  // A closing quote is followed by a separator or the end of the line.
  for (const std::string line : {"\"a\"b", "\"a\" ,b", "\"\"x", "x,\"7\"5,y"}) {
    const auto fields = ParseCsvLine(line);
    ASSERT_FALSE(fields.ok()) << line;
    EXPECT_EQ(fields.status().code(), StatusCode::kInvalidArgument) << line;
  }
  std::vector<bool> quoted;
  const auto fields = ParseCsvLine("\"a\",\"\",\"b\"\"\"", &quoted);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "", "b\""}));
  EXPECT_EQ(quoted, (std::vector<bool>{true, true, true}));
}

// ---------------------------------------------------------------- printer

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter printer({"a", "long_header"});
  printer.AddRow({"xx", "1"});
  std::ostringstream oss;
  printer.Print(oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("| a "), std::string::npos);
  EXPECT_NE(text.find("long_header"), std::string::npos);
  EXPECT_NE(text.find("xx"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Percent(0.597), "59.7%");
  EXPECT_EQ(TablePrinter::PrecRec(0.46, 0.88), "0.46 / 0.88");
}

// ------------------------------------------------------ batch primitives

TEST(VecBatchTest, DotBatchMatchesPerRowDot) {
  Rng rng(301);
  Matrix rows(7, 5);
  rows.FillGaussian(rng, 0.0, 1.0);
  std::vector<double> x(5);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<double> out(7);
  DotBatch(rows.Data(), 7, 5, x, out);
  for (std::size_t r = 0; r < 7; ++r) {
    EXPECT_DOUBLE_EQ(out[r], Dot(rows.Row(r), x)) << "row " << r;
  }
}

TEST(VecBatchTest, SquaredDistanceToRowsMatchesPerRow) {
  Rng rng(303);
  Matrix rows(6, 9);
  rows.FillGaussian(rng, 0.0, 2.0);
  std::vector<double> x(9);
  for (auto& v : x) v = rng.Gaussian();
  std::vector<double> out(6);
  SquaredDistanceToRows(rows.Data(), 6, 9, x, out);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_DOUBLE_EQ(out[r], SquaredDistance(rows.Row(r), x)) << "row " << r;
  }
}

TEST(VecBatchTest, RowSquaredNormsMatchesPerRow) {
  Rng rng(305);
  Matrix rows(8, 4);
  rows.FillGaussian(rng, 0.0, 1.5);
  std::vector<double> out(8);
  RowSquaredNorms(rows.Data(), 8, 4, out);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(out[r], SquaredNorm(rows.Row(r))) << "row " << r;
  }
}

TEST(VecBatchTest, InterleaveQuadUsesLaneMajorLayout) {
  const std::vector<double> x0 = {1.0, 2.0};
  const std::vector<double> x1 = {3.0, 4.0};
  const std::vector<double> x2 = {5.0, 6.0};
  const std::vector<double> x3 = {7.0, 8.0};
  std::vector<double> out(8);
  InterleaveQuad(x0, x1, x2, x3, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 3.0, 5.0, 7.0,
                                      2.0, 4.0, 6.0, 8.0}));
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(VecBatchTest, DotBatchQuadIsBitIdenticalToSingleQueryCalls) {
  // The quad kernels promise bit-identical results to the single-query
  // primitives (callers mix the two for tail groups), so this compares bit
  // patterns. DotBatchQuad sweeps three rows per pass: 0–8 rows run every
  // one- and two-row remainder after zero, one and two full passes.
  Rng rng(307);
  for (std::size_t num_rows = 0; num_rows <= 8; ++num_rows) {
    Matrix rows(num_rows, 13);  // cols not a multiple of the unroll width
    rows.FillGaussian(rng, 0.0, 1.0);
    Matrix queries(4, 13);
    queries.FillGaussian(rng, 0.0, 1.0);
    std::vector<double> interleaved(4 * 13);
    InterleaveQuad(queries.Row(0), queries.Row(1), queries.Row(2),
                   queries.Row(3), interleaved);
    std::vector<double> quad(4 * num_rows);
    DotBatchQuad(rows.Data(), num_rows, 13, interleaved, quad);
    std::vector<double> single(num_rows);
    for (std::size_t q = 0; q < 4; ++q) {
      DotBatch(rows.Data(), num_rows, 13, queries.Row(q), single);
      for (std::size_t r = 0; r < num_rows; ++r) {
        EXPECT_EQ(Bits(quad[r * 4 + q]), Bits(single[r]))
            << num_rows << " rows, row " << r << " lane " << q << ": "
            << std::hexfloat << quad[r * 4 + q] << " vs " << single[r];
      }
    }
  }
}

TEST(VecBatchTest, SquaredDistanceQuadIsBitIdenticalToSingleQueryCalls) {
  Rng rng(309);
  Matrix rows(11, 7);
  rows.FillGaussian(rng, 0.0, 2.0);
  Matrix queries(4, 7);
  queries.FillGaussian(rng, 0.0, 2.0);
  std::vector<double> interleaved(4 * 7);
  InterleaveQuad(queries.Row(0), queries.Row(1), queries.Row(2),
                 queries.Row(3), interleaved);
  std::vector<double> quad(4 * 11);
  SquaredDistanceToRowsQuad(rows.Data(), 11, 7, interleaved, quad);
  std::vector<double> single(11);
  for (std::size_t q = 0; q < 4; ++q) {
    SquaredDistanceToRows(rows.Data(), 11, 7, queries.Row(q), single);
    for (std::size_t r = 0; r < 11; ++r) {
      EXPECT_EQ(Bits(quad[r * 4 + q]), Bits(single[r]))
          << "row " << r << " lane " << q;
    }
  }
}

TEST(VecBatchTest, ZeroRowsAndZeroColsAreNoops) {
  std::vector<double> empty;
  std::vector<double> x = {1.0, 2.0, 3.0};
  DotBatch(empty, 0, 3, x, {});
  SquaredDistanceToRows(empty, 0, 3, x, {});
  RowSquaredNorms(empty, 0, 3, {});
  // Zero-dimensional rows: every dot/norm is 0.
  std::vector<double> out(4, 99.0);
  DotBatch(empty, 4, 0, {}, out);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

// ------------------------------------------------------ shared pool

TEST(SharedThreadPoolTest, ReturnsTheSameInstance) {
  ThreadPool& a = SharedThreadPool();
  ThreadPool& b = SharedThreadPool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(SharedThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> counters(500);
  SharedThreadPool().ParallelFor(0, 500, [&](std::size_t i) {
    ++counters[i];
  });
  for (const auto& counter : counters) EXPECT_EQ(counter.load(), 1);
}

TEST(SharedThreadPoolTest, ConcurrentParallelForCallersDoNotInterfere) {
  // Two threads issue independent ParallelFor calls on the shared pool at
  // once; each must see exactly its own range completed (the per-call
  // latch must not count the other caller's tasks).
  std::vector<std::atomic<int>> first(200), second(200);
  // ccdb-lint: allow(raw-thread) — the test needs two independent OS threads
  // to race ParallelFor on the shared pool.
  std::thread other([&] {
    SharedThreadPool().ParallelFor(0, 200, [&](std::size_t i) {
      ++second[i];
    });
  });
  SharedThreadPool().ParallelFor(0, 200, [&](std::size_t i) { ++first[i]; });
  other.join();
  for (const auto& counter : first) EXPECT_EQ(counter.load(), 1);
  for (const auto& counter : second) EXPECT_EQ(counter.load(), 1);
}

}  // namespace
}  // namespace ccdb
