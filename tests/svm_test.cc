#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "common/cancellation.h"
#include "common/rng.h"
#include "svm/classifier.h"
#include "svm/kernel.h"
#include "svm/kernel_cache.h"
#include "svm/svr.h"
#include "svm/tsvm.h"

namespace ccdb::svm {
namespace {

// ---------------------------------------------------------------- kernel

TEST(KernelTest, RbfIsOneAtZeroDistance) {
  KernelConfig config{0.5};
  std::vector<double> x = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(EvalKernel(config, x, x), 1.0);
}

TEST(KernelTest, RbfDecaysWithDistance) {
  KernelConfig config{0.5};
  std::vector<double> x = {0.0};
  std::vector<double> y = {1.0};
  std::vector<double> z = {2.0};
  EXPECT_GT(EvalKernel(config, x, y), EvalKernel(config, x, z));
  EXPECT_NEAR(EvalKernel(config, x, y), std::exp(-0.5), 1e-12);
}

TEST(KernelDeathTest, RbfExpansionRequiresEverySupportVectorNorm) {
  // The fused quad sweep reads ‖sv_s‖² for every support vector, so a
  // short norm span is caught on entry, not read past or taken as 0.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Matrix svs(2, 3);
  const Matrix points(4, 3);
  const std::vector<double> coefficients = {1.0, -1.0};
  std::vector<double> out(points.rows());
  const KernelConfig rbf{0.5};
  EXPECT_DEATH(EvalKernelExpansion(rbf, svs, {}, coefficients, 0.0, points,
                                   StopCondition(), out),
               "sv_sq_norms");
}

TEST(KernelTest, AutoGammaResolution) {
  KernelConfig config;
  config.gamma = 0.0;
  const KernelConfig resolved = ResolveKernel(config, 50);
  EXPECT_DOUBLE_EQ(resolved.gamma, 0.02);
  config.gamma = 0.7;
  EXPECT_DOUBLE_EQ(ResolveKernel(config, 50).gamma, 0.7);
}

// ---------------------------------------------------------------- C-SVC

Matrix FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
  return m;
}

/// f(x) for every row of `points`, through the model's one evaluation call.
std::vector<double> Values(const SvmModel& model, const Matrix& points) {
  std::vector<double> values(points.rows());
  EXPECT_TRUE(model.DecisionValuesInto(points, StopCondition(), values));
  return values;
}

TEST(SvmClassifierTest, LinearlySeparable2D) {
  const Matrix x = FromRows({{1.0, 1.0},
                             {2.0, 1.5},
                             {1.5, 2.0},
                             {-1.0, -1.0},
                             {-2.0, -1.5},
                             {-1.5, -2.0}});
  const std::vector<std::int8_t> y = {1, 1, 1, -1, -1, -1};
  ClassifierOptions options;
  options.cost = 10.0;
  const SvmModel model = TrainClassifier(x, y, options);
  const std::vector<double> values = Values(model, x);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(values[i] >= 0.0, y[i] > 0) << "example " << i;
  }
  // Margin property: decision values of +1 side are positive and roughly
  // symmetric to the −1 side.
  EXPECT_GT(values[0], 0.0);
  EXPECT_LT(values[3], 0.0);
}

TEST(SvmClassifierTest, XorRequiresNonLinearKernel) {
  const Matrix x = FromRows({{0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}});
  const std::vector<std::int8_t> y = {1, 1, -1, -1};
  ClassifierOptions options;
  options.kernel.gamma = 2.0;
  options.cost = 100.0;
  const SvmModel model = TrainClassifier(x, y, options);
  const std::vector<double> values = Values(model, x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(values[i] >= 0.0, y[i] > 0) << "example " << i;
  }
}

TEST(SvmClassifierTest, RbfGeneralizesOnGaussianBlobs) {
  Rng rng(81);
  const std::size_t per_class = 60;
  Matrix x(2 * per_class, 2);
  std::vector<std::int8_t> y(2 * per_class);
  for (std::size_t i = 0; i < 2 * per_class; ++i) {
    const double cx = i < per_class ? 2.0 : -2.0;
    x(i, 0) = cx + rng.Gaussian(0.0, 0.8);
    x(i, 1) = rng.Gaussian(0.0, 0.8);
    y[i] = i < per_class ? 1 : -1;
  }
  ClassifierOptions options;
  options.kernel.gamma = 0.5;
  options.cost = 1.0;
  const SvmModel model = TrainClassifier(x, y, options);

  // Fresh test points from the same distribution; even rows positive.
  const int trials = 400;
  Matrix points(trials, 2);
  for (int t = 0; t < trials; ++t) {
    points(t, 0) = (t % 2 == 0 ? 2.0 : -2.0) + rng.Gaussian(0.0, 0.8);
    points(t, 1) = rng.Gaussian(0.0, 0.8);
  }
  const std::vector<double> values = Values(model, points);
  int correct = 0;
  for (int t = 0; t < trials; ++t) {
    if ((values[t] >= 0.0) == (t % 2 == 0)) ++correct;
  }
  EXPECT_GT(correct, trials * 9 / 10);
}

TEST(SvmClassifierTest, AlphaRespectsBoxConstraint) {
  Rng rng(83);
  Matrix x(40, 2);
  std::vector<std::int8_t> y(40);
  for (std::size_t i = 0; i < 40; ++i) {
    // Overlapping classes force some alphas to the C bound.
    x(i, 0) = rng.Gaussian(i < 20 ? 0.3 : -0.3, 1.0);
    x(i, 1) = rng.Gaussian(0.0, 1.0);
    y[i] = i < 20 ? 1 : -1;
  }
  ClassifierOptions options;
  options.cost = 0.7;
  TrainDiagnostics diagnostics;
  TrainClassifier(x, y, options, &diagnostics);
  double alpha_dot_y = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_GE(diagnostics.alpha[i], -1e-9);
    EXPECT_LE(diagnostics.alpha[i], 0.7 + 1e-9);
    alpha_dot_y += diagnostics.alpha[i] * y[i];
  }
  // Equality constraint Σ α_i y_i = 0 must hold at the solution.
  EXPECT_NEAR(alpha_dot_y, 0.0, 1e-6);
  EXPECT_TRUE(diagnostics.converged);
}

TEST(SvmClassifierTest, PerExampleCostScaling) {
  // With near-zero cost on one side's outlier, the model should tolerate
  // its misclassification rather than warp the boundary.
  const Matrix x = FromRows({{1.0, 0.0},
                             {2.0, 0.0},
                             {3.0, 0.0},
                             {-1.0, 0.0},
                             {-2.0, 0.0},
                             {10.0, 0.0}});  // mislabeled outlier
  const std::vector<std::int8_t> y = {1, 1, 1, -1, -1, -1};
  ClassifierOptions options;
  options.cost = 10.0;
  options.example_cost_scale = {1.0, 1.0, 1.0, 1.0, 1.0, 1e-6};
  const SvmModel model = TrainClassifier(x, y, options);
  // The outlier at x=10 labeled −1 is ignored; points near it classify +1.
  EXPECT_GE(Values(model, FromRows({{9.0, 0.0}}))[0], 0.0);
  // At full cost the same outlier does pull its neighbourhood to −1.
  options.example_cost_scale.back() = 1.0;
  EXPECT_LT(Values(TrainClassifier(x, y, options), FromRows({{9.0, 0.0}}))[0],
            0.0);
}

TEST(SvmClassifierTest, SupportVectorsAreSubset) {
  Rng rng(87);
  Matrix x(50, 3);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> y(50);
  for (std::size_t i = 0; i < 50; ++i) y[i] = x(i, 0) > 0 ? 1 : -1;
  ClassifierOptions options;
  options.cost = 1.0;
  const SvmModel model = TrainClassifier(x, y, options);
  EXPECT_GT(model.num_support_vectors(), 0u);
  EXPECT_LE(model.num_support_vectors(), 50u);
}

// ---------------------------------------------------------------- SVR

TEST(SvrTest, FitsLinearFunction) {
  Matrix x(20, 1);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0;
    y[i] = 2.0 * x(i, 0) + 1.0;
  }
  SvrOptions options;
  options.cost = 100.0;
  options.epsilon = 0.01;
  const std::vector<double> values = Values(TrainSvr(x, y, options), x);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(values[i], y[i], 0.1) << "x=" << x(i, 0);
  }
}

TEST(SvrTest, FitsSineWithRbf) {
  Matrix x(60, 1);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = static_cast<double>(i) / 10.0;
    y[i] = std::sin(x(i, 0));
  }
  SvrOptions options;
  options.kernel.gamma = 2.0;
  options.cost = 50.0;
  options.epsilon = 0.02;
  const std::vector<double> values = Values(TrainSvr(x, y, options), x);
  double max_error = 0.0;
  for (std::size_t i = 0; i < 60; ++i) {
    max_error = std::max(max_error, std::abs(values[i] - y[i]));
  }
  EXPECT_LT(max_error, 0.15);
}

TEST(SvrTest, EpsilonTubeSuppressesSupportVectors) {
  Matrix x(30, 1);
  std::vector<double> y(30);
  Rng rng(91);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = static_cast<double>(i) / 5.0;
    y[i] = 1.0 + rng.Gaussian(0.0, 0.01);  // nearly constant
  }
  SvrOptions wide;
  wide.epsilon = 0.5;  // everything inside the tube → few/no SVs
  wide.cost = 10.0;
  const SvmModel wide_model = TrainSvr(x, y, wide);
  SvrOptions narrow = wide;
  narrow.epsilon = 0.001;
  const SvmModel narrow_model = TrainSvr(x, y, narrow);
  EXPECT_LE(wide_model.num_support_vectors(),
            narrow_model.num_support_vectors());
}

TEST(SvmClassifierTest, IterationCapReportsNonConvergence) {
  Rng rng(119);
  Matrix x(60, 2);
  std::vector<std::int8_t> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.Gaussian(0.0, 1.0);  // fully overlapping classes
    x(i, 1) = rng.Gaussian(0.0, 1.0);
    y[i] = i < 30 ? 1 : -1;
  }
  ClassifierOptions options;
  options.kernel.gamma = 5.0;
  options.cost = 100.0;
  options.smo.max_iterations = 3;  // far too few
  TrainDiagnostics diagnostics;
  const SvmModel model = TrainClassifier(x, y, options, &diagnostics);
  EXPECT_FALSE(diagnostics.converged);
  EXPECT_TRUE(model.trained());  // still produces a usable model
}

TEST(SvrTest, ZeroEpsilonInterpolatesCleanData) {
  Matrix x(10, 1);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = 0.5 * static_cast<double>(i) - 1.0;
  }
  SvrOptions options;
  options.cost = 1000.0;
  options.epsilon = 0.0;
  const std::vector<double> values = Values(TrainSvr(x, y, options), x);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(values[i], y[i], 0.05);
  }
}

// ---------------------------------------------------------------- TSVM

TEST(TsvmTest, UsesUnlabeledStructure) {
  // Two clusters; only one labeled point per cluster. The inductive SVM
  // already separates them; the TSVM must not break that and should place
  // transductive labels consistent with the clusters.
  Rng rng(93);
  const std::size_t per_cluster = 25;
  Matrix unlabeled(2 * per_cluster, 2);
  for (std::size_t i = 0; i < 2 * per_cluster; ++i) {
    const double cx = i < per_cluster ? 2.5 : -2.5;
    unlabeled(i, 0) = cx + rng.Gaussian(0.0, 0.5);
    unlabeled(i, 1) = rng.Gaussian(0.0, 0.5);
  }
  const Matrix labeled = FromRows({{2.5, 0.0}, {-2.5, 0.0}});
  const std::vector<std::int8_t> labels = {1, -1};

  TsvmOptions options;
  options.kernel.gamma = 0.3;
  options.cost = 10.0;
  options.unlabeled_cost = 10.0;
  options.positive_fraction = 0.5;
  TsvmReport report;
  const SvmModel model = TrainTsvm(labeled, labels, unlabeled, options,
                                   &report);
  EXPECT_GE(report.retrains, 2u);
  const std::vector<double> values = Values(model, unlabeled);
  int correct = 0;
  for (std::size_t i = 0; i < 2 * per_cluster; ++i) {
    const bool expected = i < per_cluster;
    if ((values[i] >= 0.0) == expected) ++correct;
    if ((report.transductive_labels[i] == 1) == expected) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(2 * per_cluster * 2 * 9 / 10));
}

// ------------------------------------------------------- kernel cache

/// A whole-matrix fill for caches whose budget must keep them on the LRU
/// path: reaching it is a failure.
void UnexpectedMatrixFill(std::span<double>) {
  ADD_FAILURE() << "whole-matrix fill on the LRU path";
}

TEST(KernelRowCacheTest, ByteBudgetIsHonored) {
  constexpr std::size_t kRows = 32;
  constexpr std::size_t kRowLength = 16;
  constexpr std::size_t kRowBytes = kRowLength * sizeof(double);
  const auto fill = [](std::size_t row, std::span<double> out) {
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] = static_cast<double>(row * 1000 + c);
    }
  };
  // Budget for exactly 4 rows.
  KernelRowCache cache(kRows, kRowLength, 4 * kRowBytes, fill,
                       UnexpectedMatrixFill);
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto row = cache.Row(i);
    ASSERT_EQ(row.size(), kRowLength);
    EXPECT_DOUBLE_EQ(row[3], static_cast<double>(i * 1000 + 3));
    EXPECT_LE(cache.bytes_in_use(), cache.budget_bytes());
  }
  EXPECT_EQ(cache.cached_rows(), 4u);
  EXPECT_EQ(cache.stats().misses, kRows);
  EXPECT_EQ(cache.stats().evictions, kRows - 4);
}

TEST(KernelRowCacheTest, EvictsLeastRecentlyUsed) {
  constexpr std::size_t kRowLength = 8;
  constexpr std::size_t kRowBytes = kRowLength * sizeof(double);
  std::size_t fills = 0;
  const auto fill = [&fills](std::size_t row, std::span<double> out) {
    ++fills;
    for (auto& v : out) v = static_cast<double>(row);
  };
  KernelRowCache cache(8, kRowLength, 2 * kRowBytes, fill,
                       UnexpectedMatrixFill);  // room for 2 rows
  cache.Row(0);  // cached: {0}
  cache.Row(1);  // cached: {1, 0}
  EXPECT_EQ(fills, 2u);
  cache.Row(0);  // hit — bumps 0 to MRU: {0, 1}
  EXPECT_EQ(fills, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.Row(2);  // evicts 1 (the LRU), not 0: {2, 0}
  EXPECT_EQ(fills, 3u);
  cache.Row(0);  // still a hit
  EXPECT_EQ(fills, 3u);
  cache.Row(1);  // was evicted — must refill
  EXPECT_EQ(fills, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(KernelRowCacheTest, ZeroBudgetHoldsRowIWhileFillingRowJ) {
  // The most recently returned row is never evicted to make room for the
  // next one, so even with a zero budget the span of row i stays valid,
  // in place and unchanged, across Row(j): an SMO iteration reads both
  // rows without copying them.
  std::size_t fills = 0;
  const auto fill = [&fills](std::size_t row, std::span<double> out) {
    ++fills;
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] = static_cast<double>(row) * 100.0 + static_cast<double>(c);
    }
  };
  KernelRowCache cache(4, 8, 0, fill, UnexpectedMatrixFill);
  const auto expect_row = [](std::span<const double> row, std::size_t r) {
    ASSERT_EQ(row.size(), 8u);
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], static_cast<double>(r) * 100.0 +
                            static_cast<double>(c));
    }
  };
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t j = (i + 1) % 4;
    const std::span<const double> row_i = cache.Row(i);
    const double* const address_i = row_i.data();
    const std::span<const double> row_j = cache.Row(j);
    EXPECT_NE(row_j.data(), address_i);
    expect_row(row_i, i);
    expect_row(row_j, j);
    EXPECT_LE(cache.cached_rows(), 2u);
    // Row i was neither evicted nor refilled: asking again is a hit that
    // returns the same storage.
    const std::size_t fills_before = fills;
    EXPECT_EQ(cache.Row(i).data(), address_i);
    EXPECT_EQ(fills, fills_before);
  }
  // Only two rows fit, so a third distinct row evicts the older of them.
  cache.Row(0);
  cache.Row(1);
  cache.Row(2);  // evicts 0
  const std::size_t fills_before = fills;
  expect_row(cache.Row(0), 0);
  EXPECT_EQ(fills, fills_before + 1);
}

TEST(KernelRowCacheTest, HoldsTheWholeMatrixExactlyWhenItFitsTheBudget) {
  // n·len·8 bytes is the threshold: at that budget the first Row() fills
  // the whole matrix once and every row is a view into it; one byte less
  // and rows are filled one at a time.
  constexpr std::size_t kRows = 6;
  constexpr std::size_t kRowLength = 5;
  constexpr std::size_t kMatrixBytes = kRows * kRowLength * sizeof(double);
  const auto value = [](std::size_t r, std::size_t c) {
    return static_cast<double>(r) * 10.0 + static_cast<double>(c);
  };
  std::size_t row_fills = 0;
  std::size_t matrix_fills = 0;
  const auto fill_row = [&](std::size_t row, std::span<double> out) {
    ++row_fills;
    for (std::size_t c = 0; c < out.size(); ++c) out[c] = value(row, c);
  };
  const auto fill_matrix = [&](std::span<double> out) {
    ++matrix_fills;
    ASSERT_EQ(out.size(), kRows * kRowLength);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < kRowLength; ++c) {
        out[r * kRowLength + c] = value(r, c);
      }
    }
  };

  KernelRowCache whole(kRows, kRowLength, kMatrixBytes, fill_row,
                       fill_matrix);
  EXPECT_EQ(whole.cached_rows(), 0u);  // nothing is filled before a Row()
  const double* const first = whole.Row(0).data();
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < kRows; ++r) {
      const auto row = whole.Row(r);
      ASSERT_EQ(row.size(), kRowLength);
      EXPECT_EQ(row.data(), first + r * kRowLength);
      for (std::size_t c = 0; c < kRowLength; ++c) {
        EXPECT_EQ(row[c], value(r, c));
      }
    }
  }
  EXPECT_EQ(matrix_fills, 1u);
  EXPECT_EQ(row_fills, 0u);
  EXPECT_EQ(whole.cached_rows(), kRows);
  EXPECT_EQ(whole.bytes_in_use(), kMatrixBytes);
  EXPECT_EQ(whole.stats().misses, 1u);
  EXPECT_EQ(whole.stats().hits, 2 * kRows);
  EXPECT_EQ(whole.stats().evictions, 0u);

  KernelRowCache rows(kRows, kRowLength, kMatrixBytes - 1, fill_row,
                      fill_matrix);
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto row = rows.Row(r);
    for (std::size_t c = 0; c < kRowLength; ++c) {
      EXPECT_EQ(row[c], value(r, c));
    }
    EXPECT_LE(rows.bytes_in_use(), rows.budget_bytes());
  }
  EXPECT_EQ(matrix_fills, 1u);
  EXPECT_EQ(row_fills, kRows);
  EXPECT_EQ(rows.cached_rows(), kRows - 1);
  EXPECT_EQ(rows.stats().evictions, 1u);
}

TEST(KernelRowCacheTest, TinyBudgetTrainingMatchesUnbounded) {
  // Training with a cache too small to hold the Q-matrix must reproduce
  // the unbounded-cache model exactly — the cache changes cost, never
  // values.
  Rng rng(121);
  Matrix x(40, 3);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> y(40);
  for (std::size_t i = 0; i < 40; ++i) y[i] = x(i, 0) + x(i, 2) > 0 ? 1 : -1;
  ClassifierOptions options;
  options.kernel.gamma = 0.8;
  options.cost = 5.0;
  const SvmModel big = TrainClassifier(x, y, options);
  options.kernel_cache_bytes = 2 * 40 * sizeof(double);  // two rows
  const SvmModel tiny = TrainClassifier(x, y, options);
  ASSERT_EQ(big.num_support_vectors(), tiny.num_support_vectors());
  EXPECT_DOUBLE_EQ(big.rho(), tiny.rho());
  const std::vector<double> big_values = Values(big, x);
  const std::vector<double> tiny_values = Values(tiny, x);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(big_values[i], tiny_values[i]);
  }
}

// ------------------------------------------------- batched cancellation

TEST(SvmClassifierTest, DecisionValuesIntoHonorsCancellation) {
  Rng rng(123);
  Matrix x(30, 2);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> y(30);
  for (std::size_t i = 0; i < 30; ++i) y[i] = x(i, 0) > 0 ? 1 : -1;
  ClassifierOptions options;
  options.cost = 2.0;
  const SvmModel model = TrainClassifier(x, y, options);

  std::vector<double> out(30);
  CancellationSource source;
  source.Cancel();
  EXPECT_FALSE(model.DecisionValuesInto(x, StopCondition(source.token()),
                                        out));
  // An unarmed stop completes.
  EXPECT_TRUE(model.DecisionValuesInto(x, StopCondition(), out));
}

TEST(SvmClassifierTest, LabelsIntoHonorsCancellation) {
  Rng rng(123);
  Matrix x(600, 2);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> y(600);
  for (std::size_t i = 0; i < 600; ++i) y[i] = x(i, 0) > 0 ? 1 : -1;
  ClassifierOptions options;
  options.cost = 2.0;
  const SvmModel model = TrainClassifier(x, y, options);

  const auto labels = std::make_unique<bool[]>(600);
  const std::span<bool> out(labels.get(), 600);
  const LabelPoints prepared(x);
  CancellationSource source;
  source.Cancel();
  EXPECT_FALSE(
      model.LabelsInto(x, prepared, StopCondition(source.token()), out));
  // An unarmed stop completes with the exact path's signs.
  ASSERT_TRUE(model.LabelsInto(x, prepared, StopCondition(), out));
  const std::vector<double> values = Values(model, x);
  for (std::size_t i = 0; i < 600; ++i) {
    EXPECT_EQ(out[i], values[i] >= 0.0) << "item " << i;
  }
}

/// LabelsInto's labels against DecisionValuesInto(...) ≥ 0, item by item.
void ExpectExactSigns(const SvmModel& model, const Matrix& points) {
  const std::vector<double> values = Values(model, points);
  const auto labels = std::make_unique<bool[]>(points.rows());
  ASSERT_TRUE(model.LabelsInto(points, LabelPoints(points), StopCondition(),
                               std::span(labels.get(), points.rows())));
  for (std::size_t i = 0; i < points.rows(); ++i) {
    EXPECT_EQ(labels[i], values[i] >= 0.0)
        << "item " << i << ", f = " << values[i];
  }
}

TEST(SvmClassifierTest, LabelsOfNonFiniteAndHugeInputsAreTheExactPaths) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(7);
  Matrix svs(5, 3);
  svs.FillGaussian(rng, 0.0, 1.0);
  const std::vector<double> coefficients = {1.5, -2.0, 0.7, -0.4, 0.9};
  const SvmModel model(svs, coefficients, 0.1, KernelConfig{0.5});
  // Items the filter skips (a NaN, an infinity, ‖x‖² past 2^100 or not
  // finite) sit between ordinary ones, in one octet and past it; float
  // conversion would overflow at 1e39 and underflow at 1e-46.
  Matrix points(13, 3);
  points.FillGaussian(rng, 0.0, 1.0);
  points(1, 0) = nan;
  points(2, 1) = inf;
  points(3, 2) = -inf;
  points(4, 0) = 1e200;
  points(5, 1) = 0x1p51;
  points(6, 2) = 1e39;
  points(7, 0) = 1e-46;
  points(9, 0) = 0x1p49;
  points(11, 1) = -1e-300;
  ExpectExactSigns(model, points);

  // Models outside the bound's limits take the exact sweep for every item:
  // a support vector with ‖sv‖² past 2^100, γ past 2^64, a NaN or infinite
  // coefficient, a NaN rho.
  Matrix huge_svs = svs;
  huge_svs(2, 1) = 0x1p60;
  ExpectExactSigns(SvmModel(huge_svs, coefficients, 0.1, KernelConfig{0.5}),
                   points);
  ExpectExactSigns(SvmModel(svs, coefficients, 0.1, KernelConfig{0x1p70}),
                   points);
  for (const double bad : {nan, inf, -inf}) {
    std::vector<double> bad_coefficients = coefficients;
    bad_coefficients[3] = bad;
    ExpectExactSigns(SvmModel(svs, bad_coefficients, 0.1, KernelConfig{0.5}),
                     points);
    ExpectExactSigns(SvmModel(svs, coefficients, bad, KernelConfig{0.5}),
                     points);
  }
}

TEST(TsvmTest, ReportCountsRetrains) {
  Rng rng(95);
  Matrix unlabeled(20, 2);
  unlabeled.FillGaussian(rng, 0.0, 1.0);
  const Matrix labeled = FromRows({{1.0, 0.0}, {-1.0, 0.0}});
  const std::vector<std::int8_t> labels = {1, -1};
  TsvmOptions options;
  options.cost = 1.0;
  options.unlabeled_cost = 1.0;
  TsvmReport report;
  TrainTsvm(labeled, labels, unlabeled, options, &report);
  EXPECT_EQ(report.transductive_labels.size(), 20u);
  EXPECT_GE(report.retrains, 2u);  // seed train + ≥1 annealing train
}

}  // namespace
}  // namespace ccdb::svm
