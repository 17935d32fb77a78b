#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "eval/metrics.h"
#include "eval/neighbors.h"
#include "svm/classifier.h"
#include "db/database.h"
#include "db/sql_parser.h"
#include "factorization/factor_model.h"
#include "svm/kernel.h"
#include "svm/smo_solver.h"
#include "svm/svr.h"

namespace ccdb {
namespace {

// ----------------------------------------------------- RNG properties

class RngSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedProperty, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.015);
}

TEST_P(RngSeedProperty, GaussianSymmetry) {
  Rng rng(GetParam());
  int positives = 0;
  for (int i = 0; i < 20000; ++i) positives += rng.Gaussian() > 0 ? 1 : 0;
  EXPECT_NEAR(positives / 20000.0, 0.5, 0.02);
}

TEST_P(RngSeedProperty, SampleWithoutReplacementAlwaysDistinct) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(200);
    const std::size_t k = rng.UniformInt(n + 1);
    const auto sample = rng.SampleWithoutReplacement(n, k);
    std::vector<bool> seen(n, false);
    for (std::size_t index : sample) {
      ASSERT_LT(index, n);
      ASSERT_FALSE(seen[index]);
      seen[index] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedProperty,
                         ::testing::Values(1u, 42u, 1234567u, 0xDEADBEEFu,
                                           987654321987ull));

// ----------------------------------------------------- kernel properties

class KernelProperty : public ::testing::TestWithParam<double> {};

TEST_P(KernelProperty, SymmetryAndDiagonalDominanceForRbf) {
  const svm::KernelConfig config{GetParam()};
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(5), y(5);
    for (int i = 0; i < 5; ++i) {
      x[i] = rng.Gaussian();
      y[i] = rng.Gaussian();
    }
    // Symmetry K(x,y) = K(y,x).
    EXPECT_NEAR(svm::EvalKernel(config, x, y), svm::EvalKernel(config, y, x),
                1e-12);
    // 0 < K ≤ 1, maximal on the diagonal.
    const double k = svm::EvalKernel(config, x, y);
    EXPECT_GT(k, 0.0);
    EXPECT_LE(k, 1.0);
    EXPECT_DOUBLE_EQ(svm::EvalKernel(config, x, x), 1.0);
  }
}

TEST_P(KernelProperty, GramMatrixIsPositiveSemidefiniteOnSamples) {
  const svm::KernelConfig config{GetParam()};
  Rng rng(13);
  const std::size_t n = 8;
  Matrix points(n, 3);
  points.FillGaussian(rng, 0.0, 1.0);
  // For PSD kernels, zᵀKz ≥ 0 for any z.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> z(n);
    for (auto& v : z) v = rng.Gaussian();
    double quadratic_form = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        quadratic_form += z[i] * z[j] *
                          svm::EvalKernel(config, points.Row(i),
                                          points.Row(j));
      }
    }
    EXPECT_GE(quadratic_form, -1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, KernelProperty, ::testing::Values(0.3, 2.0));

// ----------------------------------------------------- SMO invariants

class SmoInvariantProperty : public ::testing::TestWithParam<double> {};

TEST_P(SmoInvariantProperty, KktInvariantsHoldAcrossCosts) {
  const double cost = GetParam();
  Rng rng(17);
  const std::size_t n = 40;
  Matrix x(n, 2);
  std::vector<std::int8_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Gaussian(i < n / 2 ? 1.0 : -1.0, 1.0);
    x(i, 1) = rng.Gaussian(0.0, 1.0);
    y[i] = i < n / 2 ? 1 : -1;
  }
  svm::ClassifierOptions options;
  options.kernel.gamma = 0.5;
  options.cost = cost;
  svm::TrainDiagnostics diagnostics;
  svm::TrainClassifier(x, y, options, &diagnostics);

  // Box constraint and equality constraint hold for every cost level.
  double alpha_dot_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(diagnostics.alpha[i], -1e-9);
    EXPECT_LE(diagnostics.alpha[i], cost + 1e-9);
    alpha_dot_y += diagnostics.alpha[i] * y[i];
  }
  EXPECT_NEAR(alpha_dot_y, 0.0, 1e-6);
  EXPECT_TRUE(diagnostics.converged);
}

INSTANTIATE_TEST_SUITE_P(Costs, SmoInvariantProperty,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

// ----------------------------------------------------- metric properties

class GMeanProperty : public ::testing::TestWithParam<double> {};

TEST_P(GMeanProperty, BoundedAndDegenerateSafe) {
  const double prevalence = GetParam();
  Rng rng(23);
  std::vector<bool> predicted(5000), actual(5000);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    predicted[i] = rng.Bernoulli(0.5);
    actual[i] = rng.Bernoulli(prevalence);
  }
  const auto counts = eval::CountConfusion(predicted, actual);
  const double gmean = eval::GMean(counts);
  EXPECT_GE(gmean, 0.0);
  EXPECT_LE(gmean, 1.0);
  // g-mean ≤ accuracy-independent bound: sqrt(sens·spec) ≤ max(sens,spec).
  EXPECT_LE(gmean, std::max(eval::Sensitivity(counts),
                            eval::Specificity(counts)) + 1e-12);
  // For a fair coin both sensitivity and specificity ≈ 0.5 regardless of
  // prevalence — the imbalance-robustness the paper wants.
  EXPECT_NEAR(gmean, 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Prevalences, GMeanProperty,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5, 0.9));

TEST(GMeanProperty2, PerfectAndInvertedClassifiers) {
  Rng rng(29);
  std::vector<bool> actual(1000);
  for (std::size_t i = 0; i < actual.size(); ++i) {
    actual[i] = rng.Bernoulli(0.2);
  }
  std::vector<bool> inverted(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) inverted[i] = !actual[i];
  EXPECT_DOUBLE_EQ(eval::GMean(eval::CountConfusion(actual, actual)), 1.0);
  EXPECT_DOUBLE_EQ(eval::GMean(eval::CountConfusion(inverted, actual)), 0.0);
}

// ----------------------------------------------------- vec properties

class VecProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VecProperty, CauchySchwarzAndTriangle) {
  Rng rng(31 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(GetParam()), y(GetParam());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.Gaussian();
      y[i] = rng.Gaussian();
    }
    EXPECT_LE(std::abs(Dot(x, y)), Norm(x) * Norm(y) + 1e-9);
    std::vector<double> zero(GetParam(), 0.0);
    EXPECT_LE(Distance(x, y), Distance(x, zero) + Distance(zero, y) + 1e-9);
    EXPECT_NEAR(SquaredDistance(x, y),
                SquaredNorm(x) + SquaredNorm(y) - 2.0 * Dot(x, y), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, VecProperty,
                         ::testing::Values(1u, 2u, 10u, 100u));

// Bit patterns, for the parity claims that are exact.
namespace expprop {

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace expprop

// ----------------------------------------- vectorized numeric-core parity

namespace numcore {

// Naive left-to-right references: the single-accumulator loops the
// unrolled kernels replaced. The unroll reassociates the sum, so parity
// is relative (1e-10 ≫ the O(n·eps) reassociation error), not bitwise.

double NaiveDot(std::span<const double> x, std::span<const double> y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double NaiveSquaredDistance(std::span<const double> x,
                            std::span<const double> y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double diff = x[i] - y[i];
    sum += diff * diff;
  }
  return sum;
}

double NaiveSquaredNorm(std::span<const double> x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return sum;
}

void ExpectRelNear(double actual, double expected, double rel = 1e-10) {
  const double scale =
      std::max({1.0, std::abs(actual), std::abs(expected)});
  EXPECT_NEAR(actual, expected, rel * scale);
}

std::vector<double> RandomVector(Rng& rng, std::size_t n, double sigma) {
  std::vector<double> v(n);
  for (auto& value : v) value = rng.Gaussian(0.0, sigma);
  return v;
}

}  // namespace numcore

/// Parameterized over vector lengths, deliberately including 0, every
/// remainder mod the 4-wide unroll, and lengths straddling powers of two.
class NumericCoreParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NumericCoreParity, ScalarKernelsMatchNaiveReferences) {
  const std::size_t n = GetParam();
  Rng rng(401 + n);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = numcore::RandomVector(rng, n, 2.0);
    const auto y = numcore::RandomVector(rng, n, 2.0);
    numcore::ExpectRelNear(Dot(x, y), numcore::NaiveDot(x, y));
    numcore::ExpectRelNear(SquaredDistance(x, y),
                           numcore::NaiveSquaredDistance(x, y));
    numcore::ExpectRelNear(SquaredNorm(x), numcore::NaiveSquaredNorm(x));
    numcore::ExpectRelNear(Norm(x),
                           std::sqrt(numcore::NaiveSquaredNorm(x)));
    // Axpy touches each element independently — parity is exact.
    const double alpha = rng.Gaussian();
    std::vector<double> unrolled = y;
    Axpy(alpha, x, unrolled);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(unrolled[i], y[i] + alpha * x[i]);
    }
  }
}

TEST_P(NumericCoreParity, BatchPrimitivesMatchNaivePerRow) {
  const std::size_t n = GetParam();
  Rng rng(419 + n);
  const std::size_t num_rows = 3;
  Matrix rows(num_rows, n);
  rows.FillGaussian(rng, 0.0, 1.5);
  const auto x = numcore::RandomVector(rng, n, 1.5);
  std::vector<double> dots(num_rows), dists(num_rows), norms(num_rows);
  DotBatch(rows.Data(), num_rows, n, x, dots);
  SquaredDistanceToRows(rows.Data(), num_rows, n, x, dists);
  RowSquaredNorms(rows.Data(), num_rows, n, norms);
  for (std::size_t r = 0; r < num_rows; ++r) {
    numcore::ExpectRelNear(dots[r], numcore::NaiveDot(rows.Row(r), x));
    numcore::ExpectRelNear(dists[r],
                           numcore::NaiveSquaredDistance(rows.Row(r), x));
    numcore::ExpectRelNear(norms[r], numcore::NaiveSquaredNorm(rows.Row(r)));
  }
}

TEST_P(NumericCoreParity, EvalKernelBatchMatchesScalarEvalKernel) {
  const std::size_t n = GetParam();
  Rng rng(433 + n);
  const std::size_t num_rows = 5;
  Matrix rows(num_rows, n);
  rows.FillGaussian(rng, 0.0, 1.0);
  const auto x = numcore::RandomVector(rng, n, 1.0);
  std::vector<double> sq_norms(num_rows);
  RowSquaredNorms(rows.Data(), num_rows, n, sq_norms);

  const svm::KernelConfig config{0.4};
  std::vector<double> batch(num_rows);
  svm::EvalKernelBatch(config, rows.Data(), num_rows, n, sq_norms, x,
                       SquaredNorm(x), batch);
  for (std::size_t r = 0; r < num_rows; ++r) {
    // The batch path reassembles ‖row−x‖² via the norm trick; the scalar
    // path differences directly. 1e-10 relative covers the cancellation
    // at these scales.
    numcore::ExpectRelNear(batch[r], svm::EvalKernel(config, rows.Row(r), x));
  }
}

TEST_P(NumericCoreParity, QuadKernelsAreBitIdenticalToSingleQuery) {
  // The quad-query kernels claim bit-identical summation order to the
  // single-query primitives for every (row, lane) pair — equal bit
  // patterns, at every size including unroll tails, and at 0–8 rows, so
  // DotBatchQuad's three-row passes meet every one- and two-row remainder.
  const std::size_t n = GetParam();
  Rng rng(443 + n);
  for (std::size_t num_rows = 0; num_rows <= 8; ++num_rows) {
    Matrix rows(num_rows, n);
    rows.FillGaussian(rng, 0.0, 1.3);
    Matrix queries(4, n);
    queries.FillGaussian(rng, 0.0, 1.3);
    std::vector<double> interleaved(4 * n);
    InterleaveQuad(queries.Row(0), queries.Row(1), queries.Row(2),
                   queries.Row(3), interleaved);
    std::vector<double> quad_dots(4 * num_rows), quad_dists(4 * num_rows);
    DotBatchQuad(rows.Data(), num_rows, n, interleaved, quad_dots);
    SquaredDistanceToRowsQuad(rows.Data(), num_rows, n, interleaved,
                              quad_dists);
    std::vector<double> dots(num_rows), dists(num_rows);
    for (std::size_t q = 0; q < 4; ++q) {
      DotBatch(rows.Data(), num_rows, n, queries.Row(q), dots);
      SquaredDistanceToRows(rows.Data(), num_rows, n, queries.Row(q), dists);
      for (std::size_t r = 0; r < num_rows; ++r) {
        EXPECT_EQ(expprop::Bits(quad_dots[r * 4 + q]), expprop::Bits(dots[r]))
            << "n " << n << ", " << num_rows << " rows, row " << r
            << " lane " << q;
        EXPECT_EQ(expprop::Bits(quad_dists[r * 4 + q]),
                  expprop::Bits(dists[r]))
            << "n " << n << ", " << num_rows << " rows, row " << r
            << " lane " << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NumericCoreParity,
    ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u, 31u,
                      32u, 63u, 64u, 65u, 127u, 128u, 129u, 255u, 256u,
                      257u));

// ------------------------------------------- exp of non-positive arguments

namespace expprop {

// Runs `args` through ExpNonPositiveInPlace and holds each value to the
// contract against std::exp: +0 where std::exp is below the normal range,
// otherwise within 1 ulp (distance in representable doubles). Reports the
// first violation only, with the argument in hex so it replays exactly.
void ExpectContract(const std::vector<double>& args, const std::string& what) {
  std::vector<double> values = args;
  ExpNonPositiveInPlace(values);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const double expected = std::exp(args[i]);
    const bool below_normal = expected < std::numeric_limits<double>::min();
    const std::uint64_t got = Bits(values[i]);
    const std::uint64_t want = below_normal ? 0 : Bits(expected);
    const std::uint64_t ulps = got > want ? got - want : want - got;
    if (ulps > (below_normal ? 0u : 1u)) {
      ADD_FAILURE() << what << ": exp(" << std::hexfloat << args[i]
                    << ") = " << values[i] << ", std::exp " << expected
                    << std::dec << " (" << ulps << " ulps apart)";
      return;
    }
  }
}

}  // namespace expprop

class ExpNonPositiveProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExpNonPositiveProperty, SeededDrawsWithinOneUlpOfStdExp) {
  // Uniform draws over the contract range, plus draws of magnitude
  // u·2^-k (k < 60) that the uniform ones almost never reach. The odd
  // total runs the padded sub-four tail too.
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<double> args;
  for (int i = 0; i < 100000; ++i) args.push_back(rng.Uniform(-708.0, 0.0));
  for (int i = 0; i < 50001; ++i) {
    const int k = static_cast<int>(rng.UniformInt(60));
    args.push_back(-std::ldexp(rng.Uniform(), -k));
  }
  expprop::ExpectContract(args, "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpNonPositiveProperty,
                         ::testing::Values(3u, 577u, 0xC0FFEEu, 20260417u));

TEST(ExpNonPositive, DenseSweepsNearZero) {
  // Steps of 2^-62, 2^-30 and 2^-12 from 0 downward: the first straddles
  // the arguments where e^x leaves 1, the last reaches −16.
  for (const int step_exp : {-62, -30, -12}) {
    std::vector<double> args;
    for (int i = 0; i < 65536; ++i) args.push_back(-std::ldexp(i, step_exp));
    expprop::ExpectContract(args, "step 2^" + std::to_string(step_exp));
  }
}

TEST(ExpNonPositive, DenseSweepsNearTheBottomOfTheNormalRange) {
  // Steps of 2^-15 over [−709, −707] cross −708 and ln DBL_MIN; then
  // consecutive doubles on both sides of ln DBL_MIN ≈ −708.3964.
  std::vector<double> args;
  for (int i = 0; i <= 65536; ++i) args.push_back(-709.0 + std::ldexp(i, -15));
  expprop::ExpectContract(args, "grid over [-709, -707]");
  args.clear();
  double x = std::log(std::numeric_limits<double>::min());
  for (int i = 0; i < 2000; ++i) x = std::nextafter(x, 0.0);
  for (int i = 0; i < 4000; ++i) {
    args.push_back(x);
    x = std::nextafter(x, -1000.0);
  }
  expprop::ExpectContract(args, "consecutive doubles around ln DBL_MIN");
}

TEST(ExpNonPositive, SpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0,  -0.0, -708.5, -709.0, -745.2, -1000.0, -1e300,
      -std::numeric_limits<double>::max(), -inf, nan, -nan};
  const std::vector<double> args = values;
  ExpNonPositiveInPlace(values);
  // ±0 give exactly 1.
  EXPECT_EQ(expprop::Bits(values[0]), expprop::Bits(1.0));
  EXPECT_EQ(expprop::Bits(values[1]), expprop::Bits(1.0));
  // Below the normal range and at −∞: +0, sign bit clear.
  for (std::size_t i = 2; i + 2 < values.size(); ++i) {
    EXPECT_EQ(expprop::Bits(values[i]), 0u) << "x " << args[i];
  }
  // NaN of either sign gives NaN.
  EXPECT_TRUE(std::isnan(values[values.size() - 2]));
  EXPECT_TRUE(std::isnan(values.back()));
}

/// Batched kernel expansion over shapes that hit every remainder of the
/// four-wide coefficient fold (support vectors) and of the quad item
/// groups (items), one and several 256-item blocks, and both sides of the
/// parallel threshold.
class NumericCoreParityExpansion
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

std::string ExpansionShapeName(
    const ::testing::TestParamInfo<NumericCoreParityExpansion::ParamType>&
        info) {
  const auto [num_svs, num_points] = info.param;
  return "rbf_svs" + std::to_string(num_svs) + "_items" +
         std::to_string(num_points);
}

TEST_P(NumericCoreParityExpansion, BatchedExpansionMatchesScalarSum) {
  // The reference is the textbook scalar sum Σ coef_s·K(sv_s, x) − rho
  // with direct-differencing EvalKernel — no norm trick, no batching, no
  // threads. Each batched value must also equal the same row evaluated as
  // a one-row batch bit for bit: the quad groups fold the same kernel
  // values in Dot's order as the single-item tail that a one-row batch
  // takes.
  const auto [num_svs, num_points] = GetParam();
  const std::size_t dims = 40;
  Rng rng(541);
  Matrix svs(num_svs, dims);
  svs.FillGaussian(rng, 0.0, 1.0);
  std::vector<double> coefficients(num_svs);
  for (auto& c : coefficients) c = rng.Gaussian(0.0, 0.7);
  const double rho = 0.3;
  Matrix points(num_points, dims);
  points.FillGaussian(rng, 0.0, 1.0);

  const svm::KernelConfig kernel{1.0 / static_cast<double>(dims)};
  const svm::SvmModel model(svs, coefficients, rho, kernel);

  std::vector<double> batched(num_points);
  ASSERT_TRUE(model.DecisionValuesInto(points, StopCondition(), batched));
  Matrix row(1, dims);
  std::vector<double> single(1);
  for (std::size_t i = 0; i < num_points; ++i) {
    double scalar = -rho;
    for (std::size_t s = 0; s < num_svs; ++s) {
      scalar += coefficients[s] *
                svm::EvalKernel(kernel, svs.Row(s), points.Row(i));
    }
    numcore::ExpectRelNear(batched[i], scalar);
    std::copy_n(points.Row(i).begin(), dims, row.Row(0).begin());
    ASSERT_TRUE(model.DecisionValuesInto(row, StopCondition(), single));
    EXPECT_EQ(expprop::Bits(batched[i]), expprop::Bits(single[0]))
        << "item " << i << ": " << std::hexfloat << batched[i] << " vs "
        << single[0];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NumericCoreParityExpansion,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u, 4u, 5u, 75u, 401u, 402u, 403u),
        ::testing::Values(1u, 3u, 7u, 258u, 1030u)),
    ExpansionShapeName);

// ------------------------------------------------ the float32 sign filter

TEST(ExpNonPositiveOctet, WithinItsRelativeErrorOfStdExp) {
  // Seeded draws over [−87, 0] and of magnitude 2^-k (k < 40), then steps
  // of 2^-20 from 0 down to −1/16 and of 2^-16 from −87 up to −86: each
  // value within kExpOctetRelativeError of e^x in double.
  std::vector<float> args;
  Rng rng(20261020);
  for (int i = 0; i < 200000; ++i) {
    args.push_back(static_cast<float>(rng.Uniform(-87.0, 0.0)));
    const int k = static_cast<int>(rng.UniformInt(40));
    args.push_back(static_cast<float>(-std::ldexp(rng.Uniform(), -k)));
  }
  for (int i = 0; i < 65536; ++i) {
    args.push_back(-std::ldexp(static_cast<float>(i), -20));
    args.push_back(-87.0f + std::ldexp(static_cast<float>(i), -16));
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < args.size(); i += 8) {
    float lanes[8];
    std::copy_n(args.begin() + static_cast<std::ptrdiff_t>(i), 8, lanes);
    ExpNonPositiveOctet(lanes);
    for (std::size_t g = 0; g < 8; ++g) {
      const double expected = std::exp(static_cast<double>(args[i + g]));
      const double error = std::abs(lanes[g] - expected) / expected;
      worst = std::max(worst, error);
      if (error > kExpOctetRelativeError) {
        ADD_FAILURE() << "exp(" << std::hexfloat << args[i + g] << ") = "
                      << lanes[g] << ", std::exp " << expected << std::dec
                      << " (relative error " << error << ")";
        return;
      }
    }
  }
  EXPECT_GT(worst, 0.0);
}

TEST(ExpNonPositiveOctet, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  float lanes[8] = {0.0f, -0.0f, -87.0001f, -88.0f, -1e30f, -inf, nan, -nan};
  ExpNonPositiveOctet(lanes);
  EXPECT_EQ(lanes[0], 1.0f);
  EXPECT_EQ(lanes[1], 1.0f);
  // Below −87 and at −∞: +0, sign bit clear.
  for (std::size_t g = 2; g < 6; ++g) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(lanes[g]), 0u) << "lane " << g;
  }
  EXPECT_TRUE(std::isnan(lanes[6]));
  EXPECT_TRUE(std::isnan(lanes[7]));
}

namespace signprop {

/// A seeded model (rho = 0) and point set for the sign filter. The
/// coordinates' scale, γ and each coefficient's magnitude span several
/// decades; about a quarter of the points are support vectors and an
/// eighth duplicate an earlier point; the point count is never a multiple
/// of 16 (so never one of 256 either), and about a quarter of the counts
/// are 8 more than one, which fill the first octet of the last group of
/// sixteen and leave its second octet empty.
struct Case {
  Matrix svs;
  std::vector<double> coefficients;
  svm::KernelConfig kernel;
  Matrix points;
};

Case RandomCase(std::uint64_t seed) {
  constexpr std::size_t kDims[] = {1, 3, 8, 31, 32, 100};
  Rng rng(seed);
  Case c;
  const std::size_t dims = kDims[rng.UniformInt(6)];
  const std::size_t num_svs =
      1 + static_cast<std::size_t>(rng.UniformInt(rng.Bernoulli(0.5) ? 12
                                                                     : 400));
  std::size_t num_points = 0;
  while (num_points % 16 == 0) {
    num_points = 1 + static_cast<std::size_t>(
                         rng.UniformInt(rng.Bernoulli(0.7) ? 64 : 700));
  }
  if (rng.Bernoulli(0.25)) num_points = num_points - num_points % 16 + 8;
  const double scale = std::pow(10.0, rng.Uniform(-2.0, 2.0));
  c.svs = Matrix(num_svs, dims);
  c.svs.FillGaussian(rng, 0.0, scale);
  c.kernel.gamma = std::pow(10.0, rng.Uniform(-2.0, 1.5)) /
                   (static_cast<double>(dims) * scale * scale);
  c.coefficients.resize(num_svs);
  for (double& coefficient : c.coefficients) {
    coefficient = (rng.Bernoulli(0.5) ? 1.0 : -1.0) *
                  std::pow(10.0, rng.Uniform(-3.0, 3.0));
  }
  c.points = Matrix(num_points, dims);
  c.points.FillGaussian(rng, 0.0, scale);
  for (std::size_t i = 0; i < num_points; ++i) {
    const double pick = rng.Uniform();
    if (pick < 0.25) {
      const auto sv = c.svs.Row(rng.UniformInt(num_svs));
      std::copy(sv.begin(), sv.end(), c.points.Row(i).begin());
    } else if (pick < 0.375 && i > 0) {
      const auto earlier = c.points.Row(rng.UniformInt(i));
      std::copy(earlier.begin(), earlier.end(), c.points.Row(i).begin());
    }
  }
  return c;
}

std::string Replay(std::uint64_t seed) {
  return "case seed " + std::to_string(seed) +
         "; replay it alone with\n  CCDB_SIGN_FILTER_CASE=" +
         std::to_string(seed) +
         " build/tests/property_test "
         "--gtest_filter='Seeds/SignFilterProperty.*/0'";
}

/// LabelsInto against DecisionValuesInto(...) ≥ 0 on every point; reports
/// the first mismatch only.
void ExpectExactLabels(const svm::SvmModel& model, const Matrix& points,
                       const std::string& what) {
  std::vector<double> values(points.rows());
  ASSERT_TRUE(model.DecisionValuesInto(points, StopCondition(), values));
  const auto labels = std::make_unique<bool[]>(points.rows());
  ASSERT_TRUE(model.LabelsInto(points, svm::LabelPoints(points),
                               StopCondition(),
                               std::span(labels.get(), points.rows())));
  for (std::size_t i = 0; i < points.rows(); ++i) {
    if (labels[i] != (values[i] >= 0.0)) {
      ADD_FAILURE() << "item " << i << " of " << points.rows()
                    << ": label " << labels[i] << " but f = " << std::hexfloat
                    << values[i] << std::dec << " (rho " << std::hexfloat
                    << model.rho() << std::dec << ")\n"
                    << what;
      return;
    }
  }
}

/// One case: the labels at a random rho (the exact sum S_j of a random
/// point j, so that point sits on the boundary), then, for two chosen
/// points and the points around them, rho = S + δ with δ = 0, ±1 ulp of S
/// and ±10^-k·Σ|coef| for k = 2..10: exact values of 0, just above 0 and
/// just below it, which the filter must leave to the exact path.
void CheckCase(std::uint64_t seed) {
  const Case c = RandomCase(seed);
  const std::size_t n = c.points.rows();
  const svm::SvmModel at_zero(c.svs, c.coefficients, 0.0, c.kernel);
  std::vector<double> sums(n);
  ASSERT_TRUE(at_zero.DecisionValuesInto(c.points, StopCondition(), sums));
  Rng rng(seed ^ 0x5157);
  ExpectExactLabels(svm::SvmModel(c.svs, c.coefficients,
                                  sums[rng.UniformInt(n)], c.kernel),
                    c.points, Replay(seed));
  double coefficient_sum = 0.0;
  for (double coefficient : c.coefficients) {
    coefficient_sum += std::abs(coefficient);
  }
  for (int chosen = 0; chosen < 2 && !::testing::Test::HasFailure();
       ++chosen) {
    const std::size_t j = rng.UniformInt(n);
    const std::size_t lo = j >= 5 ? j - 5 : 0;
    Matrix around(std::min(n, lo + 11) - lo, c.points.cols());
    for (std::size_t i = 0; i < around.rows(); ++i) {
      const auto row = c.points.Row(lo + i);
      std::copy(row.begin(), row.end(), around.Row(i).begin());
    }
    const double s = sums[j];
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> rhos = {s, std::nextafter(s, inf),
                                std::nextafter(s, -inf)};
    for (int k = 2; k <= 10; ++k) {
      const double delta = std::pow(10.0, -k) * coefficient_sum;
      rhos.push_back(s + delta);
      rhos.push_back(s - delta);
    }
    for (double rho : rhos) {
      ExpectExactLabels(svm::SvmModel(c.svs, c.coefficients, rho, c.kernel),
                        around,
                        "boundary of point " + std::to_string(j) + ", " +
                            Replay(seed));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace signprop

class SignFilterProperty : public ::testing::TestWithParam<std::uint64_t> {};

// 40 cases per seed; CCDB_SIGN_FILTER_CASE=<case seed> runs one case.
TEST_P(SignFilterProperty, LabelsAreTheExactPathsSigns) {
  if (const char* only = std::getenv("CCDB_SIGN_FILTER_CASE")) {
    signprop::CheckCase(std::strtoull(only, nullptr, 10));
    return;
  }
  for (std::uint64_t i = 0; i < 40 && !HasFailure(); ++i) {
    signprop::CheckCase(GetParam() * 1000000 + i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignFilterProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(NumericCoreParityLarge, BlockedKnnMatchesBruteForce) {
  // The blocked squared-distance kNN scan against a naive
  // sort-all-distances reference, with n far above one scan block.
  Rng rng(547);
  const std::size_t n = 1500, dims = 7;
  Matrix points(n, dims);
  points.FillGaussian(rng, 0.0, 1.0);
  for (const std::size_t query : {std::size_t{0}, std::size_t{733},
                                  std::size_t{1499}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{17}}) {
      const auto fast = eval::KNearestNeighbors(points, query, k);
      std::vector<eval::Neighbor> brute;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == query) continue;
        brute.push_back({i, Distance(points.Row(i), points.Row(query))});
      }
      std::sort(brute.begin(), brute.end(),
                [](const eval::Neighbor& a, const eval::Neighbor& b) {
                  return a.distance < b.distance;
                });
      ASSERT_EQ(fast.size(), k);
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(fast[j].index, brute[j].index)
            << "query " << query << " k " << k << " rank " << j;
        numcore::ExpectRelNear(fast[j].distance, brute[j].distance);
      }
    }
  }
}

TEST(NumericCoreParityLarge, BatchKnnMatchesPerQueryKnn) {
  // KNearestNeighborsBatch scans queries in quad groups; every result list
  // must be bit-identical to the per-query scan, including the sub-four
  // tail (here 6 queries = one quad group + two tail queries).
  Rng rng(557);
  const std::size_t n = 2300, dims = 11;
  Matrix points(n, dims);
  points.FillGaussian(rng, 0.0, 1.0);
  const std::vector<std::size_t> queries = {0, 17, 1151, 2299, 3, 800};
  const std::size_t k = 9;
  const auto batch = eval::KNearestNeighborsBatch(points, queries, k);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = eval::KNearestNeighbors(points, queries[q], k);
    ASSERT_EQ(batch[q].size(), single.size()) << "query " << queries[q];
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batch[q][j].index, single[j].index)
          << "query " << queries[q] << " rank " << j;
      EXPECT_DOUBLE_EQ(batch[q][j].distance, single[j].distance)
          << "query " << queries[q] << " rank " << j;
    }
  }
}

TEST(NumericCoreParityLarge, CoherenceIsTheSharedLabelShareOfTheNeighbors) {
  // NeighborLabelCoherence against a brute-force count over per-query
  // KNearestNeighbors lists: the share of neighbors that share at least
  // one label with their query. Once on the serial path and once above
  // kParallelCoherenceFlops; the count is exact either way.
  Rng rng(563);
  const std::size_t dims = 8, k = 7;
  for (const std::size_t n : {std::size_t{200}, std::size_t{1500}}) {
    Matrix points(n, dims);
    points.FillGaussian(rng, 0.0, 1.0);
    std::vector<std::vector<bool>> labels(n);
    for (auto& item : labels) {
      item.resize(2 + rng.UniformInt(2));  // 2 or 3 label ids
      for (std::size_t l = 0; l < item.size(); ++l) {
        item[l] = rng.Bernoulli(0.3);
      }
    }
    const std::vector<std::size_t> queries =
        rng.SampleWithoutReplacement(n, n / 6 + 1);
    const bool parallel =
        queries.size() * n * dims >= eval::kParallelCoherenceFlops;
    EXPECT_EQ(parallel, n == 1500) << "n " << n;

    std::size_t matched = 0, counted = 0;
    for (const std::size_t query : queries) {
      for (const eval::Neighbor& neighbor :
           eval::KNearestNeighbors(points, query, k)) {
        const auto& a = labels[query];
        const auto& b = labels[neighbor.index];
        bool shared = false;
        for (std::size_t l = 0; l < std::min(a.size(), b.size()); ++l) {
          shared = shared || (a[l] && b[l]);
        }
        matched += shared ? 1 : 0;
        ++counted;
      }
    }
    ASSERT_EQ(counted, queries.size() * k);
    EXPECT_EQ(eval::NeighborLabelCoherence(points, labels, queries, k),
              static_cast<double>(matched) / static_cast<double>(counted))
        << "n " << n;
  }
}

// ------------------------------------------------------ Gram fill

namespace gram {


/// n at every quad tail (1–9) and around the tile edges: one short of a
/// tile, a whole tile, one over, and a third tile holding one row.
std::vector<std::size_t> Sizes() {
  constexpr std::size_t kTile = svm::kGramTileRows;
  std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65,
                                    kTile - 1, kTile, kTile + 1,
                                    2 * kTile + 1};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

std::string ParamName(const ::testing::TestParamInfo<std::size_t>& info) {
  return "rbf_n" + std::to_string(info.param);
}

}  // namespace gram

/// The tiled Gram fill against n EvalKernelBatch rows, by bit pattern,
/// unsigned and signed the way the C-SVC signs its Q rows. The output
/// span sits between two guard bands that must come back untouched: a
/// store past the end of a tail tile shows here even without ASan.
class GramFill : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GramFill, MatchesKernelRowsBitForBit) {
  const std::size_t n = GetParam();
  const svm::KernelConfig config{0.3};
  constexpr std::size_t kDims = 7;  // a Dot unroll tail of 3
  Rng rng(7700 + n * 3 + 1);
  Matrix x(n, kDims);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> signs(n);
  for (auto& sign : signs) sign = rng.Bernoulli(0.5) ? 1 : -1;
  std::vector<double> sq_norms(n);
  RowSquaredNorms(x.Data(), n, kDims, sq_norms);

  std::vector<std::vector<double>> rows(n, std::vector<double>(n));
  for (std::size_t r = 0; r < n; ++r) {
    svm::EvalKernelBatch(config, x.Data(), n, kDims, sq_norms, x.Row(r),
                         sq_norms[r], rows[r]);
  }

  constexpr std::size_t kGuard = 67;
  const std::uint64_t guard_bits = 0x7ff8dead'beef0001ull;
  for (const bool signed_q : {false, true}) {
    SCOPED_TRACE(signed_q ? "signed" : "unsigned");
    std::vector<double> buffer(n * n + 2 * kGuard,
                               std::bit_cast<double>(guard_bits));
    const std::span<double> out =
        std::span(buffer).subspan(kGuard, n * n);
    svm::EvalKernelGram(config, x.Data(), n, kDims, sq_norms,
                        signed_q ? std::span<const std::int8_t>(signs)
                                 : std::span<const std::int8_t>(),
                        out);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double y_i = signed_q ? static_cast<double>(signs[i]) : 1.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double y_j = signed_q ? static_cast<double>(signs[j]) : 1.0;
        const double want = y_i * y_j * rows[i][j];
        if (expprop::Bits(out[i * n + j]) != expprop::Bits(want) &&
            ++mismatches == 1) {
          ADD_FAILURE() << "entry (" << i << ", " << j << ") "
                        << std::hexfloat << out[i * n + j] << " vs " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    for (std::size_t g = 0; g < kGuard; ++g) {
      EXPECT_EQ(expprop::Bits(buffer[g]), guard_bits) << "guard " << g;
      EXPECT_EQ(expprop::Bits(buffer[kGuard + n * n + g]), guard_bits)
          << "guard " << g << " past the end";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GramFill, ::testing::ValuesIn(gram::Sizes()),
                         gram::ParamName);

// ------------------------------------------------ SMO solver oracle

namespace smo_oracle {

/// The unfused SMO loop, kept as the reference: rows copied out of Q, a
/// sequential in_i_up / in_i_low scan and a separate gradient loop,
/// starting from α = 0 like every caller. The shipped solver must
/// reproduce its alpha, rho, iteration count and convergence flag bit for
/// bit.
svm::SmoResult ReferenceSolveSmo(const svm::QMatrix& q,
                                 const std::vector<double>& p,
                                 const std::vector<std::int8_t>& y,
                                 const std::vector<double>& upper_bound,
                                 const svm::SmoConfig& config) {
  constexpr double kTau = 1e-12;
  const std::size_t n = q.size();
  svm::SmoResult result;
  result.alpha.assign(n, 0.0);
  std::vector<double>& alpha = result.alpha;
  std::vector<double> gradient = p;
  std::vector<double> row_i(n), row_j(n);
  const auto copy_row = [&q](std::size_t r, std::vector<double>& out) {
    const std::span<const double> row = q.Row(r);
    out.assign(row.begin(), row.end());
  };
  auto in_i_up = [&](std::size_t t) {
    return (y[t] > 0 && alpha[t] < upper_bound[t]) ||
           (y[t] < 0 && alpha[t] > 0.0);
  };
  auto in_i_low = [&](std::size_t t) {
    return (y[t] > 0 && alpha[t] > 0.0) ||
           (y[t] < 0 && alpha[t] < upper_bound[t]);
  };

  for (result.iterations = 0; result.iterations < config.max_iterations;
       ++result.iterations) {
    double max_up = -std::numeric_limits<double>::infinity();
    double min_low = std::numeric_limits<double>::infinity();
    std::size_t i = n, j = n;
    for (std::size_t t = 0; t < n; ++t) {
      const double score = -static_cast<double>(y[t]) * gradient[t];
      if (in_i_up(t) && score > max_up) {
        max_up = score;
        i = t;
      }
      if (in_i_low(t) && score < min_low) {
        min_low = score;
        j = t;
      }
    }
    if (i >= n || j >= n || max_up - min_low < svm::kSmoTolerance) {
      result.converged = true;
      break;
    }

    copy_row(i, row_i);
    copy_row(j, row_j);
    const double c_i = upper_bound[i];
    const double c_j = upper_bound[j];
    const double old_alpha_i = alpha[i];
    const double old_alpha_j = alpha[j];
    if (y[i] != y[j]) {
      double quad_coef = q.Diagonal(i) + q.Diagonal(j) + 2.0 * row_i[j];
      if (quad_coef <= 0.0) quad_coef = kTau;
      const double delta = (-gradient[i] - gradient[j]) / quad_coef;
      const double diff = alpha[i] - alpha[j];
      alpha[i] += delta;
      alpha[j] += delta;
      if (diff > 0.0) {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = diff;
        }
      } else {
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = -diff;
        }
      }
      if (diff > c_i - c_j) {
        if (alpha[i] > c_i) {
          alpha[i] = c_i;
          alpha[j] = c_i - diff;
        }
      } else {
        if (alpha[j] > c_j) {
          alpha[j] = c_j;
          alpha[i] = c_j + diff;
        }
      }
    } else {
      double quad_coef = q.Diagonal(i) + q.Diagonal(j) - 2.0 * row_i[j];
      if (quad_coef <= 0.0) quad_coef = kTau;
      const double delta = (gradient[i] - gradient[j]) / quad_coef;
      const double sum = alpha[i] + alpha[j];
      alpha[i] -= delta;
      alpha[j] += delta;
      if (sum > c_i) {
        if (alpha[i] > c_i) {
          alpha[i] = c_i;
          alpha[j] = sum - c_i;
        }
      } else {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = sum;
        }
      }
      if (sum > c_j) {
        if (alpha[j] > c_j) {
          alpha[j] = c_j;
          alpha[i] = sum - c_j;
        }
      } else {
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = sum;
        }
      }
    }
    const double delta_i = alpha[i] - old_alpha_i;
    const double delta_j = alpha[j] - old_alpha_j;
    if (delta_i == 0.0 && delta_j == 0.0) {
      result.converged = true;
      break;
    }
    for (std::size_t t = 0; t < n; ++t) {
      gradient[t] += delta_i * row_i[t] + delta_j * row_j[t];
    }
  }

  double free_sum = 0.0;
  std::size_t free_count = 0;
  double upper = std::numeric_limits<double>::infinity();
  double lower = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < n; ++t) {
    const double y_grad = static_cast<double>(y[t]) * gradient[t];
    if (alpha[t] >= upper_bound[t]) {
      if (y[t] < 0) {
        upper = std::min(upper, y_grad);
      } else {
        lower = std::max(lower, y_grad);
      }
    } else if (alpha[t] <= 0.0) {
      if (y[t] > 0) {
        upper = std::min(upper, y_grad);
      } else {
        lower = std::max(lower, y_grad);
      }
    } else {
      free_sum += y_grad;
      ++free_count;
    }
  }
  result.rho = free_count > 0 ? free_sum / static_cast<double>(free_count)
                              : (upper + lower) / 2.0;
  return result;
}

/// Raw kernel rows computed the way the library's Q matrices fill them
/// (one norm-trick EvalKernelBatch sweep per row, EvalKernel diagonal).
struct KernelRows {
  std::vector<std::vector<double>> rows;
  std::vector<double> diagonal;
};

KernelRows ComputeKernelRows(const svm::KernelConfig& kernel,
                             const Matrix& x) {
  const std::size_t n = x.rows();
  std::vector<double> sq_norms(n);
  RowSquaredNorms(x.Data(), n, x.cols(), sq_norms);
  KernelRows k;
  k.rows.assign(n, std::vector<double>(n));
  k.diagonal.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    svm::EvalKernelBatch(kernel, x.Data(), n, x.cols(), sq_norms, x.Row(r),
                         sq_norms[r], k.rows[r]);
    k.diagonal[r] = svm::EvalKernel(kernel, x.Row(r), x.Row(r));
  }
  return k;
}

/// Dense Q: C-SVC rows y_r·y_t·K_rt, or the 2n-variable ε-SVR rows
/// ŷ_s·ŷ_t·K(s mod n, t mod n) when `labels` is empty.
class DenseQ : public svm::QMatrix {
 public:
  DenseQ(const KernelRows& k, const std::vector<std::int8_t>& labels)
      : k_(k) {
    const std::size_t n = k.rows.size();
    if (!labels.empty()) {
      rows_.assign(n, std::vector<double>(n));
      for (std::size_t r = 0; r < n; ++r) {
        const double y_r = static_cast<double>(labels[r]);
        for (std::size_t t = 0; t < n; ++t) {
          rows_[r][t] = y_r * static_cast<double>(labels[t]) * k.rows[r][t];
        }
      }
      return;
    }
    rows_.assign(2 * n, std::vector<double>(2 * n));
    for (std::size_t s = 0; s < 2 * n; ++s) {
      const double sign_s = s < n ? 1.0 : -1.0;
      for (std::size_t t = 0; t < n; ++t) {
        rows_[s][t] = sign_s * k.rows[s % n][t];
        rows_[s][t + n] = -sign_s * k.rows[s % n][t];
      }
    }
  }
  std::size_t size() const override { return rows_.size(); }
  std::span<const double> Row(std::size_t i) const override {
    return rows_[i];
  }
  double Diagonal(std::size_t i) const override {
    return k_.diagonal[i % k_.diagonal.size()];
  }

 private:
  const KernelRows& k_;
  std::vector<std::vector<double>> rows_;
};

enum class Case { kNoisy, kCostScales, kDuplicates, kConstantFeatures };
/// kWholeMatrix and kJustBelowWholeMatrix pin both sides of the cache's
/// switch from LRU rows to one whole-matrix Gram fill.
enum class Budget {
  kZero,
  kTwoRows,
  kDefault,
  kWholeMatrix,
  kJustBelowWholeMatrix
};

struct Problem {
  Matrix x;
  std::vector<std::int8_t> labels;
  std::vector<double> targets;
  std::vector<double> cost_scale;  // empty = all 1
};

/// A seeded problem of n examples: noisy labels (10% flipped, both classes
/// present), noisy regression targets, and the case's twist.
Problem MakeProblem(std::size_t n, Case c) {
  const std::size_t dims = n >= 1000 ? 32 : 4;
  Rng rng(9000 + n * 4 + static_cast<std::size_t>(c));
  Problem problem{Matrix(n, dims), std::vector<std::int8_t>(n),
                  std::vector<double>(n), {}};
  Matrix& x = problem.x;
  x.FillGaussian(rng, 0.0, 1.0);
  if (c == Case::kDuplicates) {
    // Every row past the first half repeats an earlier one, so equal
    // points carry equal, or (label noise) conflicting, labels and equal
    // targets: exact score ties for the selection scan to break.
    const std::size_t distinct = (n + 1) / 2;
    for (std::size_t i = distinct; i < n; ++i) {
      for (std::size_t col = 0; col < dims; ++col) {
        x(i, col) = x(i - distinct, col);
      }
    }
  }
  if (c == Case::kConstantFeatures) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t col = 1; col < dims; col += 2) x(i, col) = 2.5;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = (x(i, 0) + 0.5 * x(i, dims - 2) > 0.0) !=
                          rng.Bernoulli(0.1);
    problem.labels[i] = positive ? 1 : -1;
    problem.targets[i] = x(i, 0) - 0.5 * x(i, dims - 2);
    if (c != Case::kDuplicates) problem.targets[i] += rng.Gaussian(0.0, 0.2);
  }
  problem.labels[0] = 1;
  problem.labels[n - 1] = -1;
  if (c == Case::kCostScales) {
    // TSVM-style: a labeled half at scale 1 with the rare class up-weighted
    // as balance_class_costs does, and an "unlabeled" half at a tiny scale.
    std::size_t positives = 0;
    for (std::int8_t label : problem.labels) positives += label > 0 ? 1 : 0;
    const double positive_scale =
        std::sqrt(static_cast<double>(n - positives) /
                  static_cast<double>(positives));
    problem.cost_scale.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      problem.cost_scale[i] = i < n / 2 ? (problem.labels[i] > 0
                                               ? positive_scale
                                               : 1.0)
                                        : 0.004;
    }
  }
  return problem;
}

std::size_t CacheBytes(Budget budget, std::size_t n) {
  switch (budget) {
    case Budget::kZero:
      return 0;
    case Budget::kTwoRows:
      return 2 * n * sizeof(double);
    case Budget::kDefault:
      return svm::kDefaultKernelCacheBytes;
    case Budget::kWholeMatrix:
      return n * n * sizeof(double);
    case Budget::kJustBelowWholeMatrix:
      return n * n * sizeof(double) - 1;
  }
  return 0;
}

using Param = std::tuple<std::size_t, Case, Budget>;

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  const auto [n, c, budget] = info.param;
  const char* const cases[] = {"noisy", "cost_scales", "duplicates",
                               "constant_features"};
  const char* const budgets[] = {"cache0", "cache2rows", "cachedefault",
                                 "cachewhole", "cachewholeminus1"};
  return "n" + std::to_string(n) + "_" + cases[static_cast<int>(c)] + "_" +
         budgets[static_cast<int>(budget)];
}

}  // namespace smo_oracle

/// n covers every n mod 4 tail of the four-lane pass, from the smallest
/// problems to the serve shape (n = 1,000, d = 32); the SVR's 2n variables
/// add the even tails again.
class SmoOracleSvc : public ::testing::TestWithParam<smo_oracle::Param> {};
class SmoOracleSvr : public ::testing::TestWithParam<smo_oracle::Param> {};

TEST_P(SmoOracleSvc, MatchesReferenceBitForBit) {
  using namespace smo_oracle;  // NOLINT
  const auto [n, c, budget] = GetParam();
  const Problem problem = MakeProblem(n, c);
  svm::ClassifierOptions options;
  options.kernel.gamma = 1.0 / static_cast<double>(problem.x.cols());
  options.cost = 10.0;
  options.example_cost_scale = problem.cost_scale;
  options.kernel_cache_bytes = CacheBytes(budget, n);
  svm::TrainDiagnostics diagnostics;
  svm::TrainClassifier(problem.x, problem.labels, options, &diagnostics);

  const KernelRows k = ComputeKernelRows(options.kernel, problem.x);
  const DenseQ q(k, problem.labels);
  std::vector<double> upper_bound(n, options.cost);
  for (std::size_t i = 0; i < problem.cost_scale.size(); ++i) {
    upper_bound[i] = options.cost * problem.cost_scale[i];
  }
  const svm::SmoResult reference =
      ReferenceSolveSmo(q, std::vector<double>(n, -1.0), problem.labels,
                        upper_bound, options.smo);

  EXPECT_EQ(diagnostics.iterations, reference.iterations);
  EXPECT_EQ(diagnostics.converged, reference.converged);
  EXPECT_EQ(expprop::Bits(diagnostics.rho), expprop::Bits(reference.rho))
      << std::hexfloat << diagnostics.rho << " vs " << reference.rho;
  ASSERT_EQ(diagnostics.alpha.size(), n);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (expprop::Bits(diagnostics.alpha[i]) !=
        expprop::Bits(reference.alpha[i])) {
      if (++mismatches == 1) {
        ADD_FAILURE() << "alpha[" << i << "] " << std::hexfloat
                      << diagnostics.alpha[i] << " vs " << reference.alpha[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_P(SmoOracleSvr, MatchesReferenceBitForBit) {
  using namespace smo_oracle;  // NOLINT
  const auto [n, c, budget] = GetParam();
  const Problem problem = MakeProblem(n, c);
  svm::SvrOptions options;
  options.kernel.gamma = 1.0 / static_cast<double>(problem.x.cols());
  options.cost = 10.0;
  options.epsilon = 0.1;
  options.kernel_cache_bytes = CacheBytes(budget, n);
  const svm::SvmModel model =
      svm::TrainSvr(problem.x, problem.targets, options);

  const KernelRows k = ComputeKernelRows(options.kernel, problem.x);
  const DenseQ q(k, {});
  std::vector<double> p(2 * n);
  std::vector<std::int8_t> y(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = options.epsilon - problem.targets[i];
    p[i + n] = options.epsilon + problem.targets[i];
    y[i] = 1;
    y[i + n] = -1;
  }
  const svm::SmoResult reference = ReferenceSolveSmo(
      q, p, y, std::vector<double>(2 * n, options.cost), options.smo);
  std::vector<double> betas;
  for (std::size_t i = 0; i < n; ++i) {
    const double beta = reference.alpha[i] - reference.alpha[i + n];
    if (std::abs(beta) > 1e-12) betas.push_back(beta);
  }

  EXPECT_EQ(expprop::Bits(model.rho()), expprop::Bits(reference.rho))
      << std::hexfloat << model.rho() << " vs " << reference.rho;
  ASSERT_EQ(model.coefficients().size(), betas.size());
  for (std::size_t s = 0; s < betas.size(); ++s) {
    ASSERT_EQ(expprop::Bits(model.coefficients()[s]), expprop::Bits(betas[s]))
        << "beta[" << s << "] " << std::hexfloat << model.coefficients()[s]
        << " vs " << betas[s];
  }
}

namespace smo_oracle {
const auto kSizes = ::testing::Values(2u, 3u, 4u, 5u, 7u, 8u, 63u, 64u, 65u,
                                      257u, 1000u);
const auto kBudgets = ::testing::Values(Budget::kZero, Budget::kTwoRows,
                                        Budget::kDefault, Budget::kWholeMatrix,
                                        Budget::kJustBelowWholeMatrix);
}  // namespace smo_oracle

INSTANTIATE_TEST_SUITE_P(
    Shapes, SmoOracleSvc,
    ::testing::Combine(smo_oracle::kSizes,
                       ::testing::Values(smo_oracle::Case::kNoisy,
                                         smo_oracle::Case::kCostScales,
                                         smo_oracle::Case::kDuplicates,
                                         smo_oracle::Case::kConstantFeatures),
                       smo_oracle::kBudgets),
    smo_oracle::ParamName);

// ε-SVR has no per-example cost, so it skips that case.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SmoOracleSvr,
    ::testing::Combine(smo_oracle::kSizes,
                       ::testing::Values(smo_oracle::Case::kNoisy,
                                         smo_oracle::Case::kDuplicates,
                                         smo_oracle::Case::kConstantFeatures),
                       smo_oracle::kBudgets),
    smo_oracle::ParamName);

// ----------------------------------------------------- SQL parser fuzz

// Generates a random, grammatically valid SELECT and checks it parses
// with the expected structure; then mutates it and checks the parser
// fails cleanly (no crash, error status) on common corruptions.
class SqlFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

namespace sqlfuzz {

std::string RandomIdentifier(Rng& rng) {
  static const char* kNames[] = {"name", "year", "rating", "is_comedy",
                                 "humor", "cluster", "item_id"};
  return kNames[rng.UniformInt(std::size(kNames))];
}

std::string RandomLiteral(Rng& rng) {
  switch (rng.UniformInt(4)) {
    case 0: return std::to_string(static_cast<int>(rng.UniformInt(2000)));
    case 1: return "3.25";
    case 2: return "'text value'";
    default: return rng.Bernoulli(0.5) ? "true" : "false";
  }
}

std::string RandomComparison(Rng& rng) {
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  return RandomIdentifier(rng) + " " + kOps[rng.UniformInt(6)] + " " +
         RandomLiteral(rng);
}

std::string RandomExpr(Rng& rng, int depth) {
  if (depth <= 0 || rng.Bernoulli(0.4)) return RandomComparison(rng);
  switch (rng.UniformInt(3)) {
    case 0:
      return RandomExpr(rng, depth - 1) + " AND " +
             RandomExpr(rng, depth - 1);
    case 1:
      return RandomExpr(rng, depth - 1) + " OR " +
             RandomExpr(rng, depth - 1);
    default:
      return "NOT (" + RandomExpr(rng, depth - 1) + ")";
  }
}

std::string RandomSelect(Rng& rng) {
  std::string sql = "SELECT ";
  const std::size_t num_items = 1 + rng.UniformInt(3);
  if (rng.Bernoulli(0.25)) {
    sql += "*";
  } else {
    for (std::size_t i = 0; i < num_items; ++i) {
      if (i > 0) sql += ", ";
      if (rng.Bernoulli(0.3)) {
        static const char* kFuncs[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
        const char* func = kFuncs[rng.UniformInt(5)];
        sql += std::string(func) + "(" +
               (std::string(func) == "COUNT" && rng.Bernoulli(0.5)
                    ? "*"
                    : RandomIdentifier(rng)) +
               ")";
      } else {
        sql += RandomIdentifier(rng);
      }
    }
  }
  sql += " FROM movies";
  if (rng.Bernoulli(0.7)) sql += " WHERE " + RandomExpr(rng, 3);
  if (rng.Bernoulli(0.3)) sql += " GROUP BY " + RandomIdentifier(rng);
  if (rng.Bernoulli(0.4)) {
    sql += " ORDER BY " + RandomIdentifier(rng);
    if (rng.Bernoulli(0.5)) sql += " DESC";
  }
  if (rng.Bernoulli(0.4)) {
    sql += " LIMIT " + std::to_string(1 + rng.UniformInt(100));
  }
  return sql;
}

}  // namespace sqlfuzz

TEST_P(SqlFuzzProperty, ValidStatementsParse) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string sql = sqlfuzz::RandomSelect(rng);
    const auto statement = db::ParseSelect(sql);
    ASSERT_TRUE(statement.ok())
        << sql << " → " << statement.status().ToString();
    EXPECT_EQ(statement.value().table, "movies") << sql;
  }
}

TEST_P(SqlFuzzProperty, CorruptedStatementsFailCleanly) {
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string sql = sqlfuzz::RandomSelect(rng);
    // Corrupt: truncate mid-string, inject junk, or drop a keyword.
    switch (rng.UniformInt(3)) {
      case 0:
        sql = sql.substr(0, sql.size() / 2 + 1);
        break;
      case 1:
        sql.insert(rng.UniformInt(sql.size()), "@@");
        break;
      default: {
        const std::size_t from = sql.find("FROM");
        if (from != std::string::npos) sql = sql.substr(0, from);
        break;
      }
    }
    // Must not crash; almost every corruption is a parse error, but a
    // truncation can land on a valid prefix — only require a clean
    // Status either way.
    const auto statement = db::ParseSelect(sql);
    if (!statement.ok()) {
      EXPECT_EQ(statement.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzProperty,
                         ::testing::Values(1u, 99u, 31337u));

// ------------------------------------------------- SQL parser robustness
//
// Seeded truncations and single-byte mutations of a corpus of valid
// statements: every ParseSelect call returns OK or InvalidArgument, and
// every statement that parses runs to a result or a Status, never to an
// abort (which would end the test binary).

namespace sqlmutation {

const char* const kCorpus[] = {
    "SELECT * FROM movies",
    "SELECT name, year FROM movies WHERE year >= 1970 AND NOT is_comedy",
    "SELECT name FROM movies WHERE (rating > 8.0 OR name = 'It''s') AND "
    "year != 1960 ORDER BY rating DESC LIMIT 2",
    "SELECT genre, COUNT(*), AVG(rating), MIN(name), MAX(year) FROM movies "
    "GROUP BY genre HAVING count(*) >= 2 AND avg(rating) < 9 "
    "ORDER BY count(*) DESC LIMIT 3",
    "SELECT COUNT(year), SUM(rating) FROM movies WHERE NOT (is_comedy = "
    "false) OR rating <= -1.5",
    "SELECT item_id FROM movies WHERE name <> 'x' ORDER BY name ASC LIMIT 0",
};

db::Database MoviesDatabase() {
  db::Table table("movies", db::Schema({{"item_id", db::ColumnType::kInt},
                                        {"name", db::ColumnType::kString},
                                        {"year", db::ColumnType::kInt},
                                        {"rating", db::ColumnType::kDouble},
                                        {"is_comedy", db::ColumnType::kBool},
                                        {"genre", db::ColumnType::kString}}));
  const auto row = [&](std::int64_t id, db::Value name, db::Value year,
                       db::Value rating, db::Value comedy, db::Value genre) {
    CCDB_CHECK(table
                   .AppendRow({db::Value(id), std::move(name), std::move(year),
                               std::move(rating), std::move(comedy),
                               std::move(genre)})
                   .ok());
  };
  using db::Value;
  row(0, Value(std::string("Rocky")), Value(std::int64_t{1976}), Value(8.1),
      Value(false), Value(std::string("drama")));
  row(1, Value(std::string("It's")), Value(std::int64_t{1960}), Value(8.5),
      Value{}, Value(std::string("horror")));
  row(2, Value{}, Value{}, Value(std::int64_t{7}), Value(true),
      Value(std::string("comedy")));
  row(3, Value(std::string("x")), Value(std::int64_t{1999}), Value{},
      Value(true), Value{});
  db::Database database;
  CCDB_CHECK(database.AddTable(std::move(table)).ok());
  return database;
}

void Check(db::Database& database, const std::string& sql) {
  const StatusOr<db::SelectStatement> statement = db::ParseSelect(sql);
  if (!statement.ok()) {
    EXPECT_EQ(statement.status().code(), StatusCode::kInvalidArgument)
        << sql << " → " << statement.status().ToString();
    return;
  }
  const StatusOr<db::Table> result = database.ExecuteSelect(statement.value());
  if (result.ok()) {
    EXPECT_LE(result.value().num_rows(), 4u) << sql;
  }
}

}  // namespace sqlmutation

TEST(SqlMutation, EveryTruncationParsesOrFailsCleanly) {
  db::Database database = sqlmutation::MoviesDatabase();
  for (const std::string sql : sqlmutation::kCorpus) {
    for (std::size_t length = 0; length <= sql.size(); ++length) {
      sqlmutation::Check(database, sql.substr(0, length));
    }
  }
}

class SqlMutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SqlMutationProperty, SingleByteMutationsParseOrFailCleanly) {
  db::Database database = sqlmutation::MoviesDatabase();
  Rng rng(GetParam());
  for (int trial = 0; trial < 3000; ++trial) {
    std::string sql = sqlmutation::kCorpus[rng.UniformInt(
        std::size(sqlmutation::kCorpus))];
    const std::size_t at = rng.UniformInt(sql.size());
    // Mostly printable bytes, sometimes a control or non-ASCII byte.
    const char byte = static_cast<char>(
        rng.Bernoulli(0.9) ? 32 + rng.UniformInt(95) : rng.UniformInt(256));
    switch (rng.UniformInt(3)) {
      case 0: sql[at] = byte; break;
      case 1: sql.insert(at, 1, byte); break;
      default: sql.erase(at, 1); break;
    }
    sqlmutation::Check(database, sql);
    if (HasFailure()) {
      ADD_FAILURE() << "seed " << GetParam() << ", trial " << trial;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlMutationProperty,
                         ::testing::Values(7u, 8u, 9u));

// ------------------------------------------ SQL executor differential oracle
//
// db::Database::ExecuteSelect against a row-at-a-time reference: the
// executor as it was before statements were bound, that is
// EvaluateBool/EvaluateValue once per row, a stable sort before LIMIT and a
// row-wise projection, except that GROUP BY groups by value. Each case is a
// seeded schema, table and statement; a failure prints all three and the
// command that replays the case alone.

namespace sqloracle {

using db::BinaryOp;
using db::ColumnDef;
using db::ColumnType;
using db::Expr;
using db::SelectItem;
using db::SelectStatement;
using db::Table;
using db::Text;
using db::Value;

// ---- The reference.

StatusOr<Value> EvaluateValue(const Expr& expr, const Table& table,
                              std::size_t row);

StatusOr<std::optional<bool>> EvaluateBool(const Expr& expr,
                                           const Table& table,
                                           std::size_t row) {
  switch (expr.kind) {
    case Expr::Kind::kNot: {
      StatusOr<std::optional<bool>> inner =
          EvaluateBool(*expr.left, table, row);
      if (!inner.ok()) return inner;
      const std::optional<bool> v = inner.value();
      if (!v.has_value()) return std::optional<bool>();
      return std::optional<bool>(!*v);
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        StatusOr<std::optional<bool>> left =
            EvaluateBool(*expr.left, table, row);
        if (!left.ok()) return left;
        StatusOr<std::optional<bool>> right =
            EvaluateBool(*expr.right, table, row);
        if (!right.ok()) return right;
        const std::optional<bool> l = left.value();
        const std::optional<bool> r = right.value();
        if (expr.op == BinaryOp::kAnd) {
          if (l.has_value() && !*l) return std::optional<bool>(false);
          if (r.has_value() && !*r) return std::optional<bool>(false);
          if (l.has_value() && r.has_value()) return std::optional<bool>(true);
          return std::optional<bool>();
        }
        if (l.has_value() && *l) return std::optional<bool>(true);
        if (r.has_value() && *r) return std::optional<bool>(true);
        if (l.has_value() && r.has_value()) return std::optional<bool>(false);
        return std::optional<bool>();
      }
      StatusOr<Value> left = EvaluateValue(*expr.left, table, row);
      if (!left.ok()) return left.status();
      StatusOr<Value> right = EvaluateValue(*expr.right, table, row);
      if (!right.ok()) return right.status();
      if (db::IsNull(left.value()) || db::IsNull(right.value())) {
        return std::optional<bool>();
      }
      const bool left_string = std::holds_alternative<Text>(left.value());
      const bool right_string = std::holds_alternative<Text>(right.value());
      if (left_string != right_string) {
        return Status::InvalidArgument(
            "type mismatch: cannot compare string with non-string");
      }
      const int cmp = db::CompareNonNull(left.value(), right.value());
      bool result = false;
      switch (expr.op) {
        case BinaryOp::kEq: result = cmp == 0; break;
        case BinaryOp::kNe: result = cmp != 0; break;
        case BinaryOp::kLt: result = cmp < 0; break;
        case BinaryOp::kLe: result = cmp <= 0; break;
        case BinaryOp::kGt: result = cmp > 0; break;
        case BinaryOp::kGe: result = cmp >= 0; break;
        default: return Status::Internal("unexpected operator");
      }
      return std::optional<bool>(result);
    }
    case Expr::Kind::kColumn:
    case Expr::Kind::kLiteral: {
      StatusOr<Value> value = EvaluateValue(expr, table, row);
      if (!value.ok()) return value.status();
      if (db::IsNull(value.value())) return std::optional<bool>();
      if (const bool* b = std::get_if<bool>(&value.value())) {
        return std::optional<bool>(*b);
      }
      return Status::InvalidArgument("non-Boolean value used as a condition");
    }
  }
  return Status::Internal("unreachable");
}

StatusOr<Value> EvaluateValue(const Expr& expr, const Table& table,
                              std::size_t row) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumn: {
      const std::size_t index = table.schema().FindColumn(expr.column);
      if (index == db::Schema::kNotFound) {
        return Status::NotFound("no such column: " + expr.column);
      }
      return table.Get(row, index);
    }
    default: {
      StatusOr<std::optional<bool>> value = EvaluateBool(expr, table, row);
      if (!value.ok()) return value.status();
      if (!value.value().has_value()) return Value{};
      return Value(*value.value());
    }
  }
}

// Sorts row positions stably by one column, NULLs last either way.
void StableSortRows(const Table& table, std::size_t column, bool descending,
                    std::vector<std::size_t>& rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Value& va = table.Get(a, column);
                     const Value& vb = table.Get(b, column);
                     if (db::IsNull(va)) return false;
                     if (db::IsNull(vb)) return true;
                     const int cmp = db::CompareNonNull(va, vb);
                     return descending ? cmp > 0 : cmp < 0;
                   });
}

struct AggregateState {
  std::size_t count = 0;
  double sum = 0.0;
  Value min;
  Value max;

  void Accumulate(const Value& value) {
    if (db::IsNull(value)) return;
    ++count;
    if (!std::holds_alternative<Text>(value)) {
      sum += db::AsNumeric(value);
    }
    if (db::IsNull(min) || db::CompareNonNull(value, min) < 0) min = value;
    if (db::IsNull(max) || db::CompareNonNull(value, max) > 0) max = value;
  }

  Value Finalize(db::AggregateFunc func) const {
    switch (func) {
      case db::AggregateFunc::kCount:
        return Value(static_cast<std::int64_t>(count));
      case db::AggregateFunc::kSum:
        return count == 0 ? Value{} : Value(sum);
      case db::AggregateFunc::kAvg:
        return count == 0 ? Value{} : Value(sum / static_cast<double>(count));
      case db::AggregateFunc::kMin:
        return min;
      case db::AggregateFunc::kMax:
        return max;
    }
    return Value{};
  }
};

std::string AggregateName(const SelectItem& item) {
  static const char* kNames[] = {"count", "sum", "avg", "min", "max"};
  return std::string(kNames[static_cast<int>(item.func)]) + "(" +
         (item.column.empty() ? "*" : item.column) + ")";
}

// Reference grouping by exact value: NULLs together, strings by content,
// BOOL and INT cells by value, DOUBLE cells (ints among them) by numeric
// value.
bool SameGroup(const Value& a, const Value& b, ColumnType type) {
  if (db::IsNull(a) || db::IsNull(b)) return db::IsNull(a) && db::IsNull(b);
  if (type == ColumnType::kString) {
    return std::get<Text>(a).view() == std::get<Text>(b).view();
  }
  if (type == ColumnType::kDouble) return db::AsNumeric(a) == db::AsNumeric(b);
  return a == b;
}

StatusOr<Table> ReferenceAggregates(const Table& table,
                                    const SelectStatement& statement,
                                    const std::vector<std::size_t>& rows) {
  const db::Schema& schema = table.schema();
  const bool grouped = !statement.group_by_column.empty();
  const std::size_t group_column =
      grouped ? schema.FindColumn(statement.group_by_column)
              : db::Schema::kNotFound;
  for (const SelectItem& item : statement.items) {
    if (item.kind == SelectItem::Kind::kColumn) {
      if (!grouped || item.column != statement.group_by_column) {
        return Status::InvalidArgument("non-aggregate column " + item.column +
                                       " must appear in GROUP BY");
      }
      continue;
    }
    if (item.column.empty()) continue;
    const std::size_t index = schema.FindColumn(item.column);
    if (index == db::Schema::kNotFound) {
      return Status::NotFound("no such column: " + item.column);
    }
    if ((item.func == db::AggregateFunc::kSum ||
         item.func == db::AggregateFunc::kAvg) &&
        schema.column(index).type == ColumnType::kString) {
      return Status::InvalidArgument("SUM/AVG need a numeric column");
    }
  }

  std::vector<Value> group_keys;
  std::vector<std::vector<std::size_t>> groups;
  if (!grouped) {
    group_keys.emplace_back();
    groups.push_back(rows);
  } else {
    for (std::size_t row : rows) {
      const Value& key = table.Get(row, group_column);
      std::size_t g = 0;
      while (g < groups.size() &&
             !SameGroup(group_keys[g], key, schema.column(group_column).type)) {
        ++g;
      }
      if (g == groups.size()) {
        group_keys.push_back(key);
        groups.emplace_back();
      }
      groups[g].push_back(row);
    }
  }

  std::vector<ColumnDef> columns;
  for (const SelectItem& item : statement.items) {
    if (item.kind == SelectItem::Kind::kColumn) {
      columns.push_back(schema.column(group_column));
      continue;
    }
    ColumnType type = ColumnType::kDouble;
    if (item.func == db::AggregateFunc::kCount) type = ColumnType::kInt;
    if (item.func == db::AggregateFunc::kMin ||
        item.func == db::AggregateFunc::kMax) {
      type = schema.column(schema.FindColumn(item.column)).type;
    }
    columns.push_back({AggregateName(item), type});
  }
  Table result("result", db::Schema(columns));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<Value> values;
    for (const SelectItem& item : statement.items) {
      if (item.kind == SelectItem::Kind::kColumn) {
        values.push_back(group_keys[g]);
        continue;
      }
      AggregateState state;
      if (item.column.empty()) {
        state.count = groups[g].size();
      } else {
        const std::size_t index = schema.FindColumn(item.column);
        for (std::size_t row : groups[g]) {
          state.Accumulate(table.Get(row, index));
        }
      }
      values.push_back(state.Finalize(item.func));
    }
    if (Status status = result.AppendRow(std::move(values)); !status.ok()) {
      return status;
    }
  }

  std::vector<std::size_t> kept;
  for (std::size_t row = 0; row < result.num_rows(); ++row) {
    if (statement.having == nullptr) {
      kept.push_back(row);
      continue;
    }
    StatusOr<std::optional<bool>> keep =
        EvaluateBool(*statement.having, result, row);
    if (!keep.ok()) return keep.status();
    if (keep.value().has_value() && *keep.value()) kept.push_back(row);
  }
  if (!statement.order_by_column.empty()) {
    const std::size_t order_index =
        result.schema().FindColumn(statement.order_by_column);
    if (order_index == db::Schema::kNotFound) {
      return Status::InvalidArgument(
          "ORDER BY column must appear in the aggregate select list");
    }
    StableSortRows(result, order_index, statement.order_descending, kept);
  }
  if (statement.limit.has_value() && kept.size() > *statement.limit) {
    kept.resize(*statement.limit);
  }
  Table final_result("result", result.schema());
  for (std::size_t row : kept) {
    std::vector<Value> values;
    for (std::size_t c = 0; c < result.schema().num_columns(); ++c) {
      values.push_back(result.Get(row, c));
    }
    if (Status status = final_result.AppendRow(std::move(values));
        !status.ok()) {
      return status;
    }
  }
  return final_result;
}

void CollectColumns(const Expr* expr, std::vector<std::string>& out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) out.push_back(expr->column);
  CollectColumns(expr->left.get(), out);
  CollectColumns(expr->right.get(), out);
}

StatusOr<Table> ReferenceSelect(const Table& table,
                                const SelectStatement& statement) {
  // Database::EnsureColumns without a resolver.
  std::vector<std::string> referenced;
  for (const SelectItem& item : statement.items) {
    if (!item.column.empty()) referenced.push_back(item.column);
  }
  CollectColumns(statement.where.get(), referenced);
  if (!statement.group_by_column.empty()) {
    referenced.push_back(statement.group_by_column);
  }
  if (!statement.order_by_column.empty() && !statement.HasAggregates()) {
    referenced.push_back(statement.order_by_column);
  }
  for (const std::string& column : referenced) {
    if (table.schema().FindColumn(column) == db::Schema::kNotFound) {
      return Status::NotFound("no such column: " + column +
                              " (and no schema-expansion resolver is set)");
    }
  }

  std::vector<std::size_t> rows;
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    if (statement.where == nullptr) {
      rows.push_back(row);
      continue;
    }
    StatusOr<std::optional<bool>> keep =
        EvaluateBool(*statement.where, table, row);
    if (!keep.ok()) return keep.status();
    if (keep.value().has_value() && *keep.value()) rows.push_back(row);
  }
  if (statement.HasAggregates()) {
    return ReferenceAggregates(table, statement, rows);
  }
  if (statement.having != nullptr) {
    return Status::InvalidArgument("HAVING requires aggregates");
  }
  const db::Schema& schema = table.schema();
  if (!statement.order_by_column.empty()) {
    StableSortRows(table, schema.FindColumn(statement.order_by_column),
                   statement.order_descending, rows);
  }
  if (statement.limit.has_value() && rows.size() > *statement.limit) {
    rows.resize(*statement.limit);
  }
  std::vector<std::size_t> projection;
  std::vector<ColumnDef> columns;
  if (statement.items.empty()) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      projection.push_back(c);
    }
    columns = schema.columns();
  } else {
    for (const SelectItem& item : statement.items) {
      projection.push_back(schema.FindColumn(item.column));
      columns.push_back(schema.column(projection.back()));
    }
  }
  Table result("result", db::Schema(columns));
  for (std::size_t row : rows) {
    std::vector<Value> values;
    for (std::size_t column : projection) {
      values.push_back(table.Get(row, column));
    }
    if (Status status = result.AppendRow(std::move(values)); !status.ok()) {
      return status;
    }
  }
  return result;
}

// ---- The generator.

// The plan-time errors a case holds: the executor raises them whether or
// not a row reaches them, the reference only when one does.
struct PlanErrors {
  bool mismatch = false;         // a string compared with a non-string
  bool non_boolean = false;      // a non-BOOL value as a condition
  bool unknown_having = false;   // a HAVING column the output lacks
};

struct Case {
  Table table;
  SelectStatement statement;
  PlanErrors plan_errors;
  // What the case exercises of the executor's typed bindings, by label:
  // its comparisons (see Reachable), its ORDER BY key type and a GROUP BY
  // over a BOOL column that holds NULLs.
  std::set<std::string> reached;
};

// Every label an equal-result case of each seed's sweep must reach: each
// column type against each operand kind, a literal on either side; a
// condition used as a value against a column and a literal; each ORDER BY
// key type; and the NULL slot of a BOOL GROUP BY.
std::vector<std::string> Reachable() {
  std::vector<std::string> labels = {
      "STRING column vs STRING literal on the left",
      "STRING column vs STRING literal on the right",
      "STRING column vs column", "ORDER BY STRING",
      "GROUP BY BOOL with NULLs"};
  for (const char* type : {"BOOL", "INT", "DOUBLE"}) {
    const std::string column = std::string(type) + " column vs ";
    for (const char* literal : {"BOOL", "INT", "DOUBLE"}) {
      labels.push_back(column + literal + " literal on the left");
      labels.push_back(column + literal + " literal on the right");
    }
    labels.push_back(column + "column");
    labels.push_back(column + "condition");
    labels.push_back(std::string("condition vs ") + type + " literal");
    labels.push_back(std::string("ORDER BY ") + type);
  }
  return labels;
}

Value RandomCell(Rng& rng, ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return Value(rng.Bernoulli(0.5));
    case ColumnType::kInt: {
      static const std::int64_t kInts[] = {-3, -1, 0, 1, 1, 2, 3, 7,
                                           9007199254740993LL};
      return Value(kInts[rng.UniformInt(std::size(kInts))]);
    }
    case ColumnType::kDouble: {
      // Int cells are storable in DOUBLE columns, where 2^53 + 1 becomes
      // the double 2^53; 1.0000001 and 1.0000002 print alike; -0.0 equals
      // 0.0.
      static const std::int64_t kInts[] = {-1, 0, 1, 2, 9007199254740992LL,
                                           9007199254740993LL};
      static const double kDoubles[] = {
          -1.5,      -0.0,      0.0, 0.5, 1.0, 1.0000001,
          1.0000002, 2.5, 9007199254740992.0};
      if (rng.Bernoulli(0.25)) {
        return Value(kInts[rng.UniformInt(std::size(kInts))]);
      }
      return Value(kDoubles[rng.UniformInt(std::size(kDoubles))]);
    }
    case ColumnType::kString: {
      static const char* kStrings[] = {"", "a", "b", "ab", "B", "NULL", "a b"};
      return Value(std::string(kStrings[rng.UniformInt(std::size(kStrings))]));
    }
  }
  return Value{};
}

// The cell of `type` most easily mistaken for NULL: 0, false, "" or -0.0.
Value ZeroCell(Rng& rng, ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return Value(false);
    case ColumnType::kInt:
      return Value(std::int64_t{0});
    case ColumnType::kDouble:
      return Value(rng.Bernoulli(0.5) ? 0.0 : -0.0);
    case ColumnType::kString:
      return Value(std::string());
  }
  return Value{};
}

// A literal of the class (string or number) `string` says, of any type in
// that class; NULL now and then.
Value RandomLiteral(Rng& rng, bool string) {
  if (rng.Bernoulli(0.05)) return Value{};
  if (string) return RandomCell(rng, ColumnType::kString);
  static const ColumnType kNumeric[] = {ColumnType::kBool, ColumnType::kInt,
                                        ColumnType::kDouble};
  return RandomCell(rng, kNumeric[rng.UniformInt(3)]);
}

bool IsStringValue(const Value& value) {
  return std::holds_alternative<Text>(value);
}

// Generates conditions over the columns of one schema (a table's, or an
// aggregate result's for HAVING).
class ConditionGenerator {
 public:
  ConditionGenerator(Rng& rng, std::vector<ColumnDef> columns, Case& out)
      : rng_(rng),
        columns_(std::move(columns)),
        errors_(out.plan_errors),
        reached_(out.reached) {}

  std::unique_ptr<Expr> Condition(int depth) {
    if (depth <= 0 || rng_.Bernoulli(0.35)) return Leaf();
    switch (rng_.UniformInt(3)) {
      case 0:
        return Expr::Not(Condition(depth - 1));
      case 1:
        return Expr::Binary(BinaryOp::kAnd, Condition(depth - 1),
                            Condition(depth - 1));
      default:
        return Expr::Binary(BinaryOp::kOr, Condition(depth - 1),
                            Condition(depth - 1));
    }
  }

  // Adds `name`, a column the schema lacks, to be referenced now and then.
  void AddUnknownColumn(std::string name) { unknown_ = std::move(name); }

 private:
  // One side of a comparison: its expression, what it is ("INT column",
  // "condition", "NULL literal", ...; empty for an unknown column) and
  // whether its values are strings.
  struct Side {
    std::unique_ptr<Expr> expr;
    std::string kind;
    bool string = false;
    bool column = false;
  };

  Side ColumnRef() {
    if (!unknown_.empty() && rng_.Bernoulli(0.03)) {
      errors_.unknown_having = true;
      return {Expr::Column(unknown_), "", false, true};
    }
    const ColumnDef& column = columns_[rng_.UniformInt(columns_.size())];
    return {Expr::Column(column.name),
            std::string(db::ColumnTypeName(column.type)) + " column",
            column.type == ColumnType::kString, true};
  }

  static Side LiteralSide(const Value& literal) {
    return {Expr::Literal(literal),
            std::string(db::IsNull(literal)
                            ? "NULL"
                            : db::ColumnTypeName(db::TypeOf(literal))) +
                " literal",
            IsStringValue(literal), false};
  }

  std::unique_ptr<Expr> Leaf() {
    const double kind = rng_.Uniform();
    if (kind < 0.08) {  // a bare column or literal as the condition
      if (rng_.Bernoulli(0.5)) {
        const ColumnDef& column = columns_[rng_.UniformInt(columns_.size())];
        if (column.type != ColumnType::kBool) errors_.non_boolean = true;
        return Expr::Column(column.name);
      }
      const Value literal = rng_.Bernoulli(0.8)
                                ? Value(rng_.Bernoulli(0.5))
                                : RandomLiteral(rng_, rng_.Bernoulli(0.5));
      if (!db::IsNull(literal) && !std::holds_alternative<bool>(literal)) {
        errors_.non_boolean = true;
      }
      return Expr::Literal(literal);
    }
    static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};
    const BinaryOp op = kOps[rng_.UniformInt(std::size(kOps))];
    Side left = ColumnRef();
    if (rng_.Bernoulli(0.15)) {  // a condition as a value: TRUE 1, FALSE 0
      left = {Expr::Not(Leaf()), "condition"};
    }
    Side right;
    // Column against column; a condition against a column now and then.
    if (kind < 0.3 || (!left.column && rng_.Bernoulli(0.3))) {
      right = ColumnRef();
    } else {  // column against a literal, mostly of the column's class
      const bool string = rng_.Bernoulli(0.06) ? !left.string : left.string;
      right = LiteralSide(RandomLiteral(rng_, string));
    }
    if (right.kind != "NULL literal" && left.string != right.string) {
      errors_.mismatch = true;
    }
    const bool swap = rng_.Bernoulli(0.3);
    if (right.column) {
      reached_.insert(right.kind + " vs " +
                      (left.column ? "column" : left.kind));
      if (left.column) reached_.insert(left.kind + " vs column");
    } else if (left.column) {
      reached_.insert(left.kind + " vs " + right.kind + " on the " +
                      (swap ? "left" : "right"));
    } else {
      reached_.insert(left.kind + " vs " + right.kind);
    }
    if (swap) std::swap(left, right);
    return Expr::Binary(op, std::move(left.expr), std::move(right.expr));
  }

  Rng& rng_;
  std::vector<ColumnDef> columns_;
  PlanErrors& errors_;
  std::set<std::string>& reached_;
  std::string unknown_;
};

std::string Name(std::size_t index) { return "c" + std::to_string(index); }

Case RandomCase(std::uint64_t seed) {
  Rng rng(seed);
  Case out;

  // Schema and table.
  static const ColumnType kTypes[] = {ColumnType::kBool, ColumnType::kInt,
                                      ColumnType::kDouble,
                                      ColumnType::kString};
  std::vector<ColumnDef> columns;
  const std::size_t num_columns = 1 + rng.UniformInt(4);
  for (std::size_t c = 0; c < num_columns; ++c) {
    columns.push_back({Name(c), kTypes[rng.UniformInt(4)]});
  }
  std::vector<double> null_rate;
  // Share of a column's non-NULL cells that are ZeroCell: in some columns
  // half of them, beside the NULLs.
  std::vector<double> zero_rate;
  for (std::size_t c = 0; c < num_columns; ++c) {
    static const double kRates[] = {0.0, 0.15, 0.15, 0.5, 1.0};
    null_rate.push_back(kRates[rng.UniformInt(std::size(kRates))]);
    zero_rate.push_back(rng.Bernoulli(0.3) ? 0.5 : 0.0);
  }
  // Mostly 0-200 rows; one table in ten spans two to four 1,024-row
  // chunks of the executor's scan.
  std::size_t num_rows = rng.UniformInt(201);
  if (rng.Bernoulli(0.2)) num_rows = rng.UniformInt(4);
  if (rng.Bernoulli(0.1)) num_rows = 1025 + rng.UniformInt(2048);
  out.table = Table("t", db::Schema(columns));
  for (std::size_t row = 0; row < num_rows; ++row) {
    std::vector<Value> cells;
    for (std::size_t c = 0; c < num_columns; ++c) {
      if (rng.Bernoulli(null_rate[c])) {
        cells.emplace_back();
      } else if (rng.Bernoulli(zero_rate[c])) {
        cells.push_back(ZeroCell(rng, columns[c].type));
      } else {
        cells.push_back(RandomCell(rng, columns[c].type));
      }
    }
    CCDB_CHECK(out.table.AppendRow(std::move(cells)).ok());
  }

  // Statement.
  SelectStatement& statement = out.statement;
  statement.table = "t";
  if (rng.Bernoulli(0.7)) {
    ConditionGenerator where(rng, columns, out);
    statement.where = where.Condition(static_cast<int>(rng.UniformInt(4)));
  }
  std::vector<ColumnDef> output;  // what HAVING and ORDER BY may name
  if (rng.Bernoulli(0.6)) {
    // Plain columns, distinct, or `*`.
    if (rng.Bernoulli(0.7)) {
      std::vector<std::size_t> order(num_columns);
      std::iota(order.begin(), order.end(), std::size_t{0});
      rng.Shuffle(order);
      order.resize(1 + rng.UniformInt(num_columns));
      for (std::size_t c : order) {
        statement.items.push_back(SelectItem::Column(Name(c)));
      }
    }
    if (rng.Bernoulli(0.5)) {
      const std::size_t c = rng.UniformInt(num_columns);
      statement.order_by_column = Name(c);
      out.reached.insert(std::string("ORDER BY ") +
                         db::ColumnTypeName(columns[c].type));
    }
    if (rng.Bernoulli(0.03)) statement.having = Expr::Literal(Value(true));
  } else {
    // Aggregates, grouped or not.
    if (rng.Bernoulli(0.7)) {
      const std::size_t g = rng.UniformInt(num_columns);
      statement.group_by_column = Name(g);
      const std::vector<Value>& keys = out.table.Column(g);
      if (columns[g].type == ColumnType::kBool &&
          std::any_of(keys.begin(), keys.end(), db::IsNull)) {
        out.reached.insert("GROUP BY BOOL with NULLs");
      }
      if (rng.Bernoulli(0.8)) {
        statement.items.push_back(SelectItem::Column(Name(g)));
        output.push_back(columns[g]);
      }
    }
    if (rng.Bernoulli(0.04)) {  // a plain column outside GROUP BY
      const std::string name = Name(rng.UniformInt(num_columns));
      if (name != statement.group_by_column) {
        statement.items.push_back(SelectItem::Column(name));
      }
    }
    const std::size_t num_aggregates = 1 + rng.UniformInt(3);
    for (std::size_t k = 0; k < num_aggregates; ++k) {
      const auto func = static_cast<db::AggregateFunc>(rng.UniformInt(5));
      const bool star = func == db::AggregateFunc::kCount && rng.Bernoulli(0.4);
      const std::size_t c = rng.UniformInt(num_columns);
      const SelectItem item =
          SelectItem::Aggregate(func, star ? std::string() : Name(c));
      const std::string name = AggregateName(item);
      if (std::any_of(output.begin(), output.end(),
                      [&](const ColumnDef& o) { return o.name == name; })) {
        continue;  // output names must be distinct
      }
      ColumnType type = columns[c].type;
      if (func == db::AggregateFunc::kCount) type = ColumnType::kInt;
      if (func == db::AggregateFunc::kSum || func == db::AggregateFunc::kAvg) {
        if (columns[c].type == ColumnType::kString && !rng.Bernoulli(0.1)) {
          continue;  // SUM/AVG of a string is an error; keep it rare
        }
        type = ColumnType::kDouble;
      }
      statement.items.push_back(item);
      output.push_back({name, type});
    }
    if (!output.empty() && rng.Bernoulli(0.4)) {
      ConditionGenerator having(rng, output, out);
      const std::string table_column = Name(rng.UniformInt(num_columns));
      if (std::none_of(output.begin(), output.end(), [&](const ColumnDef& o) {
            return o.name == table_column;
          })) {
        having.AddUnknownColumn(table_column);
      }
      statement.having = having.Condition(static_cast<int>(rng.UniformInt(3)));
    }
    if (!output.empty() && rng.Bernoulli(0.5)) {
      if (rng.Bernoulli(0.05)) {
        statement.order_by_column = "nothing";
      } else {
        const ColumnDef& key = output[rng.UniformInt(output.size())];
        statement.order_by_column = key.name;
        out.reached.insert(std::string("ORDER BY ") +
                           db::ColumnTypeName(key.type));
      }
    }
  }
  statement.order_descending = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) {
    static const std::size_t kLimits[] = {1000, 1500};
    statement.limit = rng.Bernoulli(0.2) ? kLimits[rng.UniformInt(2)]
                                         : rng.UniformInt(13);
  }
  return out;
}

// ---- Rendering, for the failure message.

std::string Literal(const Value& value) {
  if (db::IsNull(value)) return "NULL";
  if (const Text* s = std::get_if<Text>(&value)) {
    std::string quoted = "'";
    for (char c : s->view()) {
      quoted += c == '\'' ? std::string("''") : std::string(1, c);
    }
    return quoted + "'";
  }
  if (const double* d = std::get_if<double>(&value)) {
    std::ostringstream oss;
    oss.precision(17);
    oss << *d;
    const std::string text = oss.str();
    // A literal without a point parses as an INT.
    return text.find_first_of(".en") == std::string::npos ? text + ".0"
                                                          : text;
  }
  return db::ToString(value);
}

std::string Render(const Expr& expr) {
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">=", "AND", "OR"};
  switch (expr.kind) {
    case Expr::Kind::kColumn:
      return expr.column;
    case Expr::Kind::kLiteral:
      return Literal(expr.literal);
    case Expr::Kind::kNot:
      return "NOT (" + Render(*expr.left) + ")";
    case Expr::Kind::kBinary:
      return "(" + Render(*expr.left) + " " +
             kOps[static_cast<int>(expr.op)] + " " + Render(*expr.right) +
             ")";
  }
  return "?";
}

std::string Render(const SelectStatement& statement) {
  std::string sql = "SELECT ";
  if (statement.items.empty()) sql += "*";
  for (std::size_t i = 0; i < statement.items.size(); ++i) {
    const SelectItem& item = statement.items[i];
    if (i > 0) sql += ", ";
    sql += item.kind == SelectItem::Kind::kColumn ? item.column
                                                  : AggregateName(item);
  }
  sql += " FROM " + statement.table;
  if (statement.where) sql += " WHERE " + Render(*statement.where);
  if (!statement.group_by_column.empty()) {
    sql += " GROUP BY " + statement.group_by_column;
  }
  if (statement.having) sql += " HAVING " + Render(*statement.having);
  if (!statement.order_by_column.empty()) {
    sql += " ORDER BY " + statement.order_by_column;
    if (statement.order_descending) sql += " DESC";
  }
  if (statement.limit.has_value()) {
    sql += " LIMIT " + std::to_string(*statement.limit);
  }
  return sql;
}

std::string Describe(std::uint64_t seed, const Case& c) {
  std::ostringstream oss;
  oss << "case seed " << seed << "; replay it alone with\n"
      << "  CCDB_SQL_ORACLE_CASE=" << seed
      << " build/tests/property_test --gtest_filter='Seeds/SqlExecutorOracle.*/0'\n"
      << "schema:";
  for (const ColumnDef& column : c.table.schema().columns()) {
    oss << " " << column.name << " " << db::ColumnTypeName(column.type);
  }
  oss << "\nstatement: " << Render(c.statement) << "\ntable ("
      << c.table.num_rows() << " rows):\n";
  for (std::size_t row = 0; row < c.table.num_rows(); ++row) {
    oss << "  " << row << ":";
    for (std::size_t col = 0; col < c.table.schema().num_columns(); ++col) {
      oss << " " << Literal(c.table.Get(row, col));
    }
    oss << "\n";
  }
  return oss.str();
}

// ---- Comparison.

// A result row, each cell with its alternative so 1 and 1.0 differ.
std::string RowKey(const Table& table, std::size_t row) {
  std::string key;
  for (std::size_t c = 0; c < table.schema().num_columns(); ++c) {
    const Value& cell = table.Get(row, c);
    key += std::to_string(cell.index()) + ":" + Literal(cell) + "|";
  }
  return key;
}

std::vector<std::string> Rows(const Table& table) {
  std::vector<std::string> rows;
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    rows.push_back(RowKey(table, row));
  }
  return rows;
}

bool IsPlanError(const Status& status, const PlanErrors& errors) {
  if (status.code() == StatusCode::kInvalidArgument) {
    return (errors.mismatch &&
            status.message() ==
                "type mismatch: cannot compare string with non-string") ||
           (errors.non_boolean &&
            status.message() == "non-Boolean value used as a condition");
  }
  return errors.unknown_having && status.code() == StatusCode::kNotFound &&
         status.message().rfind("no such column: ", 0) == 0;
}

enum class Outcome { kSameResult, kSameError, kPlanTimeError };

// Checks one case; returns how it compared, and adds what an equal-result
// case reached to `reached`.
Outcome CheckCase(std::uint64_t seed, std::set<std::string>& reached) {
  const Case c = RandomCase(seed);
  const StatusOr<Table> expected = ReferenceSelect(c.table, c.statement);
  db::Database database;
  CCDB_CHECK(database.AddTable(c.table).ok());
  const StatusOr<Table> actual = database.ExecuteSelect(c.statement);

  if (expected.ok() && actual.ok()) {
    const Table& want = expected.value();
    const Table& got = actual.value();
    EXPECT_EQ(got.schema().num_columns(), want.schema().num_columns())
        << Describe(seed, c);
    for (std::size_t i = 0; i < std::min(got.schema().num_columns(),
                                         want.schema().num_columns());
         ++i) {
      EXPECT_EQ(got.schema().column(i).name, want.schema().column(i).name)
          << Describe(seed, c);
      EXPECT_EQ(got.schema().column(i).type, want.schema().column(i).type)
          << Describe(seed, c);
    }
    std::vector<std::string> want_rows = Rows(want);
    std::vector<std::string> got_rows = Rows(got);
    // Without ORDER BY the order is row order (or first-seen group order);
    // with it, a stable sort's. Either way the sequence is fixed, so a
    // multiset match that fails as a sequence is an ordering fault.
    EXPECT_EQ(got_rows, want_rows)
        << (std::is_permutation(got_rows.begin(), got_rows.end(),
                                want_rows.begin(), want_rows.end())
                ? "same rows in another order\n"
                : "different rows\n")
        << Describe(seed, c);
    reached.insert(c.reached.begin(), c.reached.end());
    return Outcome::kSameResult;
  }
  if (!actual.ok() && !expected.ok() &&
      actual.status().code() == expected.status().code() &&
      actual.status().message() == expected.status().message()) {
    return Outcome::kSameError;
  }
  // The one contract change: the executor raises a plan-time error that
  // the reference did not, because no row reached it.
  EXPECT_FALSE(actual.ok())
      << "the reference failed with " << expected.status().ToString()
      << " but the executor did not\n"
      << Describe(seed, c);
  if (!actual.ok()) {
    EXPECT_TRUE(IsPlanError(actual.status(), c.plan_errors))
        << "executor: " << actual.status().ToString() << "\nreference: "
        << (expected.ok() ? std::string("OK") : expected.status().ToString())
        << "\n"
        << Describe(seed, c);
  }
  return Outcome::kPlanTimeError;
}

}  // namespace sqloracle

class SqlExecutorOracle : public ::testing::TestWithParam<std::uint64_t> {};

// 600 cases per seed; CCDB_SQL_ORACLE_CASE=<case seed> runs one case.
TEST_P(SqlExecutorOracle, MatchesRowAtATimeReference) {
  std::set<std::string> reached;
  if (const char* only = std::getenv("CCDB_SQL_ORACLE_CASE")) {
    sqloracle::CheckCase(std::strtoull(only, nullptr, 10), reached);
    return;
  }
  std::size_t outcomes[3] = {0, 0, 0};
  for (std::uint64_t i = 0; i < 600 && !HasFailure(); ++i) {
    ++outcomes[static_cast<int>(
        sqloracle::CheckCase(GetParam() * 1000000 + i, reached))];
  }
  // The sweep reaches all three outcomes: equal results, equal errors and
  // the plan-time errors the reference never reached; and its equal
  // results reach every typed binding of the executor.
  EXPECT_GT(outcomes[0], 300u);
  EXPECT_GT(outcomes[1], 0u);
  EXPECT_GT(outcomes[2], 0u);
  for (const std::string& label : sqloracle::Reachable()) {
    EXPECT_TRUE(reached.contains(label))
        << "no equal-result case reached " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlExecutorOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ----------------------------------------------------- SGD step property

class SgdStepProperty : public ::testing::TestWithParam<int> {};

TEST_P(SgdStepProperty, SmallStepReducesSingleRatingError) {
  // For a small enough learning rate, one SGD step on a rating must not
  // increase that rating's squared error (local descent property).
  Rng rng(200 + GetParam());
  std::vector<Rating> ratings;
  for (int i = 0; i < 50; ++i) {
    ratings.push_back({static_cast<std::uint32_t>(rng.UniformInt(10)),
                       static_cast<std::uint32_t>(rng.UniformInt(20)),
                       static_cast<float>(1.0 + rng.UniformInt(5))});
  }
  RatingDataset data(10, 20, ratings);
  for (auto kind : {factorization::ModelKind::kEuclideanEmbedding,
                    factorization::ModelKind::kSvdDotProduct}) {
    factorization::FactorModelConfig config;
    config.kind = kind;
    config.dims = 4;
    config.lambda = 0.0;  // pure error descent
    config.seed = 300 + GetParam();
    factorization::FactorModel model(config, data);
    for (const Rating& rating : data.ratings()) {
      const double before = rating.score - model.Predict(rating.item,
                                                         rating.user);
      model.SgdStep(rating, 1e-4);
      const double after = rating.score - model.Predict(rating.item,
                                                        rating.user);
      ASSERT_LE(after * after, before * before + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Repetitions, SgdStepProperty,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace ccdb
