// Google-benchmark micro benchmarks for the performance-critical kernels:
// SGD training throughput, SMO training, RBF batch prediction and labels,
// kNN queries, majority voting, and SQL parsing. These quantify the costs the
// paper's performance argument rests on (space build is offline; per-query
// extraction is milliseconds).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "crowd/aggregation.h"
#include "data/domains.h"
#include "db/sql_parser.h"
#include "eval/neighbors.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"
#include "lsi/lsi.h"
#include "svm/classifier.h"

namespace {

using namespace ccdb;  // NOLINT

const data::SyntheticWorld& TinyWorld() {
  static const data::SyntheticWorld* const kWorld = [] {
    data::WorldConfig config = data::TinyConfig();
    config.num_items = 1000;
    config.num_users = 2000;
    config.mean_ratings_per_user = 60.0;
    return new data::SyntheticWorld(config);
  }();
  return *kWorld;
}

const RatingDataset& TinyRatings() {
  static const RatingDataset* const kRatings =
      new RatingDataset(TinyWorld().SampleRatings());
  return *kRatings;
}

const core::PerceptualSpace& TinySpace() {
  static const core::PerceptualSpace* const kSpace = [] {
    core::PerceptualSpaceOptions options;
    options.model.dims = 50;
    options.trainer.max_epochs = 8;
    return new core::PerceptualSpace(
        core::PerceptualSpace::Build(TinyRatings(), options));
  }();
  return *kSpace;
}

void BM_SgdEpoch(benchmark::State& state) {
  const RatingDataset& ratings = TinyRatings();
  factorization::FactorModelConfig config;
  config.dims = static_cast<std::size_t>(state.range(0));
  factorization::FactorModel model(config, ratings);
  for (auto _ : state) {
    for (const Rating& rating : ratings.ratings()) {
      model.SgdStep(rating, 0.02);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ratings.num_ratings()));
}
BENCHMARK(BM_SgdEpoch)->Arg(25)->Arg(100);

// One SGD pass at the sql_expand_100k shape, larger than L2: 100,000 items
// and 15,000 users at d = 32 (29 MB of rows) and ~590K ratings in one
// shuffled order, as TrainSgd visits them. An item is one rating.
struct ShuffledPass {
  RatingDataset ratings;
  std::vector<std::size_t> order;
};

const ShuffledPass& Shape100k() {
  static const ShuffledPass* const kPass = [] {
    data::WorldConfig config = data::MoviesConfig(1.0);
    config.num_items = 100000;
    config.mean_ratings_per_user = 40.0;
    auto* pass =
        new ShuffledPass{data::SyntheticWorld(config).SampleRatings(), {}};
    pass->order.resize(pass->ratings.num_ratings());
    std::iota(pass->order.begin(), pass->order.end(), std::size_t{0});
    Rng rng(7);
    rng.Shuffle(pass->order);
    return pass;
  }();
  return *kPass;
}

factorization::FactorModel Model100k(const RatingDataset& ratings) {
  factorization::FactorModelConfig config;
  config.dims = 32;
  return factorization::FactorModel(config, ratings);
}

/// The pass SgdEpoch replaced: one SgdStep after another, no look-ahead.
void BM_SgdEpochShuffledPlain(benchmark::State& state) {
  const ShuffledPass& pass = Shape100k();
  factorization::FactorModel model = Model100k(pass.ratings);
  const auto ratings = pass.ratings.ratings();
  for (auto _ : state) {
    for (std::size_t idx : pass.order) model.SgdStep(ratings[idx], 0.01);
    benchmark::DoNotOptimize(model.item_factors().Data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pass.order.size()));
}
BENCHMARK(BM_SgdEpochShuffledPlain);

void BM_SgdEpochShuffled(benchmark::State& state) {
  const ShuffledPass& pass = Shape100k();
  factorization::FactorModel model = Model100k(pass.ratings);
  for (auto _ : state) {
    model.SgdEpoch(pass.ratings, pass.order, 0.01);
    benchmark::DoNotOptimize(model.item_factors().Data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pass.order.size()));
}
BENCHMARK(BM_SgdEpochShuffled);

// Clean labels keep few support vectors; the last row is the shape of a
// serve_paper gold sample (1,000 crowd-labeled items, d=32), where label
// noise turns most examples into support vectors and SMO runs thousands
// of iterations.
void BM_SmoTrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = static_cast<std::size_t>(state.range(1));
  const double flip = static_cast<double>(state.range(2)) / 100.0;
  Rng rng(5);
  Matrix x(n, dims);
  x.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (x(i, 0) > 0) != rng.Bernoulli(flip) ? 1 : -1;
  }
  svm::ClassifierOptions options;
  options.cost = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm::TrainClassifier(x, y, options));
  }
}
BENCHMARK(BM_SmoTrain)
    ->ArgNames({"n", "d", "flip_pct"})
    ->Args({80, 50, 0})
    ->Args({400, 50, 0})
    ->Args({1000, 32, 10});

void BM_RbfPredictAll(benchmark::State& state) {
  const core::PerceptualSpace& space = TinySpace();
  const std::vector<bool>& labels = TinyWorld().GenreLabels(0);
  std::vector<std::uint32_t> items;
  std::vector<bool> sample_labels;
  for (std::uint32_t m = 0; m < 80; ++m) {
    items.push_back(m);
    sample_labels.push_back(labels[m]);
  }
  core::BinaryAttributeExtractor extractor;
  extractor.Train(space, items, sample_labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.ExtractAll(space));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(space.num_items()));
}
BENCHMARK(BM_RbfPredictAll);

void BM_KnnQuery(benchmark::State& state) {
  const core::PerceptualSpace& space = TinySpace();
  std::uint32_t query = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.NearestNeighbors(query, 5));
    query = (query + 1) % space.num_items();
  }
}
BENCHMARK(BM_KnnQuery);

void BM_MajorityVote(benchmark::State& state) {
  Rng rng(9);
  std::vector<crowd::Judgment> judgments(10000);
  for (auto& judgment : judgments) {
    judgment.item = static_cast<std::uint32_t>(rng.UniformInt(1000));
    judgment.answer = rng.Bernoulli(0.5) ? crowd::Answer::kPositive
                                         : crowd::Answer::kNegative;
    judgment.timestamp_minutes = rng.Uniform(0, 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crowd::MajorityVote(judgments, 1000, 50.0));
  }
}
BENCHMARK(BM_MajorityVote);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT name, year FROM movies WHERE (is_comedy = true AND humor >= "
      "8) OR NOT genre = 'horror' ORDER BY humor DESC LIMIT 25";
  for (auto _ : state) {
    benchmark::DoNotOptimize(db::ParseSelect(sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_LsiBuild(benchmark::State& state) {
  Rng rng(11);
  std::vector<lsi::Document> documents(500);
  for (auto& doc : documents) {
    for (int t = 0; t < 12; ++t) {
      doc.push_back("tok" + std::to_string(rng.UniformInt(2000)));
    }
  }
  lsi::LsiOptions options;
  options.dims = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsi::BuildLsiSpace(documents, options));
  }
}
BENCHMARK(BM_LsiBuild);

// ---------------------------------------------------------------------
// Paper-scale numeric-core pairs. Each *Scalar benchmark re-implements the
// pre-vectorization algorithm (single-accumulator loops, per-item kernel
// evaluation, sqrt per kNN candidate, serial sweeps), and
// BM_DotQuadSweepOneRow the one-row quad sweep, so BENCH_perf.json can
// report before/after speedups from one binary; the paired benchmark runs
// the shipped path. Scale follows the paper's MovieLens setup: d = 40
// factor dimensions, ~10k items (the quad sweep uses the serve_paper
// shape instead).

constexpr std::size_t kPaperItems = 10000;
constexpr std::size_t kPaperDims = 40;
constexpr std::size_t kPaperSvs = 400;

/// 10k×40 item-coordinate matrix (drawn directly rather than SGD-trained:
/// these benchmarks time the numeric core, not the factorization).
const Matrix& PaperScalePoints() {
  static const Matrix* const kPoints = [] {
    Rng rng(71);
    auto* points = new Matrix(kPaperItems, kPaperDims);
    points->FillGaussian(rng, 0.0, 1.0);
    return points;
  }();
  return *kPoints;
}

struct SyntheticExpansion {
  Matrix svs;
  std::vector<double> coefficients;
  double rho = 0.3;
  svm::KernelConfig kernel;
  svm::SvmModel model;
};

const SyntheticExpansion& PaperScaleExpansion() {
  static const SyntheticExpansion* const kExpansion = [] {
    Rng rng(73);
    auto* e = new SyntheticExpansion();
    e->svs = Matrix(kPaperSvs, kPaperDims);
    e->svs.FillGaussian(rng, 0.0, 1.0);
    e->coefficients.resize(kPaperSvs);
    for (auto& c : e->coefficients) c = rng.Gaussian(0.0, 0.7);
    e->kernel.gamma = 1.0 / static_cast<double>(kPaperDims);
    e->model = svm::SvmModel(e->svs, e->coefficients, e->rho, e->kernel);
    return e;
  }();
  return *kExpansion;
}

double ScalarDot(std::span<const double> x, std::span<const double> y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double ScalarSquaredDistance(std::span<const double> x,
                             std::span<const double> y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double diff = x[i] - y[i];
    sum += diff * diff;
  }
  return sum;
}

void BM_DotRowsScalar(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  const auto x = points.Row(0);
  std::vector<double> out(points.rows());
  for (auto _ : state) {
    for (std::size_t r = 0; r < points.rows(); ++r) {
      out[r] = ScalarDot(points.Row(r), x);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_DotRowsScalar);

void BM_DotRowsBatched(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  const auto x = points.Row(0);
  std::vector<double> out(points.rows());
  for (auto _ : state) {
    DotBatch(points.Data(), points.rows(), points.cols(), x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_DotRowsBatched);

// The extract-all dot sweep at the serve_paper shape: 746 support vectors
// (d = 32) against every item quad of a 10,562-item catalog, one
// DotBatchQuad call per quad. An item is one (support vector, quad) pair.
constexpr std::size_t kSweepRows = 746;
constexpr std::size_t kSweepItems = 10562;
constexpr std::size_t kSweepDims = 32;

struct QuadSweep {
  Matrix rows;
  std::vector<double> quads;  // the InterleaveQuad packing of each quad
  std::size_t num_quads = 0;
};

const QuadSweep& ServeShapeSweep() {
  static const QuadSweep* const kSweep = [] {
    Rng rng(83);
    auto* sweep = new QuadSweep();
    sweep->rows = Matrix(kSweepRows, kSweepDims);
    sweep->rows.FillGaussian(rng, 0.0, 1.0);
    Matrix items(kSweepItems, kSweepDims);
    items.FillGaussian(rng, 0.0, 1.0);
    sweep->num_quads = kSweepItems / 4;
    sweep->quads.resize(sweep->num_quads * 4 * kSweepDims);
    for (std::size_t g = 0; g < sweep->num_quads; ++g) {
      InterleaveQuad(items.Row(4 * g), items.Row(4 * g + 1),
                     items.Row(4 * g + 2), items.Row(4 * g + 3),
                     std::span(sweep->quads)
                         .subspan(g * 4 * kSweepDims, 4 * kSweepDims));
    }
    return sweep;
  }();
  return *kSweep;
}

/// The one-row DotBatchQuad it replaced: one row per pass, four
/// accumulator chains of four query lanes each.
inline void OneRowDotQuadCore(const double* row, const double* xq,
                              std::size_t n, double* out4) {
  double acc0[4] = {0.0, 0.0, 0.0, 0.0};
  double acc1[4] = {0.0, 0.0, 0.0, 0.0};
  double acc2[4] = {0.0, 0.0, 0.0, 0.0};
  double acc3[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double r0 = row[i], r1 = row[i + 1], r2 = row[i + 2],
                 r3 = row[i + 3];
    for (std::size_t q = 0; q < 4; ++q) acc0[q] += r0 * xq[i * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc1[q] += r1 * xq[(i + 1) * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc2[q] += r2 * xq[(i + 2) * 4 + q];
    for (std::size_t q = 0; q < 4; ++q) acc3[q] += r3 * xq[(i + 3) * 4 + q];
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < n; ++i) {
    const double r = row[i];
    for (std::size_t q = 0; q < 4; ++q) tail[q] += r * xq[i * 4 + q];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    out4[q] = ((acc0[q] + acc1[q]) + (acc2[q] + acc3[q])) + tail[q];
  }
}

/// Out of line with run-time sizes (no inlining, no constant propagation),
/// as the library call is.
[[gnu::noipa]] void OneRowDotBatchQuad(std::span<const double> rows,
                                       std::size_t num_rows, std::size_t cols,
                                       std::span<const double> xq,
                                       std::span<double> out) {
  const double* row = rows.data();
  for (std::size_t r = 0; r < num_rows; ++r, row += cols) {
    OneRowDotQuadCore(row, xq.data(), cols, out.data() + r * 4);
  }
}

void BM_DotQuadSweepOneRow(benchmark::State& state) {
  const QuadSweep& sweep = ServeShapeSweep();
  std::vector<double> out(4 * kSweepRows);
  for (auto _ : state) {
    for (std::size_t g = 0; g < sweep.num_quads; ++g) {
      OneRowDotBatchQuad(sweep.rows.Data(), kSweepRows, kSweepDims,
                         std::span(sweep.quads)
                             .subspan(g * 4 * kSweepDims, 4 * kSweepDims),
                         out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kSweepRows * sweep.num_quads));
}
BENCHMARK(BM_DotQuadSweepOneRow);

void BM_DotQuadSweep(benchmark::State& state) {
  const QuadSweep& sweep = ServeShapeSweep();
  std::vector<double> out(4 * kSweepRows);
  for (auto _ : state) {
    for (std::size_t g = 0; g < sweep.num_quads; ++g) {
      DotBatchQuad(sweep.rows.Data(), kSweepRows, kSweepDims,
                   std::span(sweep.quads)
                       .subspan(g * 4 * kSweepDims, 4 * kSweepDims),
                   out);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kSweepRows * sweep.num_quads));
}
BENCHMARK(BM_DotQuadSweep);

// The extract sweep's two label paths at the serve_paper shape: a C-SVC
// trained on a 1,000-item gold sample with 10% flipped labels (C = 10,
// about 740 support vectors at d = 32) labels 10,562 items. Both run on
// 256-row slices; a slice is one expansion block, so every call runs
// serially and the pair's ratio measures the work, not the host's
// parallel speed-up. An item is one label.
constexpr std::size_t kLabelSliceRows = 256;

struct LabelSweep {
  svm::SvmModel model;
  std::vector<Matrix> slices;
  /// Each slice prepared for the sign filter, once, as a perceptual space
  /// prepares its items.
  std::vector<svm::LabelPoints> prepared;
};

const LabelSweep* MakeLabelSweep(std::size_t dims) {
  Rng rng(89);
  Matrix gold(1000, dims);
  gold.FillGaussian(rng, 0.0, 1.0);
  std::vector<std::int8_t> labels(gold.rows());
  for (std::size_t i = 0; i < gold.rows(); ++i) {
    labels[i] = (gold(i, 0) > 0) != rng.Bernoulli(0.1) ? 1 : -1;
  }
  svm::ClassifierOptions options;
  options.cost = 10.0;
  auto* sweep =
      new LabelSweep{svm::TrainClassifier(gold, labels, options), {}, {}};
  Matrix items(kSweepItems, dims);
  items.FillGaussian(rng, 0.0, 1.0);
  for (std::size_t lo = 0; lo < kSweepItems; lo += kLabelSliceRows) {
    Matrix slice(std::min(kLabelSliceRows, kSweepItems - lo), dims);
    for (std::size_t i = 0; i < slice.rows(); ++i) {
      std::copy_n(items.Row(lo + i).begin(), dims, slice.Row(i).begin());
    }
    sweep->prepared.emplace_back(slice);
    sweep->slices.push_back(std::move(slice));
  }
  return sweep;
}

const LabelSweep& ServeShapeLabels(std::size_t dims) {
  if (dims == kSweepDims) {
    static const LabelSweep* const kSweep = MakeLabelSweep(kSweepDims);
    return *kSweep;
  }
  static const LabelSweep* const kWide = MakeLabelSweep(100);
  return *kWide;
}

/// The path LabelsInto replaced: exact decision values, then f ≥ 0.
void BM_ExtractLabelsExact(benchmark::State& state) {
  const LabelSweep& sweep =
      ServeShapeLabels(static_cast<std::size_t>(state.range(0)));
  std::vector<double> values(kLabelSliceRows);
  const auto labels = std::make_unique<bool[]>(kLabelSliceRows);
  for (auto _ : state) {
    for (const Matrix& slice : sweep.slices) {
      sweep.model.DecisionValuesInto(
          slice, StopCondition(), std::span(values).first(slice.rows()));
      for (std::size_t i = 0; i < slice.rows(); ++i) {
        labels[i] = values[i] >= 0.0;
      }
      benchmark::DoNotOptimize(labels.get());
      benchmark::ClobberMemory();
    }
  }
  state.counters["support_vectors"] =
      static_cast<double>(sweep.model.num_support_vectors());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepItems));
}
BENCHMARK(BM_ExtractLabelsExact)->ArgName("d")->Arg(32)->Arg(100);

void BM_ExtractLabels(benchmark::State& state) {
  const LabelSweep& sweep =
      ServeShapeLabels(static_cast<std::size_t>(state.range(0)));
  const auto labels = std::make_unique<bool[]>(kLabelSliceRows);
  for (auto _ : state) {
    for (std::size_t k = 0; k < sweep.slices.size(); ++k) {
      const Matrix& slice = sweep.slices[k];
      sweep.model.LabelsInto(slice, sweep.prepared[k], StopCondition(),
                             std::span(labels.get(), slice.rows()));
      benchmark::DoNotOptimize(labels.get());
      benchmark::ClobberMemory();
    }
  }
  state.counters["support_vectors"] =
      static_cast<double>(sweep.model.num_support_vectors());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSweepItems));
}
BENCHMARK(BM_ExtractLabels)->ArgName("d")->Arg(32)->Arg(100);

void BM_RbfKernelRowScalar(benchmark::State& state) {
  // One Q-matrix-style kernel row: K(row_r, x) for all 10k rows, the
  // pre-norm-trick way (one squared distance + exp per row).
  const Matrix& points = PaperScalePoints();
  const auto x = points.Row(0);
  const double gamma = 1.0 / static_cast<double>(kPaperDims);
  std::vector<double> out(points.rows());
  for (auto _ : state) {
    for (std::size_t r = 0; r < points.rows(); ++r) {
      out[r] = std::exp(-gamma * ScalarSquaredDistance(points.Row(r), x));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_RbfKernelRowScalar);

void BM_RbfKernelRowNormTrick(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  const auto x = points.Row(0);
  svm::KernelConfig kernel;
  kernel.gamma = 1.0 / static_cast<double>(kPaperDims);
  std::vector<double> sq_norms(points.rows());
  RowSquaredNorms(points.Data(), points.rows(), points.cols(), sq_norms);
  const double x_sq_norm = SquaredNorm(x);
  std::vector<double> out(points.rows());
  for (auto _ : state) {
    svm::EvalKernelBatch(kernel, points.Data(), points.rows(), points.cols(),
                         sq_norms, x, x_sq_norm, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_RbfKernelRowNormTrick);

void BM_RbfPredictAllScalar(benchmark::State& state) {
  // The seed prediction path: per item, one scalar kernel evaluation per
  // support vector — no batching, no norm trick, no threads.
  const SyntheticExpansion& e = PaperScaleExpansion();
  const Matrix& points = PaperScalePoints();
  std::vector<bool> labels(points.rows());
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.rows(); ++i) {
      const auto x = points.Row(i);
      double decision = -e.rho;
      for (std::size_t s = 0; s < kPaperSvs; ++s) {
        decision += e.coefficients[s] *
                    std::exp(-e.kernel.gamma *
                             ScalarSquaredDistance(e.svs.Row(s), x));
      }
      labels[i] = decision >= 0.0;
    }
    benchmark::DoNotOptimize(&labels);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_RbfPredictAllScalar);

void BM_RbfPredictAllBatched(benchmark::State& state) {
  const SyntheticExpansion& e = PaperScaleExpansion();
  const Matrix& points = PaperScalePoints();
  std::vector<double> decisions(points.rows());
  std::vector<bool> labels(points.rows());
  for (auto _ : state) {
    e.model.DecisionValuesInto(points, StopCondition(), decisions);
    for (std::size_t i = 0; i < points.rows(); ++i) {
      labels[i] = decisions[i] >= 0.0;
    }
    benchmark::DoNotOptimize(&labels);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_RbfPredictAllBatched);

std::vector<eval::Neighbor> ScalarKnn(const Matrix& points,
                                      std::size_t query, std::size_t k) {
  // Seed kNN: one scalar distance *with sqrt* per candidate, heap on the
  // rooted distance.
  std::vector<eval::Neighbor> heap;
  heap.reserve(k + 1);
  const auto by_distance = [](const eval::Neighbor& a,
                              const eval::Neighbor& b) {
    return a.distance < b.distance;
  };
  const auto query_row = points.Row(query);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    if (i == query) continue;
    const double d = std::sqrt(ScalarSquaredDistance(points.Row(i),
                                                     query_row));
    if (heap.size() < k) {
      heap.push_back({i, d});
      std::push_heap(heap.begin(), heap.end(), by_distance);
    } else if (!heap.empty() && d < heap.front().distance) {
      std::pop_heap(heap.begin(), heap.end(), by_distance);
      heap.back() = {i, d};
      std::push_heap(heap.begin(), heap.end(), by_distance);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), by_distance);
  return heap;
}

void BM_KnnQueryScalar(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  std::size_t query = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarKnn(points, query, 10));
    query = (query + 1) % points.rows();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_KnnQueryScalar);

void BM_KnnQueryBlocked(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  std::size_t query = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::KNearestNeighbors(points, query, 10));
    query = (query + 1) % points.rows();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.rows()));
}
BENCHMARK(BM_KnnQueryBlocked);

struct CoherenceFixture {
  std::vector<std::vector<bool>> item_labels;
  std::vector<std::size_t> queries;
};

const CoherenceFixture& PaperScaleCoherence() {
  static const CoherenceFixture* const kFixture = [] {
    Rng rng(79);
    auto* f = new CoherenceFixture();
    f->item_labels.resize(kPaperItems);
    for (auto& labels : f->item_labels) {
      labels.resize(5);
      for (std::size_t g = 0; g < labels.size(); ++g) {
        labels[g] = rng.Bernoulli(0.25);
      }
    }
    for (std::size_t q = 0; q < 48; ++q) {
      f->queries.push_back(q * (kPaperItems / 48));
    }
    return f;
  }();
  return *kFixture;
}

void BM_KnnCoherenceScalar(benchmark::State& state) {
  // Seed coherence: serial query loop over scalar sqrt-per-candidate kNN.
  const Matrix& points = PaperScalePoints();
  const CoherenceFixture& fixture = PaperScaleCoherence();
  const std::size_t k = 10;
  for (auto _ : state) {
    std::size_t matched = 0, counted = 0;
    for (const std::size_t query : fixture.queries) {
      const auto neighbors = ScalarKnn(points, query, k);
      const auto& query_labels = fixture.item_labels[query];
      for (const eval::Neighbor& n : neighbors) {
        const auto& labels = fixture.item_labels[n.index];
        bool shared = false;
        for (std::size_t l = 0; l < labels.size() && !shared; ++l) {
          shared = labels[l] && query_labels[l];
        }
        matched += shared ? 1 : 0;
        ++counted;
      }
    }
    benchmark::DoNotOptimize(static_cast<double>(matched) /
                             static_cast<double>(counted));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.queries.size()));
}
BENCHMARK(BM_KnnCoherenceScalar);

void BM_KnnCoherenceParallel(benchmark::State& state) {
  const Matrix& points = PaperScalePoints();
  const CoherenceFixture& fixture = PaperScaleCoherence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::NeighborLabelCoherence(
        points, fixture.item_labels, fixture.queries, 10));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.queries.size()));
}
BENCHMARK(BM_KnnCoherenceParallel);

}  // namespace

BENCHMARK_MAIN();
