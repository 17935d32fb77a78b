// Reproduces Table 3: "Automatic schema expansion from small samples" —
// g-mean of SVM extraction with n ∈ {10, 20, 40} positive + negative
// training examples, comparing the perceptual space against the LSI
// metadata space, a random baseline, and the three expert sources'
// agreement with the majority reference.
//
// Paper means: perceptual 0.69 / 0.76 / 0.80, metadata 0.50 / 0.41 / 0.44
// (overfitting, ≲ random), references 0.91–0.95.

#include <cstdio>
#include <iostream>
#include <mutex>

#include "bench_common.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "data/metadata.h"
#include "eval/metrics.h"
#include "lsi/lsi.h"

namespace {

using namespace ccdb;  // NOLINT

constexpr std::size_t kSampleSizes[] = {10, 20, 40};

}  // namespace

int main() {
  const int reps = benchutil::EnvInt("CCDB_REPS", 10);
  benchutil::MovieContext context = benchutil::MakeMovieContext();
  const data::SyntheticWorld& world = context.world;
  const data::ExpertSources& sources = context.sources;
  const core::PerceptualSpace& perceptual = context.space;

  // The metadata space: classic (unnormalized) LSI over synthetic factual
  // metadata (Sec. 4.3). Both spaces get the SAME classifier
  // configuration, exactly as the paper trains "an additional SVM
  // classifier with the same training data as before" — the RBF width is
  // resolved once against the perceptual space and reused. The metadata
  // space's different geometry under that shared config is what produces
  // the degenerate, high-variance results of the paper's M columns.
  std::printf("[lsi] building metadata space…\n");
  const auto documents = data::GenerateMetadata(world);
  lsi::LsiOptions lsi_options;
  lsi_options.dims = perceptual.dims();
  lsi_options.normalize_documents = false;
  const lsi::LsiSpace lsi_space = lsi::BuildLsiSpace(documents, lsi_options);
  const core::PerceptualSpace metadata(lsi_space.document_coords);
  core::ExtractorOptions shared_options;
  shared_options.kernel =
      core::ResolveKernelForSpace(svm::KernelConfig{}, perceptual);

  const std::size_t num_genres = world.num_genres();
  // results[genre][space(0=perceptual,1=metadata)][n-index]
  std::vector<std::vector<std::vector<double>>> results(
      num_genres,
      std::vector<std::vector<double>>(2, std::vector<double>(3, 0.0)));
  std::vector<std::vector<std::vector<double>>> stddevs = results;

  ThreadPool pool(static_cast<std::size_t>(
      benchutil::EnvInt("CCDB_THREADS", 0)));
  const std::size_t num_cells = num_genres * 2 * 3;
  pool.ParallelFor(0, num_cells, [&](std::size_t cell) {
    const std::size_t genre = cell / 6;
    const std::size_t space_index = (cell / 3) % 2;
    const std::size_t n_index = cell % 3;
    const core::PerceptualSpace& space =
        space_index == 0 ? perceptual : metadata;
    const std::vector<bool>& reference = sources.majority[genre];
    double stddev = 0.0;
    results[genre][space_index][n_index] = benchutil::MeanExtractionGMean(
        space, reference, kSampleSizes[n_index], reps,
        1000 * genre + 100 * space_index + 10 * n_index + 1, &stddev,
        shared_options);
    stddevs[genre][space_index][n_index] = stddev;
  });

  TablePrinter table({"Genre", "Random", "P n=10", "P n=20", "P n=40",
                      "M n=10", "M n=20", "M n=40", sources.source_names[0],
                      sources.source_names[1], sources.source_names[2]});
  std::vector<double> means(10, 0.0);
  for (std::size_t genre = 0; genre < num_genres; ++genre) {
    const std::vector<bool>& reference = sources.majority[genre];
    std::vector<std::string> row = {world.config().genres[genre].name,
                                    "0.50"};
    std::vector<double> cells;
    for (std::size_t space_index = 0; space_index < 2; ++space_index) {
      for (std::size_t n_index = 0; n_index < 3; ++n_index) {
        cells.push_back(results[genre][space_index][n_index]);
      }
    }
    // Reference columns: each expert source's g-mean vs the majority.
    for (std::size_t source = 0; source < 3; ++source) {
      const std::vector<bool>& predicted =
          sources.source_labels[source][genre];
      cells.push_back(
          eval::GMean(eval::CountConfusion(predicted, reference)));
    }
    means[0] += 0.50;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      row.push_back(TablePrinter::Num(cells[c]));
      means[c + 1] += cells[c];
    }
    table.AddRow(std::move(row));
  }
  table.AddSeparator();
  std::vector<std::string> mean_row = {"Mean"};
  for (double mean : means) {
    mean_row.push_back(
        TablePrinter::Num(mean / static_cast<double>(num_genres)));
  }
  table.AddRow(std::move(mean_row));

  std::printf("\nTable 3. Automatic schema expansion from small samples "
              "(%zu movies, %d repetitions per cell)\n",
              world.num_items(), reps);
  std::printf("P = perceptual space, M = LSI metadata space; references are "
              "the simulated expert databases vs their majority.\n");
  std::printf("Paper means: P 0.69/0.76/0.80, M 0.50/0.41/0.44, references "
              "0.91/0.94/0.95.\n");
  table.Print(std::cout);

  // The paper highlights run-to-run stability: perceptual σ ≈ 0.02,
  // metadata σ ≈ 0.20 (overfitting).
  double perceptual_sigma = 0.0, metadata_sigma = 0.0;
  for (std::size_t genre = 0; genre < num_genres; ++genre) {
    for (std::size_t n_index = 0; n_index < 3; ++n_index) {
      perceptual_sigma += stddevs[genre][0][n_index];
      metadata_sigma += stddevs[genre][1][n_index];
    }
  }
  perceptual_sigma /= static_cast<double>(num_genres * 3);
  metadata_sigma /= static_cast<double>(num_genres * 3);
  std::printf("Mean per-cell stddev across samples: perceptual %.3f vs "
              "metadata %.3f (paper: ~0.02 vs ~0.20)\n",
              perceptual_sigma, metadata_sigma);
  return 0;
}
