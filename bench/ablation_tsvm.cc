// Reproduces the Sec. 5 semi-supervised-learning study: a transductive
// SVM achieves roughly the same extraction quality as the inductive SVM
// but is orders of magnitude slower because its input is the entire
// database, not just the gold sample (paper: ~3 s vs ~90 min with
// SVMlight; our scaled-down setting shows the same blow-up factor).

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/extractor.h"
#include "eval/metrics.h"
#include "svm/tsvm.h"

namespace {

using namespace ccdb;  // NOLINT

}  // namespace

int main() {
  benchutil::MovieContext context = benchutil::MakeMovieContext();
  const data::SyntheticWorld& world = context.world;
  const core::PerceptualSpace& space = context.space;
  const std::vector<bool>& comedy = context.sources.majority[0];

  // Gold sample: 40 + 40; unlabeled pool: CCDB_TSVM_UNLABELED items
  // (default 600 — the TSVM's cost grows quadratically with this).
  const std::size_t num_unlabeled = static_cast<std::size_t>(
      benchutil::EnvInt("CCDB_TSVM_UNLABELED", 600));
  const benchutil::BalancedSample gold =
      benchutil::DrawBalancedSample(comedy, 40, 123);

  Rng rng(321);
  std::vector<std::uint32_t> unlabeled_items;
  for (std::size_t index : rng.SampleWithoutReplacement(
           world.num_items(), std::min(num_unlabeled, world.num_items()))) {
    unlabeled_items.push_back(static_cast<std::uint32_t>(index));
  }
  const Matrix labeled = space.GatherRows(gold.items);
  const Matrix unlabeled = space.GatherRows(unlabeled_items);
  std::vector<std::int8_t> signed_labels(gold.labels.size());
  double positive_fraction = 0.0;
  for (std::size_t i = 0; i < gold.labels.size(); ++i) {
    signed_labels[i] = gold.labels[i] ? 1 : -1;
  }
  for (std::uint32_t item : unlabeled_items) {
    positive_fraction += comedy[item] ? 1.0 : 0.0;
  }
  positive_fraction /= static_cast<double>(unlabeled_items.size());

  auto evaluate = [&](const svm::SvmModel& model) {
    std::vector<double> decisions(unlabeled_items.size());
    model.DecisionValuesInto(unlabeled, StopCondition(), decisions);
    std::vector<bool> predicted(unlabeled_items.size());
    std::vector<bool> truth(unlabeled_items.size());
    for (std::size_t i = 0; i < unlabeled_items.size(); ++i) {
      predicted[i] = decisions[i] >= 0.0;
      truth[i] = comedy[unlabeled_items[i]];
    }
    return eval::GMean(eval::CountConfusion(predicted, truth));
  };

  const svm::KernelConfig kernel =
      core::ResolveKernelForSpace(svm::KernelConfig{}, space);

  // Inductive SVM.
  Stopwatch stopwatch;
  svm::ClassifierOptions svc_options;
  svc_options.kernel = kernel;
  svc_options.cost = 10.0;
  const svm::SvmModel inductive =
      svm::TrainClassifier(labeled, signed_labels, svc_options);
  const double svm_seconds = stopwatch.ElapsedSeconds();
  const double svm_gmean = evaluate(inductive);

  // Transductive SVM over the unlabeled pool.
  stopwatch.Restart();
  svm::TsvmOptions tsvm_options;
  tsvm_options.kernel = kernel;
  tsvm_options.cost = 10.0;
  tsvm_options.unlabeled_cost = 10.0;
  tsvm_options.positive_fraction = positive_fraction;
  tsvm_options.max_switches_per_level = static_cast<std::size_t>(
      benchutil::EnvInt("CCDB_TSVM_SWITCHES", 40));
  svm::TsvmReport report;
  const svm::SvmModel transductive = svm::TrainTsvm(
      labeled, signed_labels, unlabeled, tsvm_options, &report);
  const double tsvm_seconds = stopwatch.ElapsedSeconds();
  const double tsvm_gmean = evaluate(transductive);

  TablePrinter table({"method", "g-mean (unlabeled pool)", "train time",
                      "retrains"});
  table.AddRow({"inductive SVM (paper default)",
                TablePrinter::Num(svm_gmean),
                TablePrinter::Num(svm_seconds * 1e3, 1) + " ms", "1"});
  table.AddRow({"transductive SVM",
                TablePrinter::Num(tsvm_gmean),
                TablePrinter::Num(tsvm_seconds, 2) + " s",
                std::to_string(report.retrains)});

  std::printf("\nSec. 5 study: semi-supervised (transductive) extraction "
              "(40+40 gold labels, %zu unlabeled items)\n",
              unlabeled_items.size());
  std::printf("Paper: almost identical g-means, but ~3 s vs ~90 min "
              "runtime — TSVM input is the whole database.\n");
  table.Print(std::cout);
  std::printf("Slowdown factor: %.0fx (label switches performed: %zu)\n",
              svm_seconds > 0 ? tsvm_seconds / svm_seconds : 0.0,
              report.label_switches);
  return 0;
}
