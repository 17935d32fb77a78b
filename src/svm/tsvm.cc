#include "svm/tsvm.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace ccdb::svm {
namespace {

// Combines labeled and unlabeled rows into one training matrix.
Matrix StackRows(const Matrix& top, const Matrix& bottom) {
  CCDB_CHECK_EQ(top.cols(), bottom.cols());
  Matrix stacked(top.rows() + bottom.rows(), top.cols());
  for (std::size_t i = 0; i < top.rows(); ++i) {
    auto dst = stacked.Row(i);
    const auto src = top.Row(i);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  for (std::size_t i = 0; i < bottom.rows(); ++i) {
    auto dst = stacked.Row(top.rows() + i);
    const auto src = bottom.Row(i);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return stacked;
}

}  // namespace

SvmModel TrainTsvm(const Matrix& labeled,
                   const std::vector<std::int8_t>& labels,
                   const Matrix& unlabeled, const TsvmOptions& options,
                   TsvmReport* report) {
  const std::size_t num_labeled = labeled.rows();
  const std::size_t num_unlabeled = unlabeled.rows();
  CCDB_CHECK_EQ(labels.size(), num_labeled);
  CCDB_CHECK_GT(num_unlabeled, 0u);
  CCDB_CHECK_GT(options.positive_fraction, 0.0);
  CCDB_CHECK_LT(options.positive_fraction, 1.0);

  TsvmReport local_report;
  TsvmReport& out = report != nullptr ? *report : local_report;
  out = TsvmReport{};

  // Step 1: inductive seed model on the labeled data only.
  ClassifierOptions seed_options;
  seed_options.kernel = options.kernel;
  seed_options.cost = options.cost;
  seed_options.kernel_cache_bytes = options.kernel_cache_bytes;
  seed_options.smo = options.smo;
  SvmModel model = TrainClassifier(labeled, labels, seed_options);
  ++out.retrains;
  // A solve that `smo.stop` cut short ends the run: every later solve
  // would stop at once, and one stopped before its first step keeps no
  // support vector to take decision values from.
  const auto smo_stopped = [&] {
    if (!options.smo.stop.ShouldStop()) return false;
    out.stop_status = options.smo.stop.ToStatus("TSVM training");
    return true;
  };
  if (smo_stopped()) return model;

  // Step 2: label the unlabeled set so that the `positive_fraction`
  // highest decision values become positive.
  // The default StopCondition never fires, so every sweep here completes.
  std::vector<double> decisions(num_unlabeled);
  model.DecisionValuesInto(unlabeled, StopCondition(), decisions);
  std::vector<std::size_t> order(num_unlabeled);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return decisions[a] > decisions[b];
  });
  const std::size_t num_positive = std::max<std::size_t>(
      1, std::min<std::size_t>(
             num_unlabeled - 1,
             static_cast<std::size_t>(options.positive_fraction *
                                      static_cast<double>(num_unlabeled))));
  std::vector<std::int8_t> u_labels(num_unlabeled, -1);
  for (std::size_t r = 0; r < num_positive; ++r) u_labels[order[r]] = 1;

  const Matrix combined = StackRows(labeled, unlabeled);
  std::vector<std::int8_t> combined_labels(labels);
  combined_labels.insert(combined_labels.end(), u_labels.begin(),
                         u_labels.end());

  // Step 3: anneal the unlabeled cost upward, switching misfit pairs.
  double unlabeled_scale =
      std::min(1e-3, options.unlabeled_cost / options.cost);
  const double final_scale = options.unlabeled_cost / options.cost;
  bool stopped = false;
  for (;;) {
    for (std::size_t sweep = 0; sweep < options.max_switches_per_level;
         ++sweep) {
      if (options.stop.ShouldStop()) {
        out.stop_status = options.stop.ToStatus("TSVM training");
        stopped = true;
        break;
      }
      ClassifierOptions train_options;
      train_options.kernel = options.kernel;
      train_options.cost = options.cost;
      train_options.kernel_cache_bytes = options.kernel_cache_bytes;
      train_options.smo = options.smo;
      train_options.example_cost_scale.assign(combined.rows(), 1.0);
      for (std::size_t u = 0; u < num_unlabeled; ++u) {
        train_options.example_cost_scale[num_labeled + u] = unlabeled_scale;
      }
      SvmModel retrained =
          TrainClassifier(combined, combined_labels, train_options);
      ++out.retrains;
      if (smo_stopped()) {
        if (retrained.trained()) model = std::move(retrained);
        stopped = true;
        break;
      }
      model = std::move(retrained);

      // Slacks of unlabeled examples under the current labeling. The most
      // violating positive and the most violating negative form the switch
      // pair (their combined slack must exceed 2, per Joachims).
      model.DecisionValuesInto(unlabeled, StopCondition(), decisions);
      double worst_pos_slack = 0.0, worst_neg_slack = 0.0;
      std::size_t best_pos = num_unlabeled, best_neg = num_unlabeled;
      for (std::size_t u = 0; u < num_unlabeled; ++u) {
        const double slack = std::max(
            0.0, 1.0 - static_cast<double>(u_labels[u]) * decisions[u]);
        if (u_labels[u] == 1 && slack > worst_pos_slack) {
          worst_pos_slack = slack;
          best_pos = u;
        } else if (u_labels[u] == -1 && slack > worst_neg_slack) {
          worst_neg_slack = slack;
          best_neg = u;
        }
      }
      if (best_pos >= num_unlabeled || best_neg >= num_unlabeled ||
          worst_pos_slack + worst_neg_slack <= 2.0) {
        break;  // No violating pair remains at this cost level.
      }
      u_labels[best_pos] = -1;
      u_labels[best_neg] = 1;
      combined_labels[num_labeled + best_pos] = -1;
      combined_labels[num_labeled + best_neg] = 1;
      ++out.label_switches;
    }
    if (stopped || unlabeled_scale >= final_scale) break;
    unlabeled_scale = std::min(final_scale, unlabeled_scale * 2.0);
  }

  out.transductive_labels = u_labels;
  return model;
}

}  // namespace ccdb::svm
