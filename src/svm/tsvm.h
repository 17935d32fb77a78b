#ifndef CCDB_SVM_TSVM_H_
#define CCDB_SVM_TSVM_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "svm/classifier.h"

namespace ccdb::svm {

/// Options for the transductive SVM (Joachims-style label switching).
struct TsvmOptions {
  KernelConfig kernel;
  /// Cost for labeled examples.
  double cost = 1.0;
  /// Final cost weight for unlabeled examples (Joachims' C*).
  double unlabeled_cost = 1.0;
  /// Expected fraction of positives among the unlabeled set; the initial
  /// transductive labeling assigns this fraction the positive label.
  double positive_fraction = 0.5;
  /// Cap on label-switch retrains per cost level (safety bound).
  std::size_t max_switches_per_level = 10000;
  /// Byte budget of the kernel cache of each inner solve; see
  /// kDefaultKernelCacheBytes.
  std::size_t kernel_cache_bytes = kDefaultKernelCacheBytes;
  SmoConfig smo;
  /// Cooperative stop for the outer label-switching loop, probed before
  /// every retrain; compose with `smo.stop` to also abort inside a single
  /// solve. When it fires the most recent model is returned and
  /// TsvmReport::stop_status is set. When `smo.stop` cuts a solve short the
  /// run ends the same way, returning the most recent model that kept
  /// support vectors (an untrained one if the seed solve stopped before
  /// its first step). The default never fires.
  StopCondition stop;
};

/// Telemetry for the Sec. 5 runtime study: TSVM quality is comparable to
/// the inductive SVM, but cost grows with the entire database size.
struct TsvmReport {
  std::size_t retrains = 0;
  std::size_t label_switches = 0;
  std::vector<std::int8_t> transductive_labels;  // final unlabeled labels
  /// Ok on completion; Cancelled / DeadlineExceeded when stop fired.
  Status stop_status;
};

/// Trains a TSVM: an inductive SVM on `labeled` seeds labels for
/// `unlabeled`; pairs of oppositely-labeled unlabeled examples with
/// combined slack > 2 are switched while the unlabeled cost is annealed
/// up to `unlabeled_cost`. Returns the final combined model.
SvmModel TrainTsvm(const Matrix& labeled,
                   const std::vector<std::int8_t>& labels,
                   const Matrix& unlabeled, const TsvmOptions& options,
                   TsvmReport* report = nullptr);

}  // namespace ccdb::svm

#endif  // CCDB_SVM_TSVM_H_
