#ifndef CCDB_FACTORIZATION_SGD_TRAINER_H_
#define CCDB_FACTORIZATION_SGD_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/sparse.h"
#include "common/status.h"
#include "factorization/factor_model.h"

namespace ccdb::factorization {

/// Stochastic-gradient-descent training schedule. The paper notes the
/// optimization "can be solved efficiently using stochastic gradient
/// descent … even on large data sets"; this trainer implements shuffled
/// per-rating SGD with multiplicative learning-rate decay and optional
/// early stopping on a validation holdout.
struct SgdTrainerConfig {
  int max_epochs = 30;
  double learning_rate = 0.05;
  /// learning_rate is multiplied by this factor after every epoch.
  double lr_decay = 0.97;
  /// Fraction of ratings held out for validation-based early stopping;
  /// 0 disables validation (all ratings train, no early stop).
  double validation_fraction = 0.0;
  /// Stop after this many consecutive epochs without validation-RMSE
  /// improvement (only if validation_fraction > 0).
  int patience = 3;
  std::uint64_t seed = 7;
  /// Cooperative stop signal, probed at every epoch boundary: when it
  /// fires, training returns within one epoch with the partial model and
  /// TrainingReport::stop_status set (Cancelled / DeadlineExceeded), with
  /// or without snapshots. The default never fires.
  StopCondition stop;
};

/// Per-epoch training telemetry returned by TrainSgd(). The fit on the
/// training ratings is not tracked, since it would cost a pass over every
/// rating per epoch; FactorModel::EvaluateRmse computes it on demand.
struct TrainingReport {
  /// Validation RMSE after each completed epoch, the early-stopping signal;
  /// empty when no validation split.
  std::vector<double> validation_rmse;
  int epochs_run = 0;
  bool early_stopped = false;
  double final_validation_rmse = 0.0;
  /// Ok when training ran to completion (or early-stopped on validation);
  /// Cancelled / DeadlineExceeded when SgdTrainerConfig::stop fired. The
  /// partially-trained model is left in place either way.
  Status stop_status;
};

struct TrainerCheckpointOptions;  // factorization/checkpoint.h

/// Runs SGD over `data`, mutating `model` in place, and returns telemetry;
/// InvalidArgument for an invalid config. With `snapshots`, the model and
/// schedule state are snapshotted every `every_epochs` epochs (and at the
/// end). When a snapshot of this run (same config, data shape and model
/// config) already exists, training fast-forwards the RNG schedule and
/// resumes from the snapshotted epoch; the final model and report are
/// bit-identical to an uninterrupted run. A snapshot of a different run
/// is rejected with InvalidArgument.
[[nodiscard]] StatusOr<TrainingReport> TrainSgd(
    const SgdTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, const TrainerCheckpointOptions* snapshots = nullptr);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_SGD_TRAINER_H_
