#ifndef CCDB_FACTORIZATION_ALS_TRAINER_H_
#define CCDB_FACTORIZATION_ALS_TRAINER_H_

#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "factorization/factor_model.h"

namespace ccdb::factorization {

/// Alternating-least-squares schedule — the second solver family the
/// paper names for its optimization problem ("solved efficiently using
/// stochastic gradient descent or alternating least squares methods").
/// Each sweep solves, in closed form: item biases, user biases, item
/// factors (one ridge regression per item against the fixed user factors),
/// then user factors. Deterministic — no learning rate to tune.
///
/// ALS requires a bilinear model, so only ModelKind::kSvdDotProduct is
/// supported (the Euclidean embedding's distance term is not linear in
/// either side's coordinates; it is trained by SGD).
struct AlsTrainerConfig {
  int sweeps = 10;
  /// Threads for the per-item/per-user solves (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Cooperative stop signal, probed at every sweep boundary; when it
  /// fires the partial model stays in place and AlsReport::stop_status is
  /// set, with or without snapshots. The default never fires.
  StopCondition stop;
};

struct AlsReport {
  std::vector<double> rmse_per_sweep;
  int sweeps_run = 0;
  double final_rmse = 0.0;
  /// Ok on completion; Cancelled / DeadlineExceeded when stop fired.
  Status stop_status;
};

struct TrainerCheckpointOptions;  // factorization/checkpoint.h

/// Runs ALS over `data`, mutating `model` in place. Returns
/// InvalidArgument for non-SVD models and non-positive sweep counts. With
/// `snapshots`, sweep-level snapshots work as in TrainSgd; ALS is
/// deterministic, so a resume needs no RNG fast-forward and k snapshotted
/// plus n - k fresh sweeps equal n uninterrupted ones bit for bit.
[[nodiscard]] StatusOr<AlsReport> TrainAls(
    const AlsTrainerConfig& config, const RatingDataset& data,
    FactorModel& model, const TrainerCheckpointOptions* snapshots = nullptr);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_ALS_TRAINER_H_
