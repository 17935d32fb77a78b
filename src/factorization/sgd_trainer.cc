#include "factorization/sgd_trainer.h"

#include <limits>
#include <string>
#include <string_view>

#include "common/crash_point.h"
#include "common/journal.h"
#include "common/rng.h"
#include "factorization/checkpoint.h"

namespace ccdb::factorization {

namespace {

/// The schedule fields a snapshot must match to resume this run.
std::string EncodeSchedule(const SgdTrainerConfig& config) {
  ByteWriter w;
  w.PutU64(static_cast<std::uint64_t>(config.max_epochs));
  w.PutF64(config.learning_rate);
  w.PutF64(config.lr_decay);
  w.PutF64(config.validation_fraction);
  w.PutU64(static_cast<std::uint64_t>(config.patience));
  w.PutU64(config.seed);
  return w.Take();
}

/// The epoch loop's state beyond the model: everything needed to continue
/// exactly where a snapshot left it.
struct SgdLoopState {
  TrainingReport report;
  double learning_rate = 0.0;
  double best_validation = std::numeric_limits<double>::infinity();
  int epochs_without_improvement = 0;
};

std::string EncodeLoopState(const SgdLoopState& state) {
  ByteWriter w;
  w.PutU64(static_cast<std::uint64_t>(state.report.epochs_run));
  w.PutF64(state.learning_rate);
  w.PutF64(state.best_validation);
  w.PutU64(static_cast<std::uint64_t>(state.epochs_without_improvement));
  w.PutBool(state.report.early_stopped);
  PutDoubles(w, state.report.validation_rmse);
  return w.Take();
}

Status DecodeLoopState(std::string_view bytes, int max_epochs,
                       SgdLoopState& state) {
  ByteReader r(bytes);
  const std::uint64_t epochs_run = r.GetU64();
  if (epochs_run > static_cast<std::uint64_t>(max_epochs)) {
    return Status::InvalidArgument(
        "SGD checkpoint claims more epochs than the schedule has");
  }
  state.report.epochs_run = static_cast<int>(epochs_run);
  state.learning_rate = r.GetF64();
  state.best_validation = r.GetF64();
  state.epochs_without_improvement = static_cast<int>(r.GetU64());
  state.report.early_stopped = r.GetBool();
  if (Status status =
          GetDoubles(r, state.report.validation_rmse, "validation_rmse");
      !status.ok()) {
    return status;
  }
  // A snapshot of the older layout, which held a train-RMSE series before
  // the validation one, has bytes left here: rejected, never misread.
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed SGD checkpoint loop state");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<TrainingReport> TrainSgd(const SgdTrainerConfig& config,
                                  const RatingDataset& data,
                                  FactorModel& model,
                                  const TrainerCheckpointOptions* snapshots) {
  if (config.max_epochs <= 0 || !(config.learning_rate > 0.0) ||
      !(config.lr_decay > 0.0) || config.lr_decay > 1.0 ||
      !(config.validation_fraction >= 0.0 &&
        config.validation_fraction < 1.0)) {
    return Status::InvalidArgument("invalid SgdTrainerConfig");
  }

  SgdLoopState state;
  state.learning_rate = config.learning_rate;
  const std::string schedule = EncodeSchedule(config);
  if (snapshots != nullptr) {
    StatusOr<std::string> saved =
        ReadTrainerSnapshot(*snapshots, schedule, data, model);
    if (saved.ok()) {
      if (Status status =
              DecodeLoopState(saved.value(), config.max_epochs, state);
          !status.ok()) {
        return status;
      }
    } else if (saved.status().code() != StatusCode::kNotFound) {
      return saved.status();
    }
  }
  TrainingReport& report = state.report;

  // The stochastic schedule: same seed, same split, and one shuffle per
  // epoch already run. On a resume this reproduces both the RNG state and
  // the training-permutation state, so the continued run is bit-identical
  // to an uninterrupted one.
  Rng rng(config.seed);
  TrainHoldoutSplit split =
      SplitRatings(data.num_ratings(), config.validation_fraction, rng);
  const bool has_validation = !split.holdout.empty();
  for (int epoch = 0; epoch < report.epochs_run; ++epoch) {
    rng.Shuffle(split.train);
  }

  while (!report.early_stopped && report.epochs_run < config.max_epochs) {
    if (config.stop.ShouldStop()) {
      report.stop_status = config.stop.ToStatus("SGD training");
      break;
    }
    rng.Shuffle(split.train);
    model.SgdEpoch(data, split.train, state.learning_rate);
    state.learning_rate *= config.lr_decay;
    ++report.epochs_run;

    if (has_validation) {
      const double validation_rmse =
          model.EvaluateRmse(data, split.holdout);
      report.validation_rmse.push_back(validation_rmse);
      if (validation_rmse + 1e-6 < state.best_validation) {
        state.best_validation = validation_rmse;
        state.epochs_without_improvement = 0;
      } else if (++state.epochs_without_improvement >= config.patience) {
        report.early_stopped = true;
      }
    }
    const bool finished =
        report.early_stopped || report.epochs_run == config.max_epochs;
    if (snapshots != nullptr &&
        (finished || report.epochs_run % snapshots->every_epochs == 0)) {
      if (Status status = WriteTrainerSnapshot(
              *snapshots, schedule, data, EncodeLoopState(state), model);
          !status.ok()) {
        return status;
      }
      CCDB_CRASH_POINT("sgd.checkpoint");
    }
  }

  report.final_validation_rmse =
      report.validation_rmse.empty() ? 0.0 : report.validation_rmse.back();
  return report;
}

}  // namespace ccdb::factorization
