#include "factorization/als_trainer.h"

#include <string>

#include "common/cholesky.h"
#include "common/crash_point.h"
#include "common/journal.h"
#include "common/thread_pool.h"
#include "common/vec.h"
#include "factorization/checkpoint.h"

namespace ccdb::factorization {
namespace {

// Solves the ridge regression for one side's coordinate row:
//   (Σ v vᵀ + λ·n·I) w = Σ v · residual
// where v runs over the fixed other-side rows of observed ratings.
void SolveRow(std::span<double> w, const Matrix& other_factors,
              std::span<const RatingEntry> entries, double bias_this,
              const std::vector<double>& bias_other, double global_mean,
              double lambda) {
  const std::size_t dims = w.size();
  if (entries.empty()) return;
  Matrix gram(dims, dims);
  std::vector<double> rhs(dims, 0.0);
  for (const RatingEntry& entry : entries) {
    const auto v = other_factors.Row(entry.id);
    const double residual = static_cast<double>(entry.score) - global_mean -
                            bias_this - bias_other[entry.id];
    for (std::size_t i = 0; i < dims; ++i) {
      rhs[i] += v[i] * residual;
      for (std::size_t j = i; j < dims; ++j) {
        gram(i, j) += v[i] * v[j];
      }
    }
  }
  const double ridge = lambda * static_cast<double>(entries.size());
  for (std::size_t i = 0; i < dims; ++i) {
    gram(i, i) += ridge + 1e-9;  // jitter keeps Cholesky PD for tiny n
    for (std::size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }
  std::vector<double> solution;
  if (SolveSpd(gram, rhs, solution)) {
    for (std::size_t i = 0; i < dims; ++i) w[i] = solution[i];
  }
}

// Closed-form bias update: δ = Σ residual / (n + λ·n) with residuals
// computed against the *other* side's bias and the current factors.
double SolveBias(std::span<const RatingEntry> entries,
                 std::span<const double> own_factors,
                 const Matrix& other_factors,
                 const std::vector<double>& bias_other, double global_mean,
                 double lambda) {
  if (entries.empty()) return 0.0;
  double total = 0.0;
  for (const RatingEntry& entry : entries) {
    total += static_cast<double>(entry.score) - global_mean -
             bias_other[entry.id] -
             Dot(own_factors, other_factors.Row(entry.id));
  }
  const double n = static_cast<double>(entries.size());
  return total / (n + lambda * n + 1e-9);
}

}  // namespace

StatusOr<AlsReport> TrainAls(const AlsTrainerConfig& config,
                             const RatingDataset& data, FactorModel& model,
                             const TrainerCheckpointOptions* snapshots) {
  if (model.config().kind != ModelKind::kSvdDotProduct) {
    return Status::InvalidArgument(
        "ALS supports the SVD dot-product model only; train the Euclidean "
        "embedding with SGD");
  }
  if (config.sweeps <= 0) {
    return Status::InvalidArgument("sweeps must be positive");
  }

  AlsReport report;
  // The schedule a snapshot must match: the sweep count (the thread count
  // does not change the result).
  ByteWriter schedule;
  schedule.PutU64(static_cast<std::uint64_t>(config.sweeps));
  if (snapshots != nullptr) {
    StatusOr<std::string> saved =
        ReadTrainerSnapshot(*snapshots, schedule.bytes(), data, model);
    if (saved.ok()) {
      ByteReader r(saved.value());
      const std::uint64_t sweeps_run = r.GetU64();
      if (sweeps_run > static_cast<std::uint64_t>(config.sweeps)) {
        return Status::InvalidArgument(
            "ALS checkpoint claims more sweeps than the schedule has");
      }
      report.sweeps_run = static_cast<int>(sweeps_run);
      if (Status status =
              GetDoubles(r, report.rmse_per_sweep, "rmse_per_sweep");
          !status.ok()) {
        return status;
      }
      if (!r.AtEnd()) {
        return Status::InvalidArgument("malformed ALS checkpoint loop state");
      }
    } else if (saved.status().code() != StatusCode::kNotFound) {
      return saved.status();
    }
  }

  const double lambda = model.config().lambda;
  const double global_mean = model.global_mean();
  ThreadPool pool(config.threads);
  while (report.sweeps_run < config.sweeps) {
    if (config.stop.ShouldStop()) {
      report.stop_status = config.stop.ToStatus("ALS training");
      break;
    }
    // Item biases, then user biases (each closed form given the rest).
    pool.ParallelFor(0, data.num_items(), [&](std::size_t m) {
      model.mutable_item_bias()[m] = SolveBias(
          data.ByItem(static_cast<std::uint32_t>(m)),
          model.item_factors().Row(m), model.user_factors(),
          model.user_bias(), global_mean, lambda);
    });
    pool.ParallelFor(0, data.num_users(), [&](std::size_t u) {
      model.mutable_user_bias()[u] = SolveBias(
          data.ByUser(static_cast<std::uint32_t>(u)),
          model.user_factors().Row(u), model.item_factors(),
          model.item_bias(), global_mean, lambda);
    });

    // Item factors against fixed user factors, then the reverse.
    pool.ParallelFor(0, data.num_items(), [&](std::size_t m) {
      SolveRow(model.mutable_item_factors().Row(m), model.user_factors(),
               data.ByItem(static_cast<std::uint32_t>(m)),
               model.item_bias()[m], model.user_bias(), global_mean,
               lambda);
    });
    pool.ParallelFor(0, data.num_users(), [&](std::size_t u) {
      SolveRow(model.mutable_user_factors().Row(u), model.item_factors(),
               data.ByUser(static_cast<std::uint32_t>(u)),
               model.user_bias()[u], model.item_bias(), global_mean,
               lambda);
    });

    ++report.sweeps_run;
    report.rmse_per_sweep.push_back(model.EvaluateRmse(data));
    if (snapshots != nullptr &&
        (report.sweeps_run == config.sweeps ||
         report.sweeps_run % snapshots->every_epochs == 0)) {
      ByteWriter loop_state;
      loop_state.PutU64(static_cast<std::uint64_t>(report.sweeps_run));
      PutDoubles(loop_state, report.rmse_per_sweep);
      if (Status status = WriteTrainerSnapshot(
              *snapshots, schedule.bytes(), data, loop_state.bytes(), model);
          !status.ok()) {
        return status;
      }
      CCDB_CRASH_POINT("als.checkpoint");
    }
  }
  report.final_rmse =
      report.rmse_per_sweep.empty() ? 0.0 : report.rmse_per_sweep.back();
  return report;
}

}  // namespace ccdb::factorization
