#include "figures_common.h"

#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/io.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "crowd/aggregation.h"
#include "crowd/experiments.h"

namespace ccdb::benchutil {

std::vector<BoostSeries> RunBoostingExperiments(const MovieContext& context) {
  const data::SyntheticWorld& world = context.world;

  // The same 1,000-movie sample as Table 1 (seed shared with that bench).
  Rng rng(4242);
  std::vector<std::uint32_t> sample;
  std::vector<bool> sample_labels;
  const std::vector<bool>& comedy = context.sources.majority[0];
  for (std::size_t index : rng.SampleWithoutReplacement(
           world.num_items(),
           std::min<std::size_t>(1000, world.num_items()))) {
    sample.push_back(static_cast<std::uint32_t>(index));
    sample_labels.push_back(comedy[index]);
  }

  const crowd::ExperimentSetup setups[3] = {
      crowd::MakeExperiment1(), crowd::MakeExperiment2(),
      crowd::MakeExperiment3()};
  const char* boosted_names[3] = {"Exp. 4: All + space",
                                  "Exp. 5: Trusted + space",
                                  "Exp. 6: Lookup + space"};

  std::vector<BoostSeries> all_series;
  for (int e = 0; e < 3; ++e) {
    std::printf("[figures] running %s…\n", setups[e].name.c_str());
    std::fflush(stdout);
    const crowd::CrowdRunResult run =
        crowd::RunCrowdTask(setups[e].pool, sample_labels, setups[e].config);

    core::IncrementalExpansionOptions options;
    options.checkpoint_interval_minutes = 5.0;
    const StatusOr<std::vector<core::ExpansionCheckpoint>> checkpoints =
        core::RunIncrementalExpansion(context.space, sample, run.judgments,
                                      run.total_minutes, options);
    CCDB_CHECK_MSG(checkpoints.ok(), checkpoints.status().ToString());

    BoostSeries series;
    series.crowd_name = setups[e].name;
    series.boosted_name = boosted_names[e];
    series.total_minutes = run.total_minutes;
    series.total_dollars = run.total_cost_dollars;
    for (const core::ExpansionCheckpoint& checkpoint : checkpoints.value()) {
      BoostPoint point;
      point.minutes = checkpoint.minutes;
      point.rel_time = run.total_minutes > 0.0
                           ? checkpoint.minutes / run.total_minutes
                           : 0.0;
      point.dollars = checkpoint.dollars_spent;
      point.training_size = checkpoint.training_size;
      for (std::size_t i = 0; i < sample.size(); ++i) {
        if (checkpoint.crowd_classification[i].has_value()) {
          ++point.crowd_classified;
          if (*checkpoint.crowd_classification[i] == sample_labels[i]) {
            ++point.crowd_correct;
          }
        }
        if (checkpoint.extractor_trained &&
            checkpoint.extracted[i] == sample_labels[i]) {
          ++point.boosted_correct;
        }
      }
      series.points.push_back(point);
    }
    all_series.push_back(std::move(series));
  }
  return all_series;
}

void WriteBoostCsv(const std::vector<BoostSeries>& series,
                   const std::string& path) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"experiment", "minutes", "rel_time", "dollars",
                "crowd_correct", "boosted_correct", "training_size"});
  for (const BoostSeries& s : series) {
    for (const BoostPoint& p : s.points) {
      csv.WriteRow({s.crowd_name, std::to_string(p.minutes),
                    std::to_string(p.rel_time), std::to_string(p.dollars),
                    std::to_string(p.crowd_correct),
                    std::to_string(p.boosted_correct),
                    std::to_string(p.training_size)});
    }
  }
  if (Status status = Fs::Posix().WriteFile(path, out.str()); !status.ok()) {
    std::printf("[figures] could not write %s: %s\n", path.c_str(),
                status.ToString().c_str());
    return;
  }
  std::printf("[figures] wrote %s\n", path.c_str());
}

const BoostPoint* PointAt(const BoostSeries& series, double x,
                          bool use_money) {
  const BoostPoint* best = nullptr;
  for (const BoostPoint& point : series.points) {
    const double px = use_money ? point.dollars : point.rel_time;
    if (px <= x + 1e-9) best = &point;
  }
  return best;
}

}  // namespace ccdb::benchutil
