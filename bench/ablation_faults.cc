// Robustness study: schema expansion on a faulty crowd platform. Sweeps
// the HIT-abandonment rate (plus one "perfect storm" row combining
// stragglers, churn, duplicates, late delivery, and a spam burst) and runs
// the expansion pipeline (core::Expand) under a hard
// dollar cap. The paper's CrowdFlower runs (Table 1) took 4-13 hours per
// thousand items on exactly such a platform; this bench shows the pipeline
// still returns a classifier — within budget — as the platform degrades,
// and reports the dispatcher's repair work (reposts, timeouts, dedup,
// hedging waste).

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/expansion.h"
#include "crowd/dispatcher.h"
#include "crowd/fault_model.h"
#include "eval/metrics.h"

namespace {

using namespace ccdb;  // NOLINT

crowd::WorkerPool MakePool(std::size_t n) {
  crowd::WorkerPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 0.9;
    worker.accuracy = 0.9;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  return pool;
}

}  // namespace

int main() {
  benchutil::MovieContext context =
      benchutil::MakeMovieContext(/*need_space=*/true);
  const std::vector<bool>& comedy = context.sources.majority[0];

  Rng rng(5151);
  core::SchemaExpansionRequest request;
  request.attribute_name = "is_comedy";
  std::vector<bool> sample_truth;
  for (std::size_t index : rng.SampleWithoutReplacement(
           context.world.num_items(),
           std::min<std::size_t>(150, context.world.num_items()))) {
    request.gold_sample_items.push_back(static_cast<std::uint32_t>(index));
    sample_truth.push_back(comedy[index]);
  }

  crowd::HitRunConfig hit_config;
  hit_config.judgments_per_item = 5;
  hit_config.items_per_hit = 10;
  hit_config.payment_per_hit = 0.02;
  hit_config.perception_flip_rate = 0.05;
  hit_config.seed = 61;

  core::ExpansionOptions options;
  options.dispatcher.deadline_minutes = 60.0;
  options.dispatcher.max_reposts = 4;
  options.dispatcher.backoff_initial_minutes = 2.0;
  options.dispatcher.max_dollars = 2.50;  // clean run costs ~$1.50

  const crowd::WorkerPool pool = MakePool(20);

  struct Scenario {
    std::string name;
    crowd::FaultModel fault;
  };
  std::vector<Scenario> scenarios;
  for (double p : {0.0, 0.1, 0.3, 0.5}) {
    Scenario scenario;
    scenario.name = "abandonment " + TablePrinter::Num(p, 1);
    scenario.fault.abandonment_prob = p;
    scenarios.push_back(scenario);
  }
  {
    Scenario storm;
    storm.name = "perfect storm";
    storm.fault.abandonment_prob = 0.3;
    storm.fault.straggler_fraction = 0.3;
    storm.fault.churn_prob = 0.2;
    storm.fault.duplicate_prob = 0.1;
    storm.fault.late_prob = 0.2;
    storm.fault.spam_burst_prob = 1.0;
    scenarios.push_back(storm);
  }

  TablePrinter table({"Scenario", "Status", "g-mean", "Classified", "$",
                      "<= cap", "Reposts", "Timeouts", "Dedup",
                      "Wasted $"});
  for (const Scenario& scenario : scenarios) {
    crowd::HitRunConfig config = hit_config;
    config.fault = scenario.fault;
    const core::SchemaExpansionResult result = core::Expand(
        context.space, request, pool, config, sample_truth, options);

    std::string gmean = "-";
    if (result.status.ok()) {
      std::vector<bool> truth(context.world.num_items());
      for (std::uint32_t m = 0; m < context.world.num_items(); ++m) {
        truth[m] = comedy[m];
      }
      gmean = TablePrinter::Num(
          eval::GMean(eval::CountConfusion(result.values, truth)), 3);
    }
    table.AddRow(
        {scenario.name, result.status.ok() ? "OK" : result.status.ToString(),
         gmean, std::to_string(result.gold_sample_classified),
         TablePrinter::Num(result.crowd_dollars, 2),
         result.crowd_dollars <= options.dispatcher.max_dollars ? "yes"
                                                                : "NO",
         std::to_string(result.dispatch.repost_rounds),
         std::to_string(result.dispatch.timed_out_items),
         std::to_string(result.dispatch.duplicates_dropped),
         TablePrinter::Num(result.dispatch.wasted_dollars, 2)});
  }

  std::printf("\nRobustness ablation: schema expansion vs platform fault "
              "rate (dollar cap $%.2f)\n",
              options.dispatcher.max_dollars);
  std::printf("The dispatcher reposts expired work with exponential "
              "backoff and dedups late duplicates; expansion degrades "
              "gracefully instead of failing.\n");
  table.Print(std::cout);
  return 0;
}
