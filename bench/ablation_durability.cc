// Durability ablation: what does crash safety cost? Every durable layer
// added for exact resume — the write-ahead dispatch journal, the expansion
// checkpoint manifest, and the trainer snapshots — is measured against its
// journal-free baseline under each fsync policy (off / no-sync / fsync per
// batch / fsync per record).
//
// The binary doubles as the crash-recovery smoke target of
// scripts/check_crash_recovery.sh: run it with CCDB_CRASH_POINT=
// dispatch.posting_end and it dies hard (exit 42) mid-dispatch, leaving a
// partial journal behind; run it again without the variable and the first
// section resumes that journal, reporting the replayed judgments instead
// of re-buying them.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/journal.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/expansion.h"
#include "core/perceptual_space.h"
#include "crowd/dispatcher.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "factorization/checkpoint.h"
#include "factorization/sgd_trainer.h"

namespace {

using namespace ccdb;  // NOLINT

std::string BenchDir() {
  const char* dir = std::getenv("CCDB_DURABILITY_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp");
}

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

struct DispatchSetup {
  std::vector<bool> labels;
  crowd::WorkerPool pool = MakePool(20);
  crowd::HitRunConfig hit;
  crowd::DispatcherConfig policy;

  DispatchSetup() {
    Rng rng(71);
    labels.resize(200);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = rng.Bernoulli(0.3);
    }
    hit.judgments_per_item = 5;
    hit.items_per_hit = 10;
    hit.payment_per_hit = 0.02;
    hit.seed = 73;
    hit.fault.abandonment_prob = 0.3;  // forces repost rounds -> postings
    policy.deadline_minutes = 120.0;
    policy.max_reposts = 4;
    policy.backoff_initial_minutes = 2.0;
  }
};

const char* PolicyName(SyncPolicy sync) {
  switch (sync) {
    case SyncPolicy::kNone: return "journal, no fsync";
    case SyncPolicy::kBatch: return "journal, fsync/batch";
    case SyncPolicy::kEveryRecord: return "journal, fsync/record";
  }
  return "?";
}

/// Runs the crash-recovery demo dispatch against a persistent journal.
/// Under CCDB_CRASH_POINT this is the first durable code reached, so the
/// injected crash lands here; the next invocation resumes its journal.
void RecoveryDemo(const DispatchSetup& setup, const std::string& dir) {
  JournalOptions journal;
  journal.path = dir + "/ablation_durability_recovery.jnl";
  const crowd::Dispatcher dispatcher(setup.pool, setup.policy);
  auto result = dispatcher.Run(setup.labels, setup.hit, &journal);
  if (!result.ok()) {
    std::cout << "recovery demo: " << result.status().ToString() << "\n\n";
    return;
  }
  const crowd::DispatchStats& stats = result.value().stats;
  std::cout << "recovery journal " << journal.path << ": ";
  if (stats.replayed_judgments > 0) {
    std::cout << "resumed — replayed " << stats.replayed_judgments
              << " judgments ($" << TablePrinter::Num(stats.replayed_dollars)
              << ") from a previous (possibly crashed) run\n";
  } else {
    std::cout << "fresh run — " << result.value().judgments.size()
              << " judgments journaled\n";
  }
  std::cout << "\n";
}

double MeanDispatchMillis(const DispatchSetup& setup, int reps,
                          const std::string& journal_path, SyncPolicy sync) {
  double total_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    JournalOptions journal;
    journal.path = journal_path;
    journal.sync = sync;
    if (!journal_path.empty()) {
      std::remove(journal_path.c_str());  // fresh run, not a replay
    }
    const crowd::Dispatcher dispatcher(setup.pool, setup.policy);
    auto result = dispatcher.Run(setup.labels, setup.hit,
                                 journal_path.empty() ? nullptr : &journal);
    if (!result.ok()) std::abort();
    total_ms += timer.ElapsedMillis();
  }
  return total_ms / reps;
}

struct ExpansionSetup {
  data::SyntheticWorld world{data::TinyConfig()};
  core::PerceptualSpace space;
  std::vector<std::uint32_t> sample;
  std::vector<crowd::Judgment> judgments;
  core::IncrementalExpansionOptions options;

  ExpansionSetup()
      : space([&] {
          core::PerceptualSpaceOptions space_options;
          space_options.model.dims = 16;
          space_options.trainer.max_epochs = 12;
          space_options.trainer.learning_rate = 0.02;
          return core::PerceptualSpace::Build(world.SampleRatings(),
                                              space_options);
        }()) {
    Rng rng(79);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world.num_items(), 150)) {
      sample.push_back(static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (int vote = 0; vote < 3; ++vote) {
        crowd::Judgment judgment;
        judgment.item = static_cast<std::uint32_t>(i);
        judgment.answer = world.GenreLabel(0, sample[i])
                              ? crowd::Answer::kPositive
                              : crowd::Answer::kNegative;
        judgment.timestamp_minutes = rng.Uniform(0.0, 40.0);
        judgment.cost_dollars = 0.002;
        judgments.push_back(judgment);
      }
    }
    std::sort(judgments.begin(), judgments.end(),
              [](const crowd::Judgment& a, const crowd::Judgment& b) {
                return a.timestamp_minutes < b.timestamp_minutes;
              });
    options.checkpoint_interval_minutes = 5.0;
  }
};

double MeanExpansionMillis(const ExpansionSetup& setup, int reps,
                           const std::string& manifest_path,
                           SyncPolicy sync) {
  double total_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    JournalOptions journal;
    journal.path = manifest_path;
    journal.sync = sync;
    if (!manifest_path.empty()) std::remove(manifest_path.c_str());
    const auto checkpoints = core::RunIncrementalExpansion(
        setup.space, setup.sample, setup.judgments, 40.0, setup.options,
        manifest_path.empty() ? nullptr : &journal);
    if (!checkpoints.ok() || checkpoints.value().empty()) std::abort();
    total_ms += timer.ElapsedMillis();
  }
  return total_ms / reps;
}

double MeanSgdMillis(const RatingDataset& data, int reps,
                     const std::string& snapshot_path, int every_epochs) {
  factorization::FactorModelConfig model_config;
  model_config.dims = 16;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 10;
  trainer.learning_rate = 0.02;

  double total_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    factorization::FactorModel model(model_config, data);
    Stopwatch timer;
    factorization::TrainerCheckpointOptions checkpoint;
    checkpoint.path = snapshot_path;
    checkpoint.every_epochs = every_epochs;
    if (!snapshot_path.empty()) {
      // A fresh run: drop the live snapshot and the older generation kept
      // beside it, or training would resume from an earlier rep's state.
      std::remove(snapshot_path.c_str());
      std::remove((snapshot_path + ".1").c_str());
    }
    const auto report = TrainSgd(trainer, data, model,
                                 snapshot_path.empty() ? nullptr : &checkpoint);
    if (!report.ok()) std::abort();
    total_ms += timer.ElapsedMillis();
  }
  return total_ms / reps;
}

std::string OverheadCell(double ms, double baseline_ms) {
  if (baseline_ms <= 0.0) return "-";
  return TablePrinter::Percent(ms / baseline_ms - 1.0);
}

}  // namespace

int main() {
  const int reps = benchutil::EnvInt("CCDB_REPS", 5);
  const std::string dir = BenchDir();
  std::cout << "Durability ablation: cost of crash safety (" << reps
            << " reps per cell)\n\n";

  const DispatchSetup dispatch;
  // First durable section => the CCDB_CRASH_POINT injection target.
  RecoveryDemo(dispatch, dir);

  {
    TablePrinter table({"dispatch durability", "mean ms", "overhead"});
    const std::string path = dir + "/ablation_durability_dispatch.jnl";
    const double off = MeanDispatchMillis(dispatch, reps, "", SyncPolicy::kNone);
    table.AddRow({"journal off", TablePrinter::Num(off, 1), "-"});
    for (SyncPolicy sync : {SyncPolicy::kNone, SyncPolicy::kBatch,
                            SyncPolicy::kEveryRecord}) {
      const double ms = MeanDispatchMillis(dispatch, reps, path, sync);
      table.AddRow({PolicyName(sync), TablePrinter::Num(ms, 1),
                    OverheadCell(ms, off)});
    }
    std::remove(path.c_str());
    table.Print(std::cout);
    std::cout << "\n";
  }

  {
    const ExpansionSetup expansion;
    TablePrinter table({"expansion durability", "mean ms", "overhead"});
    const std::string path = dir + "/ablation_durability_expansion.jnl";
    const double off =
        MeanExpansionMillis(expansion, reps, "", SyncPolicy::kNone);
    table.AddRow({"manifest off", TablePrinter::Num(off, 1), "-"});
    for (SyncPolicy sync : {SyncPolicy::kNone, SyncPolicy::kBatch,
                            SyncPolicy::kEveryRecord}) {
      const double ms = MeanExpansionMillis(expansion, reps, path, sync);
      table.AddRow({PolicyName(sync), TablePrinter::Num(ms, 1),
                    OverheadCell(ms, off)});
    }
    std::remove(path.c_str());
    table.Print(std::cout);
    std::cout << "\n";
  }

  {
    data::SyntheticWorld world{data::TinyConfig()};
    const RatingDataset data = world.SampleRatings();
    TablePrinter table({"trainer durability", "mean ms", "overhead"});
    const std::string path = dir + "/ablation_durability_sgd.ckpt";
    const double off = MeanSgdMillis(data, reps, "", 1);
    table.AddRow({"snapshots off", TablePrinter::Num(off, 1), "-"});
    for (int every : {1, 5}) {
      const double ms = MeanSgdMillis(data, reps, path, every);
      table.AddRow({"snapshot every " + std::to_string(every) + " epochs",
                    TablePrinter::Num(ms, 1), OverheadCell(ms, off)});
    }
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    table.Print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
