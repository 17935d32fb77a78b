// Seeded chaos soak: every durable subsystem is hammered with combined
// storage faults (FaultFs: short writes, ENOSPC, open/rename/fsync
// failures, torn tails, read bit flips), crowd-platform faults
// (abandonment, churn, duplicates), random cancellation (a crash-point
// trap that fires a CancellationSource instead of killing the process),
// and service overload — and after every recovery three invariants are
// checked:
//
//   (a) no lost acknowledged judgment — what a clean scan of the journal
//       sees can never shrink between attempts;
//   (b) no duplicate spend — the final journal accounts for exactly the
//       dollars a fault-free run spends, never more;
//   (c) bit-identical resume — the state produced through any number of
//       faulted attempts equals the fault-free run byte for byte.
//
// Every random decision flows from one --seed, so a failing iteration
// replays with a single command (printed on failure):
//
//   chaos_soak --seed=<failing seed> --iters=1

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cancellation.h"
#include "common/check.h"
#include "common/crash_point.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/expansion_manifest.h"
#include "core/expansion_service.h"
#include "core/perceptual_space.h"
#include "crowd/dispatch_journal.h"
#include "crowd/dispatcher.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "factorization/checkpoint.h"
#include "factorization/sgd_trainer.h"

namespace {

using namespace ccdb;  // NOLINT
using CrashPoints = ::ccdb::testing::CrashPoints;

// ------------------------------------------------------------- plumbing

std::string ChaosDir() {
  const char* dir = std::getenv("CCDB_CHAOS_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp");
}

/// Clears a durable path and every side file the recovery ladder may have
/// left next to it (generations, quarantines, corrupt set-asides, tmps).
void RemoveDurableFamily(const std::string& path) {
  std::remove(path.c_str());
  for (const char* suffix :
       {".1", ".2", ".3", ".tmp", ".quarantine", ".corrupt", ".corrupt.1",
        ".corrupt.2", ".corrupt.3", ".1.corrupt", ".2.corrupt"}) {
    std::remove((path + suffix).c_str());
  }
}

/// The crash-point trap of this harness cancels instead of crashing: the
/// durable loops observe their StopCondition at the next probe and return
/// partial-but-journaled state, modelling an operator abort racing a run.
CancellationSource* g_cancel_target = nullptr;

void CancelTrap(const std::string& /*site*/) {
  if (g_cancel_target != nullptr) g_cancel_target->Cancel();
}

/// One failed invariant aborts the soak; everything needed to reproduce
/// (the iteration seed) and to diagnose (the fault trace) is printed.
struct SoakFailure {
  bool failed = false;
  std::string what;
};

void ReportFailure(SoakFailure& failure, const std::string& what,
                   const FaultFs* fs) {
  failure.failed = true;
  failure.what = what;
  std::cout << "\nINVARIANT VIOLATION: " << what << "\n";
  if (fs != nullptr) {
    const std::vector<IoTraceEntry> trace = fs->Trace();
    const std::size_t shown = std::min<std::size_t>(trace.size(), 25);
    std::cout << "last " << shown << " of " << trace.size()
              << " I/O ops (faults injected: " << fs->faults_injected()
              << "):\n";
    for (std::size_t i = trace.size() - shown; i < trace.size(); ++i) {
      std::cout << "  " << trace[i].ToString() << "\n";
    }
  }
}

/// Storage-fault mix for the journal-backed phases. Read bit flips stay
/// off here on purpose: a flip in the *final* journal record is physically
/// indistinguishable from a torn tail, so the scan quarantines + truncates
/// it — correct ladder behavior, but it would trip the strict monotone
/// count this soak enforces. Flips are exercised against the snapshot
/// generation ladder (trainer phase), which tolerates them by design.
FaultFsOptions JournalFaults(std::uint64_t seed) {
  FaultFsOptions options;
  options.seed = seed;
  options.open_error_prob = 0.02;
  options.read_error_prob = 0.01;
  options.write_error_prob = 0.01;
  options.short_write_prob = 0.02;
  options.sync_error_prob = 0.02;
  options.torn_tail_prob = 0.30;
  options.rename_error_prob = 0.02;
  options.truncate_error_prob = 0.01;
  options.sync_dir_error_prob = 0.02;
  return options;
}

/// Full mix for the snapshot phase: the generation ladder must survive
/// read-side bit rot and disk-full on top of the journal mix.
FaultFsOptions SnapshotFaults(std::uint64_t seed, Rng& rng) {
  FaultFsOptions options = JournalFaults(seed);
  options.bit_flip_prob = 0.05;
  options.read_error_prob = 0.02;
  if (rng.Bernoulli(0.3)) {
    // Disk-full partway through the run (ENOSPC after a random budget).
    options.max_total_write_bytes = 4096 + rng.UniformInt(1 << 16);
  }
  return options;
}

constexpr int kMaxChaosAttempts = 25;

// ------------------------------------------------- phase A: dispatch

struct DispatchFixture {
  std::vector<bool> labels;
  crowd::WorkerPool pool;
  crowd::HitRunConfig hit;
  crowd::DispatcherConfig policy;

  DispatchFixture() {
    Rng rng(71);
    labels.resize(60);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = rng.Bernoulli(0.3);
    }
    for (int i = 0; i < 10; ++i) {
      crowd::WorkerProfile worker;
      worker.honest = true;
      worker.knowledge = 0.9;
      worker.accuracy = 0.9;
      worker.judgments_per_minute = 2.0;
      pool.workers.push_back(worker);
    }
    hit.judgments_per_item = 3;
    hit.items_per_hit = 10;
    hit.payment_per_hit = 0.02;
    hit.fault.abandonment_prob = 0.25;  // crowd faults -> repost rounds
    hit.fault.churn_prob = 0.1;
    hit.fault.duplicate_prob = 0.05;
    policy.deadline_minutes = 120.0;
    policy.max_reposts = 3;
    policy.backoff_initial_minutes = 2.0;
  }
};

/// Reads the run journal at `path` with a clean filesystem and replays its
/// frame; a journal that does not exist yet is an empty one.
StatusOr<RunFrame> ScanRunJournal(const std::string& path,
                                  std::uint64_t fingerprint) {
  StatusOr<JournalContents> contents = ReadJournal(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) return RunFrame{};
    return contents.status();
  }
  return ReplayRunFrame(contents.value().records, fingerprint);
}

/// Scans the dispatch journal with a clean filesystem. Structural
/// invalidity is itself an invariant violation (the journal must always
/// hold a valid prefix).
bool ScanDispatchJournal(const std::string& path, std::uint64_t fingerprint,
                         crowd::DispatchJournalState& state, bool& finished,
                         std::string& error) {
  StatusOr<RunFrame> frame = ScanRunJournal(path, fingerprint);
  if (!frame.ok()) {
    error = "journal unreadable with a clean fs: " + frame.status().ToString();
    return false;
  }
  StatusOr<crowd::DispatchJournalState> replayed =
      crowd::ReplayDispatchJournal(frame.value().records);
  if (!replayed.ok()) {
    error = "journal replay failed: " + replayed.status().ToString();
    return false;
  }
  state = std::move(replayed).value();
  finished = frame.value().finished;
  return true;
}

bool SameJudgments(const std::vector<crowd::Judgment>& a,
                   const std::vector<crowd::Judgment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item || a[i].worker != b[i].worker ||
        a[i].answer != b[i].answer ||
        a[i].timestamp_minutes != b[i].timestamp_minutes ||
        a[i].cost_dollars != b[i].cost_dollars ||
        a[i].is_gold != b[i].is_gold) {
      return false;
    }
  }
  return true;
}

void RunDispatchPhase(const DispatchFixture& fixture, std::uint64_t seed,
                      Rng& rng, const std::string& dir,
                      SoakFailure& failure) {
  crowd::HitRunConfig hit = fixture.hit;
  hit.seed = seed;
  hit.fault.seed = seed ^ 0x5EEDF00Dull;

  // Fault-free reference: same crowd faults, clean storage.
  const std::uint64_t fingerprint = crowd::DispatchFingerprint(
      fixture.pool, fixture.labels, hit, fixture.policy);
  const std::string ref_path = dir + "/chaos_dispatch_ref.jnl";
  RemoveDurableFamily(ref_path);
  JournalOptions clean_journal;
  clean_journal.path = ref_path;
  const crowd::Dispatcher clean_dispatcher(fixture.pool, fixture.policy);
  StatusOr<crowd::DispatchResult> ref =
      clean_dispatcher.Run(fixture.labels, hit, &clean_journal);
  if (!ref.ok() || !ref.value().stop_status.ok()) {
    ReportFailure(failure, "reference dispatch failed on a clean fs",
                  nullptr);
    return;
  }
  crowd::DispatchJournalState ref_journal;
  bool finished = false;
  std::string scan_error;
  if (!ScanDispatchJournal(ref_path, fingerprint, ref_journal, finished,
                           scan_error)) {
    ReportFailure(failure, "reference journal: " + scan_error, nullptr);
    return;
  }

  const std::string path = dir + "/chaos_dispatch.jnl";
  RemoveDurableFamily(path);
  std::size_t seen_judgments = 0;
  double seen_dollars = 0.0;
  StatusOr<crowd::DispatchResult> result =
      Status::Internal("no chaos attempt ran");
  bool done = false;
  for (int attempt = 0; attempt < kMaxChaosAttempts && !done; ++attempt) {
    FaultFs fault_fs(JournalFaults(seed * 1000 + attempt));
    JournalOptions journal;
    journal.path = path;
    journal.fs = &fault_fs;

    crowd::DispatcherConfig policy = fixture.policy;
    CancellationSource cancel;
    if (rng.Bernoulli(0.35)) {
      // Random abort: after 1 + k journaled judgments the trap fires the
      // token; the dispatcher stops at its next probe, state journaled.
      policy.stop = StopCondition(cancel.token());
      g_cancel_target = &cancel;
      CrashPoints::Arm(rng.Bernoulli(0.5) ? "dispatch.judgment"
                                          : "dispatch.posting_end",
                       1 + rng.UniformInt(12));
    }

    const crowd::Dispatcher dispatcher(fixture.pool, policy);
    result = dispatcher.Run(fixture.labels, hit, &journal);
    CrashPoints::Disarm();
    g_cancel_target = nullptr;

    done = result.ok() && result.value().stop_status.ok();

    // Invariants (a) + (b) after every attempt, successful or not: the
    // clean-scan judgment count is monotone, and the journal never holds
    // more money than the fault-free run spends in total.
    crowd::DispatchJournalState state;
    if (!ScanDispatchJournal(path, fingerprint, state, finished, scan_error)) {
      ReportFailure(failure, "dispatch attempt: " + scan_error, &fault_fs);
      return;
    }
    if (state.paid_judgments() < seen_judgments ||
        state.paid_dollars() < seen_dollars - 1e-9) {
      ReportFailure(failure,
                    "lost acknowledged judgments: journal shrank from " +
                        std::to_string(seen_judgments) + " to " +
                        std::to_string(state.paid_judgments()),
                    &fault_fs);
      return;
    }
    if (state.paid_dollars() > ref_journal.paid_dollars() + 1e-9) {
      ReportFailure(failure,
                    "duplicate spend: journal holds $" +
                        std::to_string(state.paid_dollars()) +
                        " vs fault-free $" +
                        std::to_string(ref_journal.paid_dollars()),
                    &fault_fs);
      return;
    }
    seen_judgments = state.paid_judgments();
    seen_dollars = state.paid_dollars();
  }

  if (!done) {
    // The faulted attempts never got a clean window; the journaled state
    // must still be usable — a clean resume finishes the dispatch.
    JournalOptions journal;
    journal.path = path;
    result = clean_dispatcher.Run(fixture.labels, hit, &journal);
    if (!result.ok() || !result.value().stop_status.ok()) {
      ReportFailure(failure,
                    "clean resume after chaos failed: " +
                        result.status().ToString(),
                    nullptr);
      return;
    }
  }

  // Invariant (c): bit-identical to the fault-free run, and (b) exactly
  // the reference dollars on the books — not a cent more or less.
  if (!SameJudgments(result.value().judgments, ref.value().judgments) ||
      result.value().total_cost_dollars !=
          ref.value().total_cost_dollars ||
      result.value().total_minutes != ref.value().total_minutes) {
    ReportFailure(failure,
                  "resumed dispatch diverged from the fault-free run",
                  nullptr);
    return;
  }
  crowd::DispatchJournalState final_state;
  if (!ScanDispatchJournal(path, fingerprint, final_state, finished,
                           scan_error)) {
    ReportFailure(failure, "final journal: " + scan_error, nullptr);
    return;
  }
  if (final_state.paid_judgments() != ref_journal.paid_judgments() ||
      std::fabs(final_state.paid_dollars() - ref_journal.paid_dollars()) >
          1e-9 ||
      !finished) {
    ReportFailure(failure, "final journal accounting differs from the "
                           "fault-free journal",
                  nullptr);
    return;
  }
  RemoveDurableFamily(path);
  RemoveDurableFamily(ref_path);
}

// ------------------------------------------------ phase B: expansion

struct ExpansionFixture {
  data::SyntheticWorld world{data::TinyConfig()};
  core::PerceptualSpace space;
  std::vector<std::uint32_t> sample;
  std::vector<crowd::Judgment> judgments;
  core::IncrementalExpansionOptions options;
  std::vector<std::string> ref_encoded;  // fault-free checkpoint bytes

  ExpansionFixture()
      : space([&] {
          core::PerceptualSpaceOptions space_options;
          space_options.model.dims = 12;
          space_options.trainer.max_epochs = 8;
          space_options.trainer.learning_rate = 0.02;
          return core::PerceptualSpace::Build(world.SampleRatings(),
                                              space_options);
        }()) {
    Rng rng(79);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world.num_items(), 60)) {
      sample.push_back(static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < sample.size(); ++i) {
      for (int vote = 0; vote < 3; ++vote) {
        crowd::Judgment judgment;
        judgment.item = static_cast<std::uint32_t>(i);
        judgment.answer = world.GenreLabel(0, sample[i])
                              ? crowd::Answer::kPositive
                              : crowd::Answer::kNegative;
        judgment.timestamp_minutes = rng.Uniform(0.0, 20.0);
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

  /// The expansion inputs are fixed, so the fault-free checkpoint stream
  /// is computed once and shared by every iteration.
  bool ComputeReference(const std::string& dir) {
    JournalOptions journal;
    journal.path = dir + "/chaos_expansion_ref.jnl";
    RemoveDurableFamily(journal.path);
    StatusOr<std::vector<core::ExpansionCheckpoint>> checkpoints =
        core::RunIncrementalExpansion(space, sample, judgments, 20.0, options,
                                      &journal);
    RemoveDurableFamily(journal.path);
    if (!checkpoints.ok()) return false;
    for (const core::ExpansionCheckpoint& checkpoint : checkpoints.value()) {
      ref_encoded.push_back(core::EncodeExpansionCheckpoint(checkpoint));
    }
    return !ref_encoded.empty();
  }
};

/// Checks that the manifest on disk (read with a clean fs) is a bitwise
/// prefix of the fault-free checkpoint stream, no shorter than before.
bool CheckManifestPrefix(const std::string& path,
                         const ExpansionFixture& fixture, std::size_t& seen,
                         std::string& error) {
  const std::uint64_t fingerprint = core::ExpansionFingerprint(
      fixture.sample, fixture.judgments, 20.0, fixture.options);
  StatusOr<RunFrame> frame = ScanRunJournal(path, fingerprint);
  if (!frame.ok()) {
    error = "manifest unreadable with a clean fs: " + frame.status().ToString();
    return false;
  }
  StatusOr<std::vector<core::ExpansionCheckpoint>> checkpoints =
      core::ReplayExpansionManifest(frame.value().records,
                                    fixture.sample.size());
  if (!checkpoints.ok()) {
    error = "manifest replay failed: " + checkpoints.status().ToString();
    return false;
  }
  const std::vector<std::string>& ref_encoded = fixture.ref_encoded;
  if (checkpoints.value().size() < seen) {
    error = "manifest shrank from " + std::to_string(seen) + " to " +
            std::to_string(checkpoints.value().size()) + " checkpoints";
    return false;
  }
  if (checkpoints.value().size() > ref_encoded.size()) {
    error = "manifest holds more checkpoints than the fault-free run";
    return false;
  }
  for (std::size_t i = 0; i < checkpoints.value().size(); ++i) {
    if (core::EncodeExpansionCheckpoint(checkpoints.value()[i]) !=
        ref_encoded[i]) {
      error = "checkpoint " + std::to_string(i) +
              " diverges bitwise from the fault-free run";
      return false;
    }
  }
  seen = checkpoints.value().size();
  return true;
}

void RunExpansionPhase(const ExpansionFixture& fixture, std::uint64_t seed,
                       Rng& rng, const std::string& dir,
                       SoakFailure& failure) {
  const std::string path = dir + "/chaos_expansion.jnl";
  RemoveDurableFamily(path);
  std::size_t seen = 0;
  std::string error;
  bool done = false;
  StatusOr<std::vector<core::ExpansionCheckpoint>> checkpoints =
      Status::Internal("no chaos attempt ran");
  for (int attempt = 0; attempt < kMaxChaosAttempts && !done; ++attempt) {
    FaultFs fault_fs(JournalFaults(seed * 1000 + 500 + attempt));
    JournalOptions journal;
    journal.path = path;
    journal.fs = &fault_fs;

    core::IncrementalExpansionOptions options = fixture.options;
    CancellationSource cancel;
    if (rng.Bernoulli(0.4)) {
      options.stop = StopCondition(cancel.token());
      g_cancel_target = &cancel;
      CrashPoints::Arm("expansion.checkpoint", 1 + rng.UniformInt(4));
    }

    checkpoints = core::RunIncrementalExpansion(
        fixture.space, fixture.sample, fixture.judgments, 20.0, options,
        &journal);
    CrashPoints::Disarm();
    g_cancel_target = nullptr;
    done = checkpoints.ok();

    if (!CheckManifestPrefix(path, fixture, seen, error)) {
      ReportFailure(failure, "expansion attempt: " + error, &fault_fs);
      return;
    }
  }

  if (!done) {
    JournalOptions journal;
    journal.path = path;
    checkpoints = core::RunIncrementalExpansion(
        fixture.space, fixture.sample, fixture.judgments, 20.0,
        fixture.options, &journal);
    if (!checkpoints.ok()) {
      ReportFailure(failure,
                    "clean expansion resume after chaos failed: " +
                        checkpoints.status().ToString(),
                    nullptr);
      return;
    }
  }

  if (checkpoints.value().size() != fixture.ref_encoded.size()) {
    ReportFailure(failure,
                  "resumed expansion produced " +
                      std::to_string(checkpoints.value().size()) +
                      " checkpoints, fault-free run produced " +
                      std::to_string(fixture.ref_encoded.size()),
                  nullptr);
    return;
  }
  for (std::size_t i = 0; i < checkpoints.value().size(); ++i) {
    if (core::EncodeExpansionCheckpoint(checkpoints.value()[i]) !=
        fixture.ref_encoded[i]) {
      ReportFailure(failure,
                    "resumed expansion checkpoint " + std::to_string(i) +
                        " is not bit-identical to the fault-free run",
                    nullptr);
      return;
    }
  }
  RemoveDurableFamily(path);
}

// ------------------------------------------- phase C: trainer snapshots

struct TrainerFixture {
  RatingDataset data;
  factorization::FactorModelConfig model_config;
  factorization::SgdTrainerConfig trainer;
  std::string ref_model;  // fault-free final model bytes
  int ref_epochs = 0;

  explicit TrainerFixture(const data::SyntheticWorld& world)
      : data(world.SampleRatings()) {
    model_config.kind = factorization::ModelKind::kEuclideanEmbedding;
    model_config.dims = 8;
    trainer.max_epochs = 5;
    trainer.learning_rate = 0.02;
    factorization::FactorModel reference(model_config, data);
    const StatusOr<factorization::TrainingReport> report =
        TrainSgd(trainer, data, reference);
    CCDB_CHECK_MSG(report.ok(), report.status().ToString());
    ref_model = factorization::EncodeFactorModel(reference);
    ref_epochs = report.value().epochs_run;
  }
};

void RunTrainerPhase(const TrainerFixture& fixture, std::uint64_t seed,
                     Rng& rng, const std::string& dir,
                     SoakFailure& failure) {
  const std::string path = dir + "/chaos_sgd.ckpt";
  RemoveDurableFamily(path);
  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.keep_generations = 2;

  bool done = false;
  StatusOr<factorization::TrainingReport> report =
      Status::Internal("no chaos attempt ran");
  std::string final_model;
  for (int attempt = 0; attempt < kMaxChaosAttempts && !done; ++attempt) {
    FaultFs fault_fs(SnapshotFaults(seed * 1000 + 750 + attempt, rng));
    factorization::TrainerCheckpointOptions faulty = checkpoint;
    faulty.fs = &fault_fs;
    factorization::FactorModel model(fixture.model_config, fixture.data);
    report = TrainSgd(fixture.trainer, fixture.data, model, &faulty);
    if (report.ok()) {
      final_model = factorization::EncodeFactorModel(model);
      done = true;
    }
  }
  if (!done) {
    factorization::FactorModel model(fixture.model_config, fixture.data);
    report = TrainSgd(fixture.trainer, fixture.data, model, &checkpoint);
    if (!report.ok()) {
      ReportFailure(failure,
                    "clean SGD resume after chaos failed: " +
                        report.status().ToString(),
                    nullptr);
      return;
    }
    final_model = factorization::EncodeFactorModel(model);
  }
  if (final_model != fixture.ref_model ||
      report.value().epochs_run != fixture.ref_epochs) {
    ReportFailure(failure,
                  "SGD model resumed through snapshot faults is not "
                  "bit-identical to the fault-free run",
                  nullptr);
    return;
  }
  RemoveDurableFamily(path);
}

// --------------------------------------------- phase D: service overload

void RunOverloadPhase(const ExpansionFixture& fixture, std::uint64_t seed,
                      Rng& rng, SoakFailure& failure) {
  crowd::WorkerPool pool;
  for (int i = 0; i < 8; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  core::ExpansionServiceOptions options;
  options.workers = 2;
  options.queue_depth = 1;  // tiny queue: the burst must shed
  core::ExpansionService service(fixture.space, pool, options);

  auto make_job = [&](const std::string& attribute,
                      std::uint64_t job_seed) {
    core::ExpansionJob job;
    job.table = "movies";
    job.request.attribute_name = attribute;
    Rng job_rng(job_seed);
    for (std::size_t index :
         job_rng.SampleWithoutReplacement(fixture.world.num_items(), 40)) {
      job.request.gold_sample_items.push_back(
          static_cast<std::uint32_t>(index));
      job.sample_truth.push_back(
          fixture.world.GenreLabel(0, static_cast<std::uint32_t>(index)));
    }
    job.hit_config.judgments_per_item = 3;
    job.hit_config.seed = job_seed;
    return job;
  };

  CancellationSource cancelled_already;
  cancelled_already.Cancel();
  std::vector<core::ExpansionService::Ticket> tickets;
  std::size_t submitted = 0;
  for (int burst = 0; burst < 8; ++burst) {
    core::ExpansionJob job =
        make_job("chaos_attr_" + std::to_string(seed % 3), seed % 3);
    if (rng.Bernoulli(0.25)) job.cancel = cancelled_already.token();
    ++submitted;
    StatusOr<core::ExpansionService::Ticket> ticket =
        service.ExpandAttribute(std::move(job));
    if (ticket.ok()) {
      tickets.push_back(std::move(ticket).value());
    } else if (ticket.status().code() != StatusCode::kResourceExhausted &&
               ticket.status().code() != StatusCode::kUnavailable) {
      ReportFailure(failure,
                    "overload burst: unexpected admission error: " +
                        ticket.status().ToString(),
                    nullptr);
      return;
    }
  }
  for (core::ExpansionService::Ticket& ticket : tickets) {
    // ccdb-lint: allow(status-nodiscard) — the overload phase only audits
    // the service counters; per-job results are irrelevant here.
    (void)ticket.Wait();
  }
  service.Drain();

  const core::ServiceStats stats = service.stats();
  if (stats.submitted != submitted ||
      stats.submitted != stats.admitted + stats.deduped + stats.shed +
                             stats.breaker_rejected ||
      stats.admitted != stats.completed + stats.failed + stats.cancelled +
                            stats.deadline_exceeded) {
    ReportFailure(failure,
                  "service stats identities broken under overload",
                  nullptr);
    return;
  }
  if (stats.expansions_run == 0 && stats.crowd_dollars_spent > 0.0) {
    ReportFailure(failure,
                  "service spent crowd dollars without running an "
                  "expansion",
                  nullptr);
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int iters = benchutil::EnvInt("CCDB_CHAOS_ITERS", 200);
  std::uint64_t base_seed =
      static_cast<std::uint64_t>(benchutil::EnvInt("CCDB_CHAOS_SEED", 1));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--iters=", 0) == 0) {
      iters = std::atoi(arg.c_str() + std::strlen("--iters="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      base_seed = std::strtoull(arg.c_str() + std::strlen("--seed="), nullptr,
                                10);
    } else {
      std::cerr << "usage: chaos_soak [--iters=N] [--seed=S]\n";
      return 2;
    }
  }

  const std::string dir = ChaosDir();
  CrashPoints::SetTrapHandler(CancelTrap);

  std::cout << "chaos soak: " << iters << " iterations, seeds " << base_seed
            << ".." << (base_seed + static_cast<std::uint64_t>(iters) - 1)
            << ", dir " << dir << "\n";

  const DispatchFixture dispatch;
  ExpansionFixture expansion;
  if (!expansion.ComputeReference(dir)) {
    std::cerr << "cannot compute the fault-free expansion reference\n";
    return 1;
  }
  const TrainerFixture trainer(expansion.world);

  for (int iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(iter);
    Rng rng(seed);
    SoakFailure failure;

    RunDispatchPhase(dispatch, seed, rng, dir, failure);
    if (!failure.failed) {
      RunExpansionPhase(expansion, seed, rng, dir, failure);
    }
    if (!failure.failed) RunTrainerPhase(trainer, seed, rng, dir, failure);
    if (!failure.failed && seed % 10 == 0) {
      RunOverloadPhase(expansion, seed, rng, failure);
    }

    if (failure.failed) {
      std::cout << "\nCHAOS SOAK FAILED at iteration " << iter
                << " (seed " << seed << "): " << failure.what << "\n"
                << "replay with: chaos_soak --seed=" << seed
                << " --iters=1\n";
      return 1;
    }
    if ((iter + 1) % 25 == 0 || iter + 1 == iters) {
      std::cout << "  " << (iter + 1) << "/" << iters
                << " iterations clean\n";
    }
  }
  std::cout << "chaos soak passed: " << iters
            << " iterations, all invariants held\n";
  return 0;
}
