#ifndef CCDB_BENCH_E2E_E2E_H_
#define CCDB_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark: run options, the metric
// report, the world/space fixtures, the benchmark-side span recorder and
// the per-layer summary built from it. See bench/e2e/README.md.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/perceptual_space.h"
#include "crowd/platform.h"
#include "crowd/worker.h"
#include "data/synthetic_world.h"
#include "db/table.h"

namespace ccdb::e2e {

/// One invocation of a workload, fixed by the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the measured phase (a traced run splits it between its
  /// untraced baseline, the traced replay and, on serve_paper, the serial
  /// stage replay).
  double seconds = 10.0;
  /// TinyConfig world and a handful of ops: the ctest smoke run.
  bool smoke = false;
  bool traced = false;
};

/// One measurement, printed as `name value unit`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main.
struct RunResult {
  std::vector<Metric> metrics;
  /// Op counts and scale facts, echoed in the host-context JSON.
  std::vector<Metric> context;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Oracle mismatches and failed ops; any entry makes the run incorrect.
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string name, double value) {
    context.push_back({std::move(name), value, ""});
  }
  void Fail(std::string why);
};

// ---- time and statistics ----------------------------------------------------

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t NowNs();
double NowSeconds();

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Maximum resident set size of this process so far, in MiB.
double PeakRssMb();

/// splitmix64-style combination of two seeds into an independent one.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// FNV-1a over a sequence of 64-bit values (result-set fingerprints).
std::uint64_t HashValues(const std::vector<std::int64_t>& values);

// ---- host speed -------------------------------------------------------------

/// Benchmark hosts are often shared; the reference host's speed drifts by
/// 10-50% over minutes. Three fixed loops owned by the benchmark, timed
/// whenever no op is running, track that drift: one thread in registers,
/// one thread over an 8 MiB matrix, and the first on every CPU at once. A
/// sample is discarded when other threads of this process used more than
/// 5% of its wall time, so the system's own threads cannot slow the probe
/// unseen. Samples at most every 500 ms unless `force`.
void ProbeHostSpeed(bool force = false);

/// Geometric mean over the three probes of this run's median probe time
/// over a nominal probe time: above 1 when the host ran slower than the
/// quiet reference host. End-to-end times are divided by it (throughput
/// multiplied), so they read as times on that host. 1 when every sample
/// was discarded.
double HostSlowdown();
/// Probe samples discarded so far because other threads were running.
double HostProbesDiscarded();

// ---- fixtures ---------------------------------------------------------------

/// Set-up cost of one fixture build, by layer.
struct SetupTimes {
  double generate_s = 0.0;  // SyntheticWorld + SampleRatings
  double build_s = 0.0;     // PerceptualSpace::Build
  double load_s = 0.0;      // table load (rows + materialized columns)
  double service_s = 0.0;   // ExpansionService start
  double total_s() const { return generate_s + build_s + load_s + service_s; }
};

enum class TableKind {
  kNone,          // no table (serve_paper)
  kFactual,       // item_id, name: the perceptual columns are missing
  kMaterialized,  // plus is_<genre> columns and humor from the reference
};

/// The world that plays the database, its perceptual space and the movies
/// table. Built from fixed seeds: a run's --seed never changes it.
struct Fixture {
  std::unique_ptr<data::SyntheticWorld> world;
  std::unique_ptr<core::PerceptualSpace> space;  // null unless built
  db::Table movies;
  std::size_t num_ratings = 0;
  SetupTimes times;
};

/// The paper's catalog (10,562 movies, 15,000 users, six genres) with a
/// sparser rating matrix, or TinyConfig for smoke runs.
data::WorldConfig PaperWorld(bool smoke);
/// The same genres over a 100,000-item catalog, or TinyConfig.
data::WorldConfig World100k(bool smoke);
core::PerceptualSpaceOptions SpaceOptions(bool smoke);

/// Generates the world and, when `space` is set, samples ratings and
/// builds the perceptual space; then loads the table.
Fixture BuildFixture(const data::WorldConfig& world,
                     const core::PerceptualSpaceOptions* space,
                     TableKind table);

/// Column name of genre g: "is_" + lower-case genre name.
std::string GenreColumn(const data::SyntheticWorld& world, std::size_t g);
/// The numeric `humor` attribute of the select workload (0-10, from the
/// first latent trait, as in examples/movie_query.cpp).
double Humor(const data::SyntheticWorld& world, std::uint32_t item);

/// The trusted crowd of examples/movie_query.cpp: 15 honest workers with
/// knowledge 0.9 and accuracy 0.92; 5 judgments per item, perception flip
/// rate 0.05.
crowd::WorkerPool TrustedPool();
crowd::HitRunConfig TrustedHits(std::uint64_t seed);

/// Whether to build the fixture again: set-up is repeated (at least three
/// builds and two seconds) and its median reported, so set-up time is
/// steady enough to gate on. Smoke runs build once.
bool MoreSetups(const RunOptions& options,
                const std::vector<SetupTimes>& builds);

/// g-mean of a filled Boolean column against the reference labels.
double GMeanOf(const std::vector<bool>& column,
               const std::vector<bool>& reference);

/// Appends the set-up metrics (medians over the repeated builds).
void AddSetupMetrics(const std::vector<SetupTimes>& builds, RunResult& out);
/// Appends p50_ms, p95_ms and throughput_ops for a sample of op latencies
/// (failed ops are +inf) completed in `busy_seconds`.
void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       double busy_seconds, RunResult& out);

// ---- tracing ----------------------------------------------------------------

/// One call into one layer, recorded by the benchmark around a public
/// entry point. Spans of one op share `request_id`; `parent` indexes the
/// enclosing span of the same trace (-1 for an op's root span).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request_id = 0;
};

/// In-memory span log of one thread; written out when the run ends.
class Trace {
 public:
  static constexpr std::int64_t kRoot = -1;

  std::int64_t Open(const char* name, std::int64_t parent,
                    std::uint64_t request_id);
  void Close(std::int64_t span);
  /// Appends `other`'s spans, re-basing their parent indices.
  void Append(const Trace& other);

  const std::vector<Span>& spans() const { return spans_; }
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope. A null `trace` records
/// nothing, which is how the untraced path runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::int64_t parent,
             std::uint64_t request_id)
      : trace_(trace),
        index_(trace != nullptr ? trace->Open(name, parent, request_id)
                                : Trace::kRoot) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Trace* const trace_;
  const std::int64_t index_;
};

/// Counts taken at the same layer boundaries as the spans.
struct LayerCounts {
  double rows_scanned = 0.0;
  double rows_returned = 0.0;
  double scans = 0.0;
  double crowd_runs = 0.0;
  double judgments = 0.0;
  double gold_posted = 0.0;
  double gold_classified = 0.0;
  double repost_rounds = 0.0;
  double wasted_dollars = 0.0;
  double trainings = 0.0;
  double support_vectors = 0.0;
  double items_extracted = 0.0;
  // ServiceStats deltas over the traced concurrent phase (serve_paper).
  double service_submitted = 0.0;
  double service_deduped = 0.0;
  double service_shed = 0.0;
  double service_expansions = 0.0;
};

/// Appends every per-layer metric (0 for layers the workload never
/// calls), prints the per-layer self-time table, and reports tracing
/// overhead: traced op p50 against the untraced p50 of the same run.
void AddLayerMetrics(const Trace& trace, const LayerCounts& counts,
                     double untraced_p50_ms, double traced_p50_ms,
                     RunResult& out);

/// Durations in ms of the spans named `name`.
std::vector<double> SpanDurationsMs(const Trace& trace, const char* name);

// ---- workloads --------------------------------------------------------------

RunResult RunSqlExpand(const RunOptions& options, bool catalog_100k,
                       Trace& trace);
RunResult RunSqlSelect(const RunOptions& options, Trace& trace);
RunResult RunServe(const RunOptions& options, Trace& trace);

}  // namespace ccdb::e2e

#endif  // CCDB_BENCH_E2E_E2E_H_
