#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "data/domains.h"
#include "e2e.h"
#include "eval/metrics.h"

namespace ccdb::e2e {

void RunResult::Fail(std::string why) {
  // Keep the first few messages; the count is what matters after that.
  constexpr std::size_t kKept = 20;
  if (errors.size() < kKept) {
    errors.push_back(std::move(why));
  } else if (errors.size() == kKept) {
    errors.push_back("(further errors elided)");
  }
}

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t HashValues(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (std::int64_t value : values) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ (bits & 0xFF)) * 0x100000001B3ull;
      bits >>= 8;
    }
  }
  return hash;
}

namespace {

// Nominal probe times: the quiet 4-vCPU reference host's for the first two,
// and the first plus thread start-up for the third (README, "Host speed").
// They set the scale of the normalized times only.
constexpr double kReferenceComputeMs = 2.4;
constexpr double kReferenceKernelMs = 2.7;
constexpr double kReferenceAllCpusMs = 2.8;

// Main thread only.
std::vector<double> compute_probe_ms;
std::vector<double> kernel_probe_ms;
std::vector<double> all_cpus_probe_ms;
std::size_t probes_discarded = 0;
double last_probe_s = -1.0;
volatile double probe_sink = 0.0;

std::int64_t CpuNs(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
}

// Floating-point work that stays in registers.
double ComputeLoop() {
  double sum = 0.0;
  for (int i = 0; i < 400000; ++i) sum += std::exp(-1e-7 * i);
  return sum;
}

double ComputeProbeMs() {
  const std::int64_t start = NowNs();
  probe_sink = ComputeLoop();
  return static_cast<double>(NowNs() - start) * 1e-6;
}

// ComputeLoop on every CPU at once, timed until the last thread ends. The
// system's parallel kernels (ExtractAll runs on every CPU) wait for their
// slowest worker, so a host that takes a CPU away for a few milliseconds
// slows them far more than one thread. Adds the probe threads' CPU time to
// `probe_cpu_ns`.
double AllCpusProbeMs(std::int64_t& probe_cpu_ns) {
  const auto threads =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  std::vector<double> sums(threads, 0.0);
  std::vector<std::int64_t> cpu_ns(threads, 0);
  const std::int64_t start = NowNs();
  {
    // Benchmark-owned threads, so a change to common::ThreadPool cannot
    // alter the probe. ccdb-lint: allow(raw-thread)
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&sums, &cpu_ns, t] {
        sums[t] = ComputeLoop();
        cpu_ns[t] = CpuNs(CLOCK_THREAD_CPUTIME_ID);  // since it started
      });
    }
    for (auto& worker : workers) worker.join();
  }
  const double ms = static_cast<double>(NowNs() - start) * 1e-6;
  for (unsigned t = 0; t < threads; ++t) {
    probe_sink = sums[t];
    probe_cpu_ns += cpu_ns[t];
  }
  return ms;
}

// The RBF kernel's access pattern: squared distances between scattered
// 32-dimensional rows of an 8 MiB matrix. One untimed pass first loads the
// matrix, so what the system left in the caches does not count.
double KernelProbeMs() {
  constexpr std::size_t kRows = 32768;
  constexpr std::size_t kDims = 32;
  static const std::vector<double> rows = [] {
    std::vector<double> values(kRows * kDims);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>((i * 2654435761u) % 1000) * 1e-3;
    }
    return values;
  }();
  double sum = 0.0;
  for (std::size_t i = 0; i < rows.size(); i += 8) sum += rows[i];
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < 20000; ++i) {
    const double* a = &rows[(i * 7919 % kRows) * kDims];
    const double* b = &rows[(i * 104729 % kRows) * kDims];
    double distance = 0.0;
    for (std::size_t k = 0; k < kDims; ++k) {
      distance += (a[k] - b[k]) * (a[k] - b[k]);
    }
    sum += std::exp(-distance);
  }
  probe_sink = sum;
  return static_cast<double>(NowNs() - start) * 1e-6;
}

}  // namespace

void ProbeHostSpeed(bool force) {
  if (!force && NowSeconds() - last_probe_s < 0.5) return;
  const std::int64_t process_start = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const std::int64_t thread_start = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t wall_start = NowNs();
  std::int64_t probe_cpu_ns = 0;
  const double compute_ms = ComputeProbeMs();
  const double kernel_ms = KernelProbeMs();
  const double all_cpus_ms = AllCpusProbeMs(probe_cpu_ns);
  // CPU time other threads of this process used while the probe ran.
  const std::int64_t others_ns =
      (CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_start) -
      (CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread_start) - probe_cpu_ns;
  if (others_ns * 20 > NowNs() - wall_start) {
    ++probes_discarded;
  } else {
    compute_probe_ms.push_back(compute_ms);
    kernel_probe_ms.push_back(kernel_ms);
    all_cpus_probe_ms.push_back(all_cpus_ms);
  }
  last_probe_s = NowSeconds();
}

double HostSlowdown() {
  for (int i = 0; i < 10 && compute_probe_ms.empty(); ++i) {
    ProbeHostSpeed(true);
  }
  if (compute_probe_ms.empty()) return 1.0;
  return std::cbrt(Median(compute_probe_ms) / kReferenceComputeMs *
                   Median(kernel_probe_ms) / kReferenceKernelMs *
                   Median(all_cpus_probe_ms) / kReferenceAllCpusMs);
}

double HostProbesDiscarded() {
  return static_cast<double>(probes_discarded);
}

data::WorldConfig PaperWorld(bool smoke) {
  if (smoke) return data::TinyConfig();
  data::WorldConfig config = data::MoviesConfig(1.0);
  // ~0.53M ratings instead of the paper's 6.05M keeps one space build near
  // a second, so every run can repeat its set-up.
  config.mean_ratings_per_user = 35.0;
  return config;
}

data::WorldConfig World100k(bool smoke) {
  if (smoke) return data::TinyConfig();
  data::WorldConfig config = data::MoviesConfig(1.0);
  config.num_items = 100000;
  config.mean_ratings_per_user = 40.0;
  return config;
}

core::PerceptualSpaceOptions SpaceOptions(bool smoke) {
  core::PerceptualSpaceOptions options;
  options.model.dims = smoke ? 16 : 32;
  options.trainer.max_epochs = smoke ? 4 : 6;
  return options;
}

std::string GenreColumn(const data::SyntheticWorld& world, std::size_t g) {
  std::string name = "is_";
  for (char c : world.config().genres[g].name) {
    name.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return name;
}

double Humor(const data::SyntheticWorld& world, std::uint32_t item) {
  return 5.0 + std::tanh(world.item_traits()(item, 0) * 6.0) * 4.0;
}

namespace {

db::Table LoadMovies(const data::SyntheticWorld& world, bool materialized) {
  std::vector<db::ColumnDef> columns = {{"item_id", db::ColumnType::kInt},
                                        {"name", db::ColumnType::kString}};
  if (materialized) {
    for (std::size_t g = 0; g < world.num_genres(); ++g) {
      columns.push_back({GenreColumn(world, g), db::ColumnType::kBool});
    }
    columns.push_back({"humor", db::ColumnType::kDouble});
  }
  db::Table movies("movies", db::Schema(columns));
  for (std::uint32_t m = 0; m < world.num_items(); ++m) {
    std::vector<db::Value> row = {db::Value(static_cast<std::int64_t>(m)),
                                  db::Value(world.ItemName(m))};
    if (materialized) {
      for (std::size_t g = 0; g < world.num_genres(); ++g) {
        row.emplace_back(static_cast<bool>(world.GenreLabel(g, m)));
      }
      row.emplace_back(Humor(world, m));
    }
    const Status status = movies.AppendRow(std::move(row));
    CCDB_CHECK_MSG(status.ok(), status.ToString());
  }
  return movies;
}

}  // namespace

Fixture BuildFixture(const data::WorldConfig& world,
                     const core::PerceptualSpaceOptions* space,
                     TableKind table) {
  Fixture fixture;
  double start = NowSeconds();
  fixture.world = std::make_unique<data::SyntheticWorld>(world);
  if (space != nullptr) {
    const RatingDataset ratings = fixture.world->SampleRatings();
    fixture.num_ratings = ratings.num_ratings();
    fixture.times.generate_s = NowSeconds() - start;
    start = NowSeconds();
    fixture.space = std::make_unique<core::PerceptualSpace>(
        core::PerceptualSpace::Build(ratings, *space));
    fixture.times.build_s = NowSeconds() - start;
  } else {
    fixture.times.generate_s = NowSeconds() - start;
  }
  start = NowSeconds();
  if (table != TableKind::kNone) {
    fixture.movies =
        LoadMovies(*fixture.world, table == TableKind::kMaterialized);
  }
  fixture.times.load_s = NowSeconds() - start;
  return fixture;
}

crowd::WorkerPool TrustedPool() {
  crowd::WorkerPool pool;
  for (int i = 0; i < 15; ++i) {
    crowd::WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 0.9;
    worker.accuracy = 0.92;
    worker.judgments_per_minute = 2.5;
    pool.workers.push_back(worker);
  }
  return pool;
}

crowd::HitRunConfig TrustedHits(std::uint64_t seed) {
  crowd::HitRunConfig config;
  config.judgments_per_item = 5;
  config.perception_flip_rate = 0.05;
  config.seed = seed;
  return config;
}

bool MoreSetups(const RunOptions& options,
                const std::vector<SetupTimes>& builds) {
  if (options.smoke) return builds.empty();
  double spent_s = 0.0;
  for (const SetupTimes& times : builds) spent_s += times.total_s();
  return builds.size() < 3 || (spent_s < 2.0 && builds.size() < 10);
}

double GMeanOf(const std::vector<bool>& column,
               const std::vector<bool>& reference) {
  return eval::GMean(eval::CountConfusion(column, reference));
}

void AddSetupMetrics(const std::vector<SetupTimes>& builds, RunResult& out) {
  std::vector<double> total, generate, build, load;
  for (const SetupTimes& times : builds) {
    total.push_back(times.total_s());
    generate.push_back(times.generate_s);
    build.push_back(times.build_s);
    load.push_back(times.load_s);
  }
  out.Add("setup_s", Median(total), "s");
  out.Add("data.generate_s", Median(generate), "s");
  out.Add("factorization.build_s", Median(build), "s");
  out.Add("db.load_s", Median(load), "s");
  out.Note("setup_builds", static_cast<double>(builds.size()));
}

void AddLatencyMetrics(const std::vector<double>& latencies_ms,
                       double busy_seconds, RunResult& out) {
  const auto completed = static_cast<double>(
      std::count_if(latencies_ms.begin(), latencies_ms.end(),
                    [](double ms) { return std::isfinite(ms); }));
  out.Add("p50_ms", Percentile(latencies_ms, 0.50), "ms");
  out.Add("p95_ms", Percentile(latencies_ms, 0.95), "ms");
  out.Add("throughput_ops", busy_seconds > 0.0 ? completed / busy_seconds : 0,
          "1/s");
  out.Note("timed_ops", static_cast<double>(latencies_ms.size()));
}

}  // namespace ccdb::e2e
