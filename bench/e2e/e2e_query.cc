// End-to-end benchmark of query-driven schema expansion: SQL text to a
// filled column, on four workloads. See bench/e2e/README.md.
//
//   e2e_query --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<file>]
//   e2e_query --smoke [--trace=<file>]
//
// Prints every metric as `name value unit`, then one JSON object with the
// host context, op counts, correctness verdict and metrics. Exits nonzero
// when an op fails or an oracle check does not hold.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/io.h"
#include "e2e.h"

namespace ccdb::e2e {
namespace {

constexpr const char* kWorkloads[] = {"sql_expand_paper", "sql_expand_100k",
                                      "sql_select_100k", "serve_paper"};

RunResult RunWorkload(std::string_view workload, const RunOptions& options,
                      Trace& trace) {
  if (workload == "sql_expand_paper") {
    return RunSqlExpand(options, /*catalog_100k=*/false, trace);
  }
  if (workload == "sql_expand_100k") {
    return RunSqlExpand(options, /*catalog_100k=*/true, trace);
  }
  if (workload == "sql_select_100k") return RunSqlSelect(options, trace);
  return RunServe(options, trace);
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Prints the metric lines and the JSON summary; returns whether the run
// was correct.
bool Report(std::string_view workload, const RunOptions& options,
            RunResult& result) {
  // End-to-end times are reported as times on the reference host (see
  // ProbeHostSpeed); the measured values stay in the context.
  const double slowdown = HostSlowdown();
  result.Note("host_probes_discarded", HostProbesDiscarded());
  for (Metric& metric : result.metrics) {
    const bool time = metric.name == "setup_s" || metric.name == "p50_ms" ||
                      metric.name == "p95_ms";
    const bool rate = metric.name == "throughput_ops";
    if (!time && !rate) continue;
    result.Note("measured_" + metric.name, metric.value);
    metric.value = time ? metric.value / slowdown : metric.value * slowdown;
  }
  result.Add("host.slowdown", slowdown, "ratio");
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  result.Add("failed_ratio",
             result.attempted == 0
                 ? 0.0
                 : static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted),
             "ratio");
  const bool correct =
      result.errors.empty() && result.failed == 0 && result.attempted > 0;
  for (const std::string& error : result.errors) {
    std::printf("# error: %s\n", error.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("%s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"seconds\":" + JsonNumber(options.seconds) +
                     ",\"traced\":" + (options.traced ? "true" : "false") +
                     ",\"smoke\":" + (options.smoke ? "true" : "false");
  json += ",\"host\":{\"nproc\":" +
          std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
          ",\"build_type\":" + JsonString(E2E_BUILD_TYPE) +
          ",\"native_arch\":" + JsonString(E2E_NATIVE_ARCH) +
          ",\"compiler\":" + JsonString(E2E_COMPILER) +
          ",\"git_commit\":" + JsonString(E2E_GIT_COMMIT) + "}";
  json += ",\"context\":{";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    json += (i == 0 ? "" : ",") + JsonString(result.context[i].name) + ":" +
            JsonNumber(result.context[i].value);
  }
  json += "},\"correct\":" + std::string(correct ? "true" : "false") +
          ",\"attempted\":" + std::to_string(result.attempted) +
          ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json += (i == 0 ? "" : ",") + JsonString(metric.name) +
            ":{\"value\":" + JsonNumber(metric.value) +
            ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct;
}

bool WriteTrace(const std::string& path, const Trace& trace) {
  if (path.empty()) return true;
  const Status status = Fs::Posix().WriteFile(path, trace.ToJson());
  if (!status.ok()) {
    std::fprintf(stderr, "writing %s: %s\n", path.c_str(),
                 status.ToString().c_str());
  }
  return status.ok();
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_query --workload=<name> --seed=<n> "
               "[--seconds=<s>] [--trace=<file>]\n"
               "       e2e_query --smoke [--trace=<file>]\n"
               "workloads: sql_expand_paper sql_expand_100k "
               "sql_select_100k serve_paper\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                                : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v = value("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0.0)) return Usage();

  if (options.smoke) {
    // Every workload at TinyConfig scale, untraced and traced.
    bool ok = true;
    Trace all;
    for (const char* name : kWorkloads) {
      for (bool traced : {false, true}) {
        options.traced = traced;
        Trace trace;
        RunResult result = RunWorkload(name, options, trace);
        ok = Report(name, options, result) && ok;
        if (traced) all.Append(trace);
      }
    }
    return ok && WriteTrace(trace_path, all) ? 0 : 1;
  }

  bool known = false;
  for (const char* name : kWorkloads) known = known || workload == name;
  if (!known) return Usage();
  options.traced = !trace_path.empty();
  Trace trace;
  RunResult result = RunWorkload(workload, options, trace);
  const bool correct = Report(workload, options, result);
  return correct && WriteTrace(trace_path, trace) ? 0 : 1;
}

}  // namespace
}  // namespace ccdb::e2e

int main(int argc, char** argv) { return ccdb::e2e::Main(argc, argv); }
