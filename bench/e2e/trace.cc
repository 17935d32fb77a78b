#include <algorithm>
#include <cstdio>
#include <string_view>

#include "e2e.h"

namespace ccdb::e2e {

std::int64_t Trace::Open(const char* name, std::int64_t parent,
                         std::uint64_t request_id) {
  spans_.push_back({name, NowNs(), 0, parent, request_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::Close(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
}

void Trace::Append(const Trace& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kRoot) span.parent += offset;
    spans_.push_back(span);
  }
}

std::string Trace::ToJson() const {
  std::string json = "{\"spans\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%lld,\"request_id\":%llu}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    json += buffer;
  }
  json += "\n]}\n";
  return json;
}

std::vector<double> SpanDurationsMs(const Trace& trace, const char* name) {
  std::vector<double> durations;
  for (const Span& span : trace.spans()) {
    if (std::string_view(span.name) == name) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) *
                          1e-6);
    }
  }
  return durations;
}

namespace {

struct LayerTotals {
  std::string_view root;  // name of the op span the layer ran under
  std::string_view name;
  std::size_t calls = 0;
  std::int64_t self_ns = 0;
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

LayerTotals& Totals(std::vector<LayerTotals>& layers, std::string_view root,
                    std::string_view name) {
  for (LayerTotals& layer : layers) {
    if (layer.root == root && layer.name == name) return layer;
  }
  layers.push_back({root, name});
  return layers.back();
}

}  // namespace

void AddLayerMetrics(const Trace& trace, const LayerCounts& counts,
                     double untraced_p50_ms, double traced_p50_ms,
                     RunResult& out) {
  const std::vector<Span>& spans = trace.spans();

  // Self time = duration minus the time covered by direct children. The
  // benchmark's spans nest strictly and children run one after another, so
  // the children's union is their sum. An op span's self time is the part
  // of the op no layer span covers.
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent != Trace::kRoot) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  // Per op-span name: the op spans themselves (layer name "") and the
  // layers under them, in order of first appearance. Parents precede
  // their children in the log.
  std::vector<LayerTotals> layers;
  std::vector<std::size_t> root_of(spans.size());
  std::int64_t op_ns = 0;
  std::int64_t unattributed_ns = 0;
  std::size_t ops = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    const bool is_op = spans[i].parent == Trace::kRoot;
    root_of[i] =
        is_op ? i : root_of[static_cast<std::size_t>(spans[i].parent)];
    const std::string_view root = spans[root_of[i]].name;
    if (is_op) {
      LayerTotals& op = Totals(layers, root, "");
      ++op.calls;
      op.self_ns += duration;  // the op's total, for the shares below
      LayerTotals& uncovered = Totals(layers, root, "(unattributed)");
      ++uncovered.calls;
      uncovered.self_ns += duration - child_ns[i];
      op_ns += duration;
      unattributed_ns += duration - child_ns[i];
      ++ops;
    } else {
      LayerTotals& layer = Totals(layers, root, spans[i].name);
      ++layer.calls;
      layer.self_ns += duration - child_ns[i];
    }
  }

  for (const LayerTotals& op : layers) {
    if (!op.name.empty()) continue;
    std::printf("# %.*s spans: %zu, %.1f ms\n",
                static_cast<int>(op.root.size()), op.root.data(), op.calls,
                static_cast<double>(op.self_ns) * 1e-6);
    std::printf("#   %-26s %7s %11s %7s\n", "layer", "calls", "self_ms",
                "share");
    for (const LayerTotals& layer : layers) {
      if (layer.root != op.root || layer.name.empty()) continue;
      std::printf("#   %-26.*s %7zu %11.1f %6.1f%%\n",
                  static_cast<int>(layer.name.size()), layer.name.data(),
                  layer.calls, static_cast<double>(layer.self_ns) * 1e-6,
                  100.0 * Ratio(static_cast<double>(layer.self_ns),
                                static_cast<double>(op.self_ns)));
    }
  }

  auto median_ms = [&](const char* name) {
    return Median(SpanDurationsMs(trace, name));
  };
  out.Add("db.parse_us", median_ms("db.parse") * 1e3, "us");
  out.Add("db.scan_ms", median_ms("db.scan"), "ms");
  out.Add("db.rows_scanned", Ratio(counts.rows_scanned, counts.scans),
          "count");
  out.Add("db.rows_returned", Ratio(counts.rows_returned, counts.scans),
          "count");
  out.Add("db.fill_ms", median_ms("db.fill"), "ms");
  out.Add("crowd.post_ms", median_ms("crowd.post"), "ms");
  out.Add("crowd.vote_ms", median_ms("crowd.vote"), "ms");
  out.Add("crowd.judgments", Ratio(counts.judgments, counts.crowd_runs),
          "count");
  out.Add("crowd.classified_ratio",
          Ratio(counts.gold_classified, counts.gold_posted), "ratio");
  out.Add("crowd.repost_rounds",
          Ratio(counts.repost_rounds, counts.crowd_runs), "count");
  out.Add("crowd.wasted_dollars",
          Ratio(counts.wasted_dollars, counts.crowd_runs), "USD");
  out.Add("core.extractor.train_ms", median_ms("core.extractor.train"), "ms");
  out.Add("core.extractor.support_vectors",
          Ratio(counts.support_vectors, counts.trainings), "count");
  out.Add("core.extractor.extract_ms", median_ms("core.extractor.extract"),
          "ms");
  double extract_s = 0.0;
  for (double ms : SpanDurationsMs(trace, "core.extractor.extract")) {
    extract_s += ms * 1e-3;
  }
  out.Add("core.extractor.items_per_s",
          Ratio(counts.items_extracted, extract_s), "1/s");
  out.Add("core.service.admit_us", median_ms("core.service.admit") * 1e3,
          "us");
  out.Add("core.service.wait_ms", median_ms("core.service.wait"), "ms");
  out.Add("core.service.dedup_ratio",
          Ratio(counts.service_deduped, counts.service_submitted), "ratio");
  out.Add("core.service.shed_ratio",
          Ratio(counts.service_shed, counts.service_submitted), "ratio");
  out.Add("core.service.expansions_run", counts.service_expansions, "count");
  out.Add("trace.overhead_pct",
          100.0 * Ratio(traced_p50_ms - untraced_p50_ms, untraced_p50_ms),
          "%");
  out.Add("trace.unattributed_ms",
          Ratio(static_cast<double>(unattributed_ns) * 1e-6,
                static_cast<double>(ops)),
          "ms");
  out.Add("trace.attributed_share",
          1.0 - Ratio(static_cast<double>(unattributed_ns),
                      static_cast<double>(op_ns)),
          "ratio");
}

}  // namespace ccdb::e2e
