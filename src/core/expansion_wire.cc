#include "core/expansion_wire.h"

#include <utility>

namespace ccdb::core {

namespace {

void PutStatus(ByteWriter& w, const Status& status) {
  w.PutU8(static_cast<std::uint8_t>(status.code()));
  w.PutBytes(status.message());
}

Status GetStatus(ByteReader& r) {
  const auto code = static_cast<StatusCode>(r.GetU8());
  const std::string message(r.GetBytes());
  if (code == StatusCode::kOk) return Status::Ok();
  return Status(code, message);
}

void PutExtractor(ByteWriter& w, const ExtractorOptions& e) {
  w.PutU8(static_cast<std::uint8_t>(e.kernel.type));
  w.PutF64(e.kernel.gamma);
  w.PutU64(static_cast<std::uint64_t>(e.kernel.degree));
  w.PutF64(e.kernel.coef0);
  w.PutF64(e.gamma_scale);
  w.PutF64(e.cost);
  w.PutBool(e.balance_class_costs);
  w.PutF64(e.epsilon);
  w.PutF64(e.smo.tolerance);
  w.PutU64(e.smo.max_iterations);
}

ExtractorOptions GetExtractor(ByteReader& r) {
  ExtractorOptions e;
  e.kernel.type = static_cast<svm::KernelType>(r.GetU8());
  e.kernel.gamma = r.GetF64();
  e.kernel.degree = static_cast<int>(r.GetU64());
  e.kernel.coef0 = r.GetF64();
  e.gamma_scale = r.GetF64();
  e.cost = r.GetF64();
  e.balance_class_costs = r.GetBool();
  e.epsilon = r.GetF64();
  e.smo.tolerance = r.GetF64();
  e.smo.max_iterations = r.GetU64();
  return e;
}

void PutItems(ByteWriter& w, const std::vector<std::uint32_t>& items) {
  w.PutU64(items.size());
  for (std::uint32_t item : items) w.PutU32(item);
}

std::vector<std::uint32_t> GetItems(ByteReader& r) {
  std::vector<std::uint32_t> items;
  const std::uint64_t n = r.GetU64();
  if (!r.ok()) return items;
  items.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) items.push_back(r.GetU32());
  return items;
}

void PutBools(ByteWriter& w, const std::vector<bool>& bits) {
  w.PutU64(bits.size());
  for (bool bit : bits) w.PutBool(bit);
}

std::vector<bool> GetBools(ByteReader& r) {
  std::vector<bool> bits;
  const std::uint64_t n = r.GetU64();
  if (!r.ok()) return bits;
  bits.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) bits.push_back(r.GetBool());
  return bits;
}

Status MalformedUnless(const ByteReader& r, const char* what) {
  if (r.AtEnd()) return Status::Ok();
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

}  // namespace

void AppendExpansionJobBody(ByteWriter& w, const ExpansionJob& job) {
  w.PutBytes(job.table);
  w.PutBytes(job.request.attribute_name);
  PutItems(w, job.request.gold_sample_items);
  PutBools(w, job.sample_truth);
  PutExtractor(w, job.request.extractor);

  const crowd::HitRunConfig& h = job.hit_config;
  w.PutU64(h.judgments_per_item);
  w.PutU64(h.items_per_hit);
  w.PutF64(h.payment_per_hit);
  w.PutBool(h.allow_dont_know);
  w.PutBool(h.lookup_mode);
  w.PutF64(h.lookup_consensus_flip_rate);
  w.PutF64(h.lookup_contested_rate);
  w.PutF64(h.perception_flip_rate);
  w.PutU64(h.num_gold_questions);
  w.PutF64(h.gold_exclusion_threshold);
  w.PutU64(h.gold_min_probes);
  w.PutU64(h.seed);
  const crowd::FaultModel& f = h.fault;
  w.PutF64(f.abandonment_prob);
  w.PutF64(f.abandon_time_fraction);
  w.PutF64(f.straggler_fraction);
  w.PutF64(f.straggler_pareto_alpha);
  w.PutF64(f.churn_prob);
  w.PutF64(f.churn_window_minutes);
  w.PutF64(f.duplicate_prob);
  w.PutF64(f.duplicate_delay_minutes);
  w.PutF64(f.late_prob);
  w.PutF64(f.late_mean_delay_minutes);
  w.PutF64(f.spam_burst_prob);
  w.PutF64(f.spam_burst_window_minutes);
  w.PutF64(f.spam_burst_duration_minutes);
  w.PutF64(f.spam_burst_intensity);
  w.PutF64(f.spam_burst_positive_bias);
  w.PutU64(f.seed);

  const crowd::DispatcherConfig& d = job.expansion.dispatcher;
  w.PutF64(d.deadline_minutes);
  w.PutU64(d.max_reposts);
  w.PutF64(d.backoff_initial_minutes);
  w.PutF64(d.backoff_factor);
  w.PutF64(d.backoff_jitter_fraction);
  w.PutU64(d.repost_overprovision);
  w.PutF64(d.max_dollars);
  w.PutF64(d.max_minutes);
  w.PutBool(d.gold_in_reposts);
  w.PutU64(job.expansion.topup_judgments_per_item);
  w.PutU64(job.expansion.max_topups);
}

std::uint64_t ExpansionJobFingerprint(const ExpansionJob& job) {
  ByteWriter w;
  AppendExpansionJobBody(w, job);
  return HashBytes(w.bytes());
}

std::string EncodePredictRequest(const PredictRequest& request) {
  ByteWriter w;
  PutItems(w, request.gold_items);
  PutBools(w, request.gold_labels);
  PutExtractor(w, request.extractor);
  PutItems(w, request.items);
  return std::move(w).Take();
}

StatusOr<PredictRequest> DecodePredictRequest(const std::string& payload) {
  ByteReader r(payload);
  PredictRequest request;
  request.gold_items = GetItems(r);
  request.gold_labels = GetBools(r);
  request.extractor = GetExtractor(r);
  request.items = GetItems(r);
  if (Status s = MalformedUnless(r, "predict request"); !s.ok()) return s;
  return request;
}

std::string EncodePredictResponse(const PredictResponse& response) {
  ByteWriter w;
  PutBools(w, response.values);
  return std::move(w).Take();
}

StatusOr<PredictResponse> DecodePredictResponse(const std::string& payload) {
  ByteReader r(payload);
  PredictResponse response;
  response.values = GetBools(r);
  if (Status s = MalformedUnless(r, "predict response"); !s.ok()) return s;
  return response;
}

std::string EncodeKnnRequest(const KnnRequest& request) {
  ByteWriter w;
  w.PutU32(request.item);
  w.PutU32(request.k);
  return std::move(w).Take();
}

StatusOr<KnnRequest> DecodeKnnRequest(const std::string& payload) {
  ByteReader r(payload);
  KnnRequest request;
  request.item = r.GetU32();
  request.k = r.GetU32();
  if (Status s = MalformedUnless(r, "knn request"); !s.ok()) return s;
  return request;
}

std::string EncodeKnnResponse(const KnnResponse& response) {
  ByteWriter w;
  w.PutU64(response.neighbors.size());
  for (const KnnNeighbor& neighbor : response.neighbors) {
    w.PutU32(neighbor.index);
    w.PutF64(neighbor.distance);
  }
  return std::move(w).Take();
}

StatusOr<KnnResponse> DecodeKnnResponse(const std::string& payload) {
  ByteReader r(payload);
  KnnResponse response;
  const std::uint64_t n = r.GetU64();
  if (r.ok()) {
    response.neighbors.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      KnnNeighbor neighbor;
      neighbor.index = r.GetU32();
      neighbor.distance = r.GetF64();
      response.neighbors.push_back(neighbor);
    }
  }
  if (Status s = MalformedUnless(r, "knn response"); !s.ok()) return s;
  return response;
}

std::string EncodeExpandRequest(const ExpansionJob& job) {
  ByteWriter w;
  AppendExpansionJobBody(w, job);
  w.PutF64(job.deadline_seconds);
  return std::move(w).Take();
}

StatusOr<ExpansionJob> DecodeExpandRequest(const std::string& payload) {
  ByteReader r(payload);
  ExpansionJob job;
  job.table = std::string(r.GetBytes());
  job.request.attribute_name = std::string(r.GetBytes());
  job.request.gold_sample_items = GetItems(r);
  job.sample_truth = GetBools(r);
  job.request.extractor = GetExtractor(r);

  crowd::HitRunConfig& h = job.hit_config;
  h.judgments_per_item = r.GetU64();
  h.items_per_hit = r.GetU64();
  h.payment_per_hit = r.GetF64();
  h.allow_dont_know = r.GetBool();
  h.lookup_mode = r.GetBool();
  h.lookup_consensus_flip_rate = r.GetF64();
  h.lookup_contested_rate = r.GetF64();
  h.perception_flip_rate = r.GetF64();
  h.num_gold_questions = r.GetU64();
  h.gold_exclusion_threshold = r.GetF64();
  h.gold_min_probes = r.GetU64();
  h.seed = r.GetU64();
  crowd::FaultModel& f = h.fault;
  f.abandonment_prob = r.GetF64();
  f.abandon_time_fraction = r.GetF64();
  f.straggler_fraction = r.GetF64();
  f.straggler_pareto_alpha = r.GetF64();
  f.churn_prob = r.GetF64();
  f.churn_window_minutes = r.GetF64();
  f.duplicate_prob = r.GetF64();
  f.duplicate_delay_minutes = r.GetF64();
  f.late_prob = r.GetF64();
  f.late_mean_delay_minutes = r.GetF64();
  f.spam_burst_prob = r.GetF64();
  f.spam_burst_window_minutes = r.GetF64();
  f.spam_burst_duration_minutes = r.GetF64();
  f.spam_burst_intensity = r.GetF64();
  f.spam_burst_positive_bias = r.GetF64();
  f.seed = r.GetU64();

  crowd::DispatcherConfig& d = job.expansion.dispatcher;
  d.deadline_minutes = r.GetF64();
  d.max_reposts = r.GetU64();
  d.backoff_initial_minutes = r.GetF64();
  d.backoff_factor = r.GetF64();
  d.backoff_jitter_fraction = r.GetF64();
  d.repost_overprovision = r.GetU64();
  d.max_dollars = r.GetF64();
  d.max_minutes = r.GetF64();
  d.gold_in_reposts = r.GetBool();
  job.expansion.topup_judgments_per_item = r.GetU64();
  job.expansion.max_topups = r.GetU64();

  job.deadline_seconds = r.GetF64();
  if (Status s = MalformedUnless(r, "expand request"); !s.ok()) return s;
  return job;
}

std::string EncodeExpandResponse(const ExpandResponse& response) {
  const SchemaExpansionResult& result = response.result;
  ByteWriter w;
  PutBools(w, result.values);
  w.PutF64(result.crowd_minutes);
  w.PutF64(result.crowd_dollars);
  w.PutU64(result.gold_sample_classified);
  PutStatus(w, result.status);
  const crowd::DispatchStats& s = result.dispatch;
  w.PutU64(s.repost_rounds);
  w.PutU64(s.reposted_items);
  w.PutU64(s.timed_out_items);
  w.PutU64(s.late_judgments);
  w.PutU64(s.duplicates_dropped);
  w.PutU64(s.abandoned_hits);
  w.PutU64(s.churned_workers);
  w.PutU64(s.excluded_workers);
  w.PutU64(s.spam_burst_judgments);
  w.PutU64(s.replayed_postings);
  w.PutU64(s.replayed_judgments);
  w.PutF64(s.replayed_dollars);
  w.PutF64(s.wasted_dollars);
  w.PutBool(s.budget_exhausted);
  w.PutBool(s.reposts_exhausted);
  w.PutU64(result.topup_rounds);
  return std::move(w).Take();
}

StatusOr<ExpandResponse> DecodeExpandResponse(const std::string& payload) {
  ByteReader r(payload);
  ExpandResponse response;
  SchemaExpansionResult& result = response.result;
  result.values = GetBools(r);
  result.crowd_minutes = r.GetF64();
  result.crowd_dollars = r.GetF64();
  result.gold_sample_classified = r.GetU64();
  result.status = GetStatus(r);
  crowd::DispatchStats& s = result.dispatch;
  s.repost_rounds = r.GetU64();
  s.reposted_items = r.GetU64();
  s.timed_out_items = r.GetU64();
  s.late_judgments = r.GetU64();
  s.duplicates_dropped = r.GetU64();
  s.abandoned_hits = r.GetU64();
  s.churned_workers = r.GetU64();
  s.excluded_workers = r.GetU64();
  s.spam_burst_judgments = r.GetU64();
  s.replayed_postings = r.GetU64();
  s.replayed_judgments = r.GetU64();
  s.replayed_dollars = r.GetF64();
  s.wasted_dollars = r.GetF64();
  s.budget_exhausted = r.GetBool();
  s.reposts_exhausted = r.GetBool();
  result.topup_rounds = r.GetU64();
  if (Status s2 = MalformedUnless(r, "expand response"); !s2.ok()) return s2;
  return response;
}

}  // namespace ccdb::core
