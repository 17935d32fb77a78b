#include "core/shard_server.h"

#include <algorithm>
#include <utility>

#include "core/expansion_wire.h"
#include "core/extractor.h"

namespace ccdb::core {

namespace {

/// Journal record: [u64 fingerprint][bytes encoded ExpandResponse].
std::string EncodeCacheRecord(std::uint64_t fingerprint,
                              const std::string& encoded_response) {
  ByteWriter w;
  w.PutU64(fingerprint);
  w.PutBytes(encoded_response);
  return std::move(w).Take();
}

/// Expand outcomes worth caching are the deterministic ones: given the
/// same job the pipeline would reach the same verdict again, so replaying
/// the cached result is indistinguishable from re-running it — minus the
/// crowd spend. Cancellations and deadline expiries depend on this
/// delivery's wall clock, not on the job, and must not poison the cache.
bool CacheableOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
      return true;
    default:
      return false;
  }
}

/// Upper bound of one wait slice of a re-delivery waiting on a claimant;
/// the claimant signals on completion, so this only paces deadline checks.
constexpr double kClaimPollSeconds = 0.01;

}  // namespace

ExpansionShardServer::ExpansionShardServer(
    std::uint32_t node, std::uint32_t shard_index, std::uint32_t num_shards,
    const PerceptualSpace& space, crowd::WorkerPool pool,
    net::Transport& transport, ShardServerOptions options)
    : node_(node),
      shard_index_(shard_index),
      ring_(num_shards, options.vnodes_per_shard),
      space_(space),
      transport_(transport),
      options_(std::move(options)),
      service_(space, std::move(pool), options_.service) {}

ExpansionShardServer::~ExpansionShardServer() { Stop(); }

Status ExpansionShardServer::Start() {
  {
    MutexLock lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("shard server already started");
    }
    if (!options_.journal_path.empty() && !journal_.has_value()) {
      JournalContents recovered;
      StatusOr<JournalWriter> journal_or =
          JournalWriter::Open(options_.journal_path, options_.journal_sync,
                              &recovered, options_.fs);
      if (!journal_or.ok()) return journal_or.status();
      journal_.emplace(std::move(journal_or).value());
      for (const std::string& record : recovered.records) {
        ByteReader r(record);
        const std::uint64_t fingerprint = r.GetU64();
        std::string encoded(r.GetBytes());
        if (!r.AtEnd()) continue;  // torn/garbled record: skip, don't trust
        if (results_.emplace(fingerprint, std::move(encoded)).second) {
          ++stats_.journal_replayed;
        }
      }
    }
  }
  Status registered = transport_.Register(
      node_, [this](const net::Message& message) { return Handle(message); });
  if (!registered.ok()) return registered;
  MutexLock lock(mu_);
  started_ = true;
  return Status::Ok();
}

void ExpansionShardServer::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
  }
  // Blocks until in-flight deliveries drain; after this no handler runs.
  transport_.Unregister(node_);
}

ShardServerStats ExpansionShardServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

ServiceStats ExpansionShardServer::service_stats() const {
  return service_.stats();
}

StatusOr<std::string> ExpansionShardServer::Handle(
    const net::Message& message) {
  {
    MutexLock lock(mu_);
    ++stats_.requests;
  }
  if (message.method == "predict") return HandlePredict(message);
  if (message.method == "knn") return HandleKnn(message);
  if (message.method == "expand") return HandleExpand(message);
  MutexLock lock(mu_);
  ++stats_.invalid_requests;
  return Status::InvalidArgument("unknown shard method: " + message.method);
}

StatusOr<std::string> ExpansionShardServer::HandlePredict(
    const net::Message& message) {
  StatusOr<PredictRequest> request_or = DecodePredictRequest(message.payload);
  if (!request_or.ok()) {
    MutexLock lock(mu_);
    ++stats_.invalid_requests;
    return request_or.status();
  }
  const PredictRequest request = std::move(request_or).value();
  {
    MutexLock lock(mu_);
    ++stats_.predicts;
  }
  for (std::uint32_t item : request.items) {
    if (item >= space_.num_items()) {
      MutexLock lock(mu_);
      ++stats_.invalid_requests;
      return Status::InvalidArgument("predict item outside the space");
    }
  }
  BinaryAttributeExtractor extractor(request.extractor);
  if (!extractor.Train(space_, request.gold_items, request.gold_labels)) {
    return Status::FailedPrecondition(
        "predict gold sample has fewer than two classes");
  }
  std::optional<std::vector<bool>> values =
      extractor.ExtractItems(space_, request.items);
  if (!values.has_value()) {
    return Status::Internal("prediction sweep aborted");
  }
  PredictResponse response;
  response.values = std::move(*values);
  return EncodePredictResponse(response);
}

StatusOr<std::string> ExpansionShardServer::HandleKnn(
    const net::Message& message) {
  StatusOr<KnnRequest> request_or = DecodeKnnRequest(message.payload);
  if (!request_or.ok()) {
    MutexLock lock(mu_);
    ++stats_.invalid_requests;
    return request_or.status();
  }
  const KnnRequest request = std::move(request_or).value();
  {
    MutexLock lock(mu_);
    ++stats_.knns;
  }
  if (request.item >= space_.num_items()) {
    MutexLock lock(mu_);
    ++stats_.invalid_requests;
    return Status::InvalidArgument("knn query item outside the space");
  }
  // Scan only the items this shard owns on the ring; the router merges
  // the per-shard top-k lists into the global answer.
  KnnResponse response;
  for (std::uint32_t item = 0;
       item < static_cast<std::uint32_t>(space_.num_items()); ++item) {
    if (item == request.item) continue;
    if (ring_.OwnerOfItem(item) != shard_index_) continue;
    response.neighbors.push_back(
        KnnNeighbor{item, space_.Distance(request.item, item)});
  }
  std::sort(response.neighbors.begin(), response.neighbors.end(),
            [](const KnnNeighbor& a, const KnnNeighbor& b) {
              // Index breaks distance ties: a total order keeps merged
              // results identical no matter which shard answered first.
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.index < b.index;
            });
  if (response.neighbors.size() > request.k) {
    response.neighbors.resize(request.k);
  }
  return EncodeKnnResponse(response);
}

StatusOr<std::string> ExpansionShardServer::HandleExpand(
    const net::Message& message) {
  StatusOr<ExpansionJob> job_or = DecodeExpandRequest(message.payload);
  if (!job_or.ok()) {
    MutexLock lock(mu_);
    ++stats_.invalid_requests;
    return job_or.status();
  }
  ExpansionJob job = std::move(job_or).value();
  const std::uint64_t fingerprint = ExpansionJobFingerprint(job);
  {
    MutexLock lock(mu_);
    ++stats_.expands;
    for (;;) {
      // Idempotency: a re-delivery (retry, hedge, duplicate, resend after
      // a reset) of an already-finished job is answered from the cache —
      // the crowd money was spent exactly once.
      if (auto it = results_.find(fingerprint); it != results_.end()) {
        ++stats_.expand_cache_hits;
        return it->second;
      }
      // A re-delivery racing a running delivery of the same job waits for
      // that claimant's answer: the claimant's flight may already have
      // left the service's single-flight table without its result being
      // cached yet, and starting a second flight would spend twice.
      const auto claim = claims_.find(fingerprint);
      if (claim == claims_.end()) break;
      const double remaining = claim->second.RemainingSeconds();
      if (remaining <= 0.0) {
        return Status::DeadlineExceeded(
            "expand re-delivery outwaited the claimant's flight deadline");
      }
      claims_cv_.WaitFor(mu_, std::min(remaining, kClaimPollSeconds));
    }
    // Unclaimed (or the claimant's outcome was not cacheable): run it.
    const double budget = job.deadline_seconds > 0.0
                              ? job.deadline_seconds
                              : options_.service.default_deadline_seconds;
    claims_.emplace(fingerprint, Deadline::AfterSeconds(budget));
  }

  ExpandResponse response;
  std::string encoded;
  StatusOr<ExpansionService::Ticket> ticket_or =
      service_.ExpandAttribute(std::move(job));
  if (ticket_or.ok()) {
    // ccdb-lint: allow(blocking-wait) — the ticket's flight carries the
    // job's own deadline; Wait() is bounded by it.
    response.result = ticket_or.value().Wait();
    encoded = EncodeExpandResponse(response);
  }

  // Release the claim and publish a cacheable answer in one critical
  // section, so a waiting re-delivery finds either the answer or no claim.
  MutexLock lock(mu_);
  claims_.erase(fingerprint);
  claims_cv_.SignalAll();
  if (!ticket_or.ok()) return ticket_or.status();
  if (!CacheableOutcome(response.result.status)) return encoded;
  auto [it, inserted] = results_.emplace(fingerprint, std::move(encoded));
  if (inserted && journal_.has_value()) {
    // The cache record is appended (and fsynced) before the response
    // leaves the server: once a caller can observe the result, a
    // crash/restart cannot forget it and re-spend.
    if (!journal_->Append(EncodeCacheRecord(fingerprint, it->second)).ok()) {
      ++stats_.journal_append_failures;
    }
  }
  return it->second;
}

}  // namespace ccdb::core
