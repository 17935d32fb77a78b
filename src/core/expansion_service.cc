#include "core/expansion_service.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/journal.h"
#include "core/expansion_manifest.h"
#include "crowd/dispatch_journal.h"

namespace ccdb::core {

/// One deduplicated expansion execution shared by its waiters. Guarded by
/// the service mutex except for `job`, `deadlines` and `cancel`, which
/// are written once before the flight is published and read-only after.
struct ExpansionService::Ticket::Flight {
  ExpansionJob job;
  std::uint64_t key = 0;
  /// Flight-level cancellation: fired when the last waiter abandons the
  /// flight or the service shuts down. Each waiter's own token is *not*
  /// wired in directly — a shared flight must survive one impatient
  /// caller.
  CancellationSource cancel;
  Deadline total_deadline;
  Deadline crowd_deadline;
  /// This flight is the half-open breaker probe; its outcome decides
  /// whether the breaker closes or re-opens.
  bool is_probe = false;
  std::size_t waiters = 0;
  bool done = false;
  SchemaExpansionResult result;
  CondVar cv;
};

// --- ExpansionJobFingerprint ----------------------------------------------

std::uint64_t ExpansionJobFingerprint(const ExpansionJob& job) {
  ByteWriter w;
  w.PutBytes(job.table);
  w.PutBytes(job.request.attribute_name);
  w.PutU64(job.request.gold_sample_items.size());
  for (std::uint32_t item : job.request.gold_sample_items) w.PutU32(item);
  w.PutU64(job.sample_truth.size());
  for (bool label : job.sample_truth) w.PutBool(label);
  PutExtractorOptions(w, job.request.extractor);
  crowd::PutHitRunConfig(w, job.hit_config);
  crowd::PutDispatcherConfig(w, job.expansion.dispatcher);
  w.PutU64(job.expansion.topup_judgments_per_item);
  w.PutU64(job.expansion.max_topups);
  return HashBytes(w.bytes());
}

// --- Ticket ---------------------------------------------------------------

ExpansionService::Ticket::Ticket(ExpansionService* service,
                                 std::shared_ptr<Flight> flight,
                                 StopCondition waiter_stop)
    : service_(service),
      flight_(std::move(flight)),
      waiter_stop_(std::move(waiter_stop)) {}

ExpansionService::Ticket::Ticket(Ticket&& other) noexcept
    : service_(other.service_),
      flight_(std::move(other.flight_)),
      waiter_stop_(std::move(other.waiter_stop_)),
      resolved_(other.resolved_),
      result_(std::move(other.result_)) {
  other.flight_.reset();
  other.resolved_ = true;
}

ExpansionService::Ticket& ExpansionService::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    Abandon();
    service_ = other.service_;
    flight_ = std::move(other.flight_);
    waiter_stop_ = std::move(other.waiter_stop_);
    resolved_ = other.resolved_;
    result_ = std::move(other.result_);
    other.flight_.reset();
    other.resolved_ = true;
  }
  return *this;
}

ExpansionService::Ticket::~Ticket() { Abandon(); }

void ExpansionService::Ticket::Abandon() {
  if (resolved_ || flight_ == nullptr) return;
  MutexLock lock(service_->mu_);
  resolved_ = true;
  if (--flight_->waiters == 0 && !flight_->done) {
    // Nobody wants this result anymore: stop the pipeline before it
    // spends further crowd dollars.
    flight_->cancel.Cancel();
  }
}

SchemaExpansionResult ExpansionService::Ticket::Wait() {
  if (resolved_ || flight_ == nullptr) return result_;
  MutexLock lock(service_->mu_);
  for (;;) {
    if (flight_->done) {
      result_ = flight_->result;
      --flight_->waiters;
      resolved_ = true;
      return result_;
    }
    if (waiter_stop_.ShouldStop()) {
      // This waiter gives up; the flight keeps running unless it was the
      // last one (see Abandon's inline logic below).
      result_ = SchemaExpansionResult{};
      result_.status = waiter_stop_.ToStatus("wait for expansion");
      resolved_ = true;
      if (--flight_->waiters == 0) flight_->cancel.Cancel();
      return result_;
    }
    // Polling wait: StopCondition carries no waitable handle, and the
    // flight signals `cv` on completion — 2 ms bounds the stop-detection
    // latency without burning a core.
    flight_->cv.WaitFor(service_->mu_, 0.002);
  }
}

// --- ExpansionService -----------------------------------------------------

ExpansionService::ExpansionService(const PerceptualSpace& space,
                                   crowd::WorkerPool pool,
                                   ExpansionServiceOptions options)
    : space_(space),
      pool_(std::move(pool)),
      options_(options),
      breaker_(options.breaker),
      workers_(options.workers) {
  CCDB_CHECK_GE(options_.workers, std::size_t{1});
  CCDB_CHECK_GE(options_.queue_depth, std::size_t{1});
}

ExpansionService::~ExpansionService() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
    for (auto& [key, flight] : inflight_) flight->cancel.Cancel();
  }
  // workers_ (declared last) is destroyed first: it drains the queue and
  // joins. Queued flights still run, observe their fired token, and
  // resolve Cancelled — waiters are woken, never stranded.
}

StatusOr<ExpansionService::Ticket> ExpansionService::ExpandAttribute(
    ExpansionJob job) {
  const std::uint64_t key = ExpansionJobFingerprint(job);
  const double budget = job.deadline_seconds > 0.0
                            ? job.deadline_seconds
                            : std::numeric_limits<double>::infinity();
  const Deadline waiter_deadline = Deadline::AfterSeconds(budget);
  const StopCondition waiter_stop(job.cancel, waiter_deadline);

  MutexLock lock(mu_);
  ++stats_.submitted;
  if (shutting_down_) {
    ++stats_.shed;
    return Status::Unavailable("expansion service is shutting down");
  }

  // Single-flight: an identical expansion already in flight is joined for
  // free — crowd dollars for one answer are spent exactly once.
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    ++stats_.deduped;
    ++it->second->waiters;
    return Ticket(this, it->second, waiter_stop);
  }

  // Circuit breaker: a platform that keeps failing is left alone for a
  // cooldown, then probed with a single request.
  bool is_probe = false;
  switch (breaker_.TryAdmit()) {
    case CircuitBreaker::Admission::kReject:
      ++stats_.breaker_rejected;
      return Status::Unavailable(
          breaker_.state() == BreakerState::kOpen
              ? "expansion circuit breaker is open"
              : "expansion circuit breaker is half-open (probe in flight)");
    case CircuitBreaker::Admission::kProbe:
      is_probe = true;
      break;
    case CircuitBreaker::Admission::kAdmit:
      break;
  }

  auto flight = std::make_shared<Flight>();
  flight->job = std::move(job);
  flight->key = key;
  flight->is_probe = is_probe;
  flight->waiters = 1;
  flight->total_deadline = Deadline::AfterSeconds(budget);
  flight->crowd_deadline =
      Deadline::AfterSeconds(budget * kCrowdDeadlineShare);

  if (!workers_.TryEnqueue([this, flight] { RunFlight(flight); },
                           options_.queue_depth)) {
    ++stats_.shed;
    return Status::ResourceExhausted("expansion admission queue is full");
  }
  ++stats_.admitted;
  ++active_flights_;
  // The probe slot is claimed only now, after the enqueue succeeded — a
  // shed probe must not block the half-open breaker forever.
  if (is_probe) breaker_.OnProbeAdmitted();
  inflight_.emplace(key, flight);
  return Ticket(this, std::move(flight), waiter_stop);
}

void ExpansionService::RunFlight(const std::shared_ptr<Flight>& flight) {
  // `job` and the deadlines are immutable once the flight is published,
  // so the pipeline below runs without the service mutex.
  const ExpansionJob& job = flight->job;
  const StopCondition flight_stop(flight->cancel.token(),
                                  flight->total_deadline);

  // Deadline split: the crowd stage gets the narrower budget and its
  // expiry is best-effort (the dispatcher returns the judgments already
  // bought); training and extraction run under the full budget, where
  // expiry aborts the flight.
  ExpansionOptions expansion = job.expansion;
  expansion.stop = flight_stop;
  expansion.dispatcher.stop = StopCondition(
      flight->cancel.token(),
      Deadline::Earlier(flight->crowd_deadline, flight->total_deadline));

  SchemaExpansionRequest request = job.request;
  request.extractor.smo.stop = flight_stop;

  SchemaExpansionResult result = Expand(space_, request, pool_, job.hit_config,
                                        job.sample_truth, expansion);

  MutexLock lock(mu_);
  ++stats_.expansions_run;
  stats_.crowd_dollars_spent += result.crowd_dollars;
  flight->result = std::move(result);
  FinishFlightLocked(*flight, flight->result.status);
}

void ExpansionService::FinishFlightLocked(Flight& flight, Status status) {
  UpdateBreakerLocked(flight, status);
  switch (status.code()) {
    case StatusCode::kOk:
      ++stats_.completed;
      break;
    case StatusCode::kCancelled:
      ++stats_.cancelled;
      break;
    case StatusCode::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
    default:
      ++stats_.failed;
      break;
  }
  flight.done = true;
  inflight_.erase(flight.key);
  --active_flights_;
  flight.cv.SignalAll();
  drain_cv_.SignalAll();
}

void ExpansionService::UpdateBreakerLocked(const Flight& flight,
                                           const Status& status) {
  // Cancellations, deadline expiries and caller mistakes say nothing
  // about the platform's health — they neither trip nor heal the breaker.
  const bool relevant_failure =
      status.code() == StatusCode::kOutOfRange ||
      status.code() == StatusCode::kFailedPrecondition ||
      status.code() == StatusCode::kInternal;
  const CircuitBreaker::Outcome outcome =
      status.ok() ? CircuitBreaker::Outcome::kSuccess
      : relevant_failure ? CircuitBreaker::Outcome::kFailure
                         : CircuitBreaker::Outcome::kNeutral;
  breaker_.Record(outcome, flight.is_probe);
}

void ExpansionService::Drain() {
  MutexLock lock(mu_);
  // ccdb-lint: allow(blocking-wait) — Drain() is the shutdown barrier: every
  // flight carries a deadline, so the predicate is bounded by the slowest
  // in-flight job.
  while (active_flights_ != 0) drain_cv_.Wait(mu_);
}

ServiceStats ExpansionService::stats() const {
  MutexLock lock(mu_);
  ServiceStats stats = stats_;
  stats.breaker_trips = breaker_.trips();
  stats.breaker_probes = breaker_.probes();
  stats.breaker_recoveries = breaker_.recoveries();
  return stats;
}

BreakerState ExpansionService::breaker_state() const {
  MutexLock lock(mu_);
  return breaker_.state();
}

}  // namespace ccdb::core
