#ifndef CCDB_CORE_EXPANSION_SERVICE_H_
#define CCDB_CORE_EXPANSION_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/circuit_breaker.h"
#include "core/expansion.h"
#include "core/perceptual_space.h"
#include "crowd/platform.h"
#include "crowd/worker.h"

namespace ccdb::core {

/// Tuning knobs of the concurrent expansion service.
struct ExpansionServiceOptions {
  /// Worker threads running expansions concurrently (>= 1).
  std::size_t workers = 2;
  /// Admission queue bound: requests beyond `queue_depth` *waiting*
  /// expansions are shed with ResourceExhausted instead of queueing
  /// unbounded work (running expansions do not count against it).
  std::size_t queue_depth = 8;
  /// The admission circuit breaker. Breaker-relevant failures are
  /// OutOfRange / FailedPrecondition / Internal — the crowd platform or
  /// pipeline misbehaving, not caller mistakes.
  CircuitBreakerOptions breaker;
};

/// Share of a job's deadline granted to the crowd-acquisition stage. The
/// dispatcher treats its expiry as best-effort — it returns the judgments
/// collected so far and training proceeds on them — while the remaining
/// share keeps training/extraction from being starved by a slow crowd.
inline constexpr double kCrowdDeadlineShare = 0.6;

/// One expansion request. `deadline_seconds <= 0` means no deadline;
/// `cancel` is this caller's token — cancelling it abandons the
/// caller's wait and, once every waiter on the flight is gone, cancels
/// the flight itself so no further crowd money is spent.
struct ExpansionJob {
  /// Table the attribute extends (part of the dedup identity).
  std::string table;
  SchemaExpansionRequest request;
  crowd::HitRunConfig hit_config;
  /// Reference labels of the gold sample (simulation input).
  std::vector<bool> sample_truth;
  ExpansionOptions expansion;
  double deadline_seconds = 0.0;
  CancellationToken cancel;
};

/// Monotonic service counters. Invariants (under the service mutex, and
/// after Drain() for the terminal ones):
///   submitted == admitted + deduped + shed + breaker_rejected
///   admitted  == completed + failed + cancelled + deadline_exceeded
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  /// Requests that joined an identical in-flight expansion instead of
  /// spending crowd dollars a second time.
  std::uint64_t deduped = 0;
  /// Requests shed by admission control (queue full or shutting down).
  std::uint64_t shed = 0;
  /// Requests rejected by an open (or probe-occupied half-open) breaker.
  std::uint64_t breaker_rejected = 0;
  // Terminal outcomes of admitted flights:
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  // Breaker state transitions:
  std::uint64_t breaker_trips = 0;       // -> open
  std::uint64_t breaker_probes = 0;      // half-open probe admitted
  std::uint64_t breaker_recoveries = 0;  // probe succeeded -> closed
  /// Expansion pipelines actually executed (deduped waiters share one).
  std::uint64_t expansions_run = 0;
  /// Crowd dollars spent across all executed pipelines.
  double crowd_dollars_spent = 0.0;
};

/// Concurrent, overload-safe front end over the Expand pipeline.
///
/// Requests are admitted onto a bounded worker pool with a bounded queue
/// (load-shedding with ResourceExhausted when full), deduplicated
/// single-flight on (table, attribute, options fingerprint) so concurrent
/// identical requests spend crowd dollars exactly once, bounded by a
/// per-request wall-clock deadline split across pipeline stages, and
/// guarded by a circuit breaker that stops hammering a misbehaving crowd
/// platform.
///
/// Lifetime: tickets must not outlive the service. The destructor cancels
/// every outstanding flight, then drains and joins the workers — a flight
/// queued but not yet started still runs, observes its fired token, and
/// resolves Cancelled, so no waiter is left hanging.
class ExpansionService {
 public:
  class Ticket;

  /// The service borrows `space` (must outlive it) and owns a copy of the
  /// worker pool shared by every expansion.
  ExpansionService(const PerceptualSpace& space, crowd::WorkerPool pool,
                   ExpansionServiceOptions options = {});
  ~ExpansionService();

  ExpansionService(const ExpansionService&) = delete;
  ExpansionService& operator=(const ExpansionService&) = delete;

  /// Submits a job. Errors are admission failures:
  ///   ResourceExhausted — queue full (load shed),
  ///   Unavailable      — breaker open, or service shutting down.
  /// On success the returned Ticket tracks the (possibly shared) flight;
  /// expansion-level failures are reported through the result's `status`,
  /// not here.
  [[nodiscard]] StatusOr<Ticket> ExpandAttribute(ExpansionJob job)
      EXCLUDES(mu_);

  /// Blocks until no admitted flight is outstanding.
  void Drain() EXCLUDES(mu_);

  ServiceStats stats() const EXCLUDES(mu_);
  BreakerState breaker_state() const EXCLUDES(mu_);

  /// Handle on one submitted job. Wait() blocks until the underlying
  /// flight finishes or this waiter's own stop (its job's token /
  /// deadline) fires — abandoning a shared flight early never cancels it
  /// for the other waiters; only the last waiter leaving does.
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket();
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    /// Blocks for the flight result (idempotent — later calls return the
    /// cached result). A waiter-side stop yields a result whose status is
    /// Cancelled / DeadlineExceeded; the flight itself keeps running for
    /// any remaining waiters.
    SchemaExpansionResult Wait();

   private:
    friend class ExpansionService;
    struct Flight;
    Ticket(ExpansionService* service, std::shared_ptr<Flight> flight,
           StopCondition waiter_stop);

    /// Stops tracking the flight; the last waiter out cancels it.
    void Abandon();

    ExpansionService* service_ = nullptr;
    std::shared_ptr<Flight> flight_;
    StopCondition waiter_stop_;
    bool resolved_ = false;
    SchemaExpansionResult result_;
  };

 private:
  using Flight = Ticket::Flight;

  void RunFlight(const std::shared_ptr<Flight>& flight) EXCLUDES(mu_);
  void FinishFlightLocked(Flight& flight, Status status) REQUIRES(mu_);
  void UpdateBreakerLocked(const Flight& flight, const Status& status)
      REQUIRES(mu_);

  const PerceptualSpace& space_;
  const crowd::WorkerPool pool_;
  const ExpansionServiceOptions options_;

  // Ranked kExpansionService: held across the TryEnqueue admission check,
  // which acquires ThreadPool::mutex_ (rank kThreadPool) under it.
  mutable Mutex mu_{lock_rank::kExpansionService};
  CondVar drain_cv_;
  /// Single-flight table: job fingerprint -> live flight.
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> inflight_
      GUARDED_BY(mu_);
  ServiceStats stats_ GUARDED_BY(mu_);
  /// CircuitBreaker is deliberately not internally synchronized — this
  /// mutex is the lock its contract requires callers to hold.
  CircuitBreaker breaker_ GUARDED_BY(mu_);
  std::size_t active_flights_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;

  /// Declared last: destroyed (drained + joined) first, while the state
  /// its tasks touch is still alive.
  ThreadPool workers_;
};

/// Dedup identity of a job: table, attribute, gold sample, truth labels,
/// HIT configuration (fault model included), extractor and dispatch
/// policy. Deliberately excludes the caller-side `deadline_seconds` and
/// `cancel` — two callers wanting the same expansion under different
/// patience share one flight. Exposed for tests.
std::uint64_t ExpansionJobFingerprint(const ExpansionJob& job);

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_SERVICE_H_
