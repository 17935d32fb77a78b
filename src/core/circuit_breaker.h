#ifndef CCDB_CORE_CIRCUIT_BREAKER_H_
#define CCDB_CORE_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <cstdint>

#include "common/deadline.h"

namespace ccdb::core {

/// Circuit-breaker state (exposed for benches/tests).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

struct CircuitBreakerOptions {
  /// This many *consecutive* relevant failures trip the breaker open.
  std::size_t failure_threshold = 3;
  /// How long an open breaker rejects everything before letting a single
  /// half-open probe through. The probe's outcome decides: success closes
  /// the breaker, failure re-opens it for another cooldown.
  double cooldown_seconds = 0.25;
};

/// The closed / open / half-open state machine behind the expansion
/// service's admission gate. What counts as a relevant failure is the
/// caller's policy — the breaker only sees Record(kSuccess / kFailure /
/// kNeutral), where neutral outcomes (cancellations, caller mistakes)
/// neither trip nor heal it.
///
/// Deliberately NOT thread-safe: callers already serialize admission under
/// their own mutex, and the probe handshake (TryAdmit -> enqueue ->
/// OnProbeAdmitted) must be atomic with respect to that lock anyway.
/// Owners annotate that contract where the compiler can see it — their
/// breaker member is GUARDED_BY the owning mutex (DESIGN.md §13), e.g.
/// ExpansionService::breaker_.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  enum class Admission : std::uint8_t {
    kAdmit,   ///< breaker closed — normal admission
    kProbe,   ///< half-open — admit as the single probe, then call
              ///< OnProbeAdmitted() once the work is actually enqueued
    kReject,  ///< open (cooling down) or half-open with the probe busy
  };

  /// Rolls the cooldown forward (open -> half-open when it expired) and
  /// reports how the next request must be treated. A kProbe admission is
  /// tentative: the probe slot is only occupied after OnProbeAdmitted(),
  /// so an enqueue failure does not leak the slot.
  Admission TryAdmit();

  /// Confirms the kProbe admission actually started running.
  void OnProbeAdmitted();

  enum class Outcome : std::uint8_t { kSuccess, kFailure, kNeutral };

  /// Feeds one finished request back. `was_probe` marks the request that
  /// TryAdmit admitted as the half-open probe: its success closes the
  /// breaker, its failure re-opens it, and a neutral outcome releases the
  /// probe slot so the next request probes again.
  void Record(Outcome outcome, bool was_probe);

  BreakerState state() const;

  std::uint64_t trips() const { return trips_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t recoveries() const { return recoveries_; }

 private:
  const CircuitBreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  Deadline reopen_;  // open breaker rejects until this expires
  bool probe_inflight_ = false;
  std::uint64_t trips_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace ccdb::core

#endif  // CCDB_CORE_CIRCUIT_BREAKER_H_
