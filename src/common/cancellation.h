#ifndef CCDB_COMMON_CANCELLATION_H_
#define CCDB_COMMON_CANCELLATION_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/status.h"

namespace ccdb {

/// Read side of a cancellation flag. Tokens are cheap to copy (one
/// shared_ptr) and safe to poll from any thread; a default-constructed
/// token is never cancelled, so APIs can take one unconditionally without
/// a nullable parameter. Cancellation is level-triggered and permanent —
/// once fired, a token stays cancelled forever.
class CancellationToken {
 public:
  /// Never cancelled.
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

  /// Whether this token can ever fire (it is bound to a source).
  bool can_be_cancelled() const { return flag_ != nullptr; }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: owns the flag, hands out tokens, fires the cancellation.
/// Copying a source shares the same flag (any copy can cancel). Fire-once;
/// repeated Cancel() calls are harmless.
class CancellationSource {
 public:
  CancellationSource();

  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Composition of a cancellation token OR a wall-clock deadline — the stop
/// signal threaded through every long-running loop in the library (SGD
/// epochs, SMO iterations, TSVM retrains, dispatcher repost rounds,
/// expansion checkpoints). Default-constructed it never stops, so adding a
/// `StopCondition stop;` knob to a config struct is behavior-preserving.
///
/// ShouldStop() is cheap: one relaxed branch when unarmed, an atomic load
/// plus a steady-clock read when armed. Loops probe it once per iteration
/// and return partial state with ToStatus() when it fires.
class StopCondition {
 public:
  StopCondition() = default;
  StopCondition(CancellationToken token)  // NOLINT: implicit by design
      : token_(std::move(token)) {}
  StopCondition(Deadline deadline)  // NOLINT: implicit by design
      : deadline_(deadline) {}
  StopCondition(CancellationToken token, Deadline deadline)
      : token_(std::move(token)), deadline_(deadline) {}

  bool ShouldStop() const {
    return token_.cancelled() || deadline_.Expired();
  }

  /// Cancelled beats DeadlineExceeded when both fired (the caller asked
  /// first); Ok when neither did. `what` names the interrupted stage.
  [[nodiscard]] Status ToStatus(const std::string& what = "operation") const;

  const CancellationToken& token() const { return token_; }
  const Deadline& deadline() const { return deadline_; }

 private:
  CancellationToken token_;
  Deadline deadline_;
};

}  // namespace ccdb

#endif  // CCDB_COMMON_CANCELLATION_H_
