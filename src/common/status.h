#ifndef CCDB_COMMON_STATUS_H_
#define CCDB_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace ccdb {

/// Error codes for recoverable failures. Mirrors the subset of
/// absl::StatusCode the library needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kCancelled,
  kDeadlineExceeded,
  kResourceExhausted,
  kUnavailable,
};

/// Lightweight status object used for recoverable errors (the library never
/// throws). Convention: functions that can fail return Status or
/// StatusOr<T>; CHECK macros are reserved for programming errors. The
/// class-level [[nodiscard]] makes silently dropping a returned Status a
/// compile error under -Werror; deliberate discards must be spelled
/// `(void)` with a rationale (see DESIGN.md §10).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  [[nodiscard]] static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  [[nodiscard]] static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  [[nodiscard]] static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  [[nodiscard]] static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  [[nodiscard]] static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "INVALID_ARGUMENT: d must be positive".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + message_;
  }

 private:
  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::kNotFound: return "NOT_FOUND";
      case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
      case StatusCode::kInternal: return "INTERNAL";
      case StatusCode::kCancelled: return "CANCELLED";
      case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
      case StatusCode::kUnavailable: return "UNAVAILABLE";
    }
    return "UNKNOWN";
  }

  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. Accessing value() on an error aborts.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value or an error status keeps call sites
  /// terse (mirrors absl::StatusOr).
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {      // NOLINT
    CCDB_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CCDB_CHECK_MSG(ok(), status_.ToString());
    return *value_;
  }
  T& value() & {
    CCDB_CHECK_MSG(ok(), status_.ToString());
    return *value_;
  }
  T&& value() && {
    CCDB_CHECK_MSG(ok(), status_.ToString());
    return *std::move(value_);
  }

 private:
  Status status_;
  std::optional<T> value_;  // engaged iff status_.ok()
};

}  // namespace ccdb

#endif  // CCDB_COMMON_STATUS_H_
