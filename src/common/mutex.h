#ifndef CCDB_COMMON_MUTEX_H_
#define CCDB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace ccdb {

class CondVar;

/// Lock ranks for the deadlock-detection hierarchy (DESIGN.md §13).
///
/// A thread may only acquire a ranked mutex whose rank is STRICTLY GREATER
/// than the rank of every ranked mutex it already holds; smaller ranks are
/// outermost. The ranks below document the only nesting the library
/// permits, e.g. ExpansionService::mu_ (300) is held while the admission
/// queue locks ThreadPool::mutex_ (400). Ephemeral latches (ParallelFor
/// completion latches) are unranked: they are leaf locks by construction
/// and never nest with each other.
namespace lock_rank {
inline constexpr int kExpansionService = 300;  // ExpansionService::mu_
inline constexpr int kThreadPool = 400;        // ThreadPool::mutex_
inline constexpr int kFaultFs = 600;           // FaultFs::mutex_
inline constexpr int kCrashPoint = 700;        // crash-point registry mutex
}  // namespace lock_rank

/// Sentinel rank for mutexes that do not participate in rank checking.
inline constexpr int kNoMutexRank = -1;

/// Exclusive mutex with Clang thread-safety-analysis annotations and
/// optional lock-rank deadlock detection.
///
/// Rank checking: a Mutex constructed with a rank participates in a
/// per-thread held-rank stack. Acquiring a ranked mutex while holding one
/// of equal or greater rank is an ordering violation — the configured
/// violation handler fires BEFORE the acquisition blocks, so a would-be
/// deadlock is reported instead of hung. Checking is on by default
/// whenever NDEBUG is not defined — every build of this tree, since its
/// Release flags omit -DNDEBUG — and can be toggled at runtime with
/// SetRankCheckingEnabled() (tests enable it explicitly so they do not
/// depend on the build flags).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A ranked mutex; `rank` must be >= 0 (see lock_rank above).
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  /// Never blocks, so it cannot deadlock: rank order is not checked, but a
  /// successful try-lock still pushes its rank for later Lock() checks.
  bool TryLock() TRY_ACQUIRE(true);

  int rank() const { return rank_; }

  /// Globally enables/disables rank checking; returns the previous value.
  static bool SetRankCheckingEnabled(bool enabled);
  static bool RankCheckingEnabled();

  /// Called on a rank-order violation with the highest rank already held
  /// by this thread and the rank being acquired. The default handler
  /// prints both ranks and aborts (CHECK-on-inversion policy); tests
  /// install a recording handler instead. Returns the previous handler;
  /// nullptr restores the default.
  using RankViolationHandler = void (*)(int held_rank, int acquiring_rank);
  static RankViolationHandler SetRankViolationHandler(
      RankViolationHandler handler);

 private:
  friend class CondVar;

  std::mutex mu_;
  const int rank_ = kNoMutexRank;
};

/// RAII exclusive lock over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable composing with Mutex/MutexLock:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
///
/// Wait() atomically releases `mu`, sleeps, and reacquires it before
/// returning (the caller's MutexLock stays valid throughout). The waiting
/// mutex's rank is popped from the held-rank stack for the duration of the
/// sleep and re-pushed on wake, so other threads' acquisitions are judged
/// against the true held set.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// `mu` must be held; it is released during the sleep and held again on
  /// return. May wake spuriously — callers loop on their predicate.
  void Wait(Mutex& mu) REQUIRES(mu);

  /// Blocks until pred() holds. Unbounded: callers in cancellable code
  /// need a ccdb-lint allow(blocking-wait) with a rationale.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  /// Bounded wait: returns false iff the timeout elapsed without a
  /// notification (spurious wakes return true; callers re-check their
  /// predicate either way).
  bool WaitFor(Mutex& mu, double seconds) REQUIRES(mu);

  /// Bounded predicate wait: returns pred() at exit (false means the
  /// budget elapsed with the predicate still false).
  template <typename Pred>
  bool WaitFor(Mutex& mu, double seconds, Pred pred) REQUIRES(mu) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds < 0 ? 0 : seconds));
    while (!pred()) {
      if (!WaitUntil(mu, deadline)) return pred();
    }
    return true;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  /// Returns false iff `deadline` passed without a notification.
  bool WaitUntil(Mutex& mu,
                 std::chrono::steady_clock::time_point deadline) REQUIRES(mu);

  std::condition_variable cv_;
};

}  // namespace ccdb

#endif  // CCDB_COMMON_MUTEX_H_
