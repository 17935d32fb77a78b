#include "common/mutex.h"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace ccdb {
namespace {

/// Ranks of the ranked mutexes this thread currently holds, in acquisition
/// order. Unranked mutexes (kNoMutexRank) never enter the stack, so the
/// common case — ephemeral latches, tests — costs one branch per lock.
thread_local std::vector<int> t_held_ranks;

std::atomic<bool> g_rank_checking{
#ifdef NDEBUG
    false  // opt in via Mutex::SetRankCheckingEnabled(true)
#else
    true  // debug builds check every ranked acquisition
#endif
};

void DefaultRankViolation(int held_rank, int acquiring_rank) {
  std::fprintf(stderr,
               "lock-rank inversion: acquiring mutex rank %d while holding "
               "rank %d — ranked mutexes must be acquired in strictly "
               "increasing rank order (common/mutex.h lock_rank, "
               "DESIGN.md §13)\n",
               acquiring_rank, held_rank);
  std::fflush(stderr);
  std::abort();
}

std::atomic<Mutex::RankViolationHandler> g_rank_handler{nullptr};

/// Fires the violation handler if acquiring `rank` would invert the
/// per-thread rank order. Called BEFORE the underlying lock() so a
/// would-be deadlock is reported, not hung.
void CheckRankBeforeAcquire(int rank) {
  if (rank == kNoMutexRank ||
      !g_rank_checking.load(std::memory_order_relaxed)) {
    return;
  }
  int max_held = kNoMutexRank;
  for (int held : t_held_ranks) {
    if (held > max_held) max_held = held;
  }
  if (max_held != kNoMutexRank && rank <= max_held) {
    Mutex::RankViolationHandler handler =
        g_rank_handler.load(std::memory_order_acquire);
    (handler != nullptr ? handler : &DefaultRankViolation)(max_held, rank);
  }
}

void PushHeldRank(int rank) {
  if (rank == kNoMutexRank ||
      !g_rank_checking.load(std::memory_order_relaxed)) {
    return;
  }
  t_held_ranks.push_back(rank);
}

/// Removes the most recent stack entry for `rank`. Deliberately not gated
/// on the checking flag: if checking is turned off between Lock and
/// Unlock, the stale entry is still removed instead of poisoning later
/// checks on this thread.
void PopHeldRank(int rank) {
  if (rank == kNoMutexRank) return;
  for (std::size_t i = t_held_ranks.size(); i > 0; --i) {
    if (t_held_ranks[i - 1] == rank) {
      t_held_ranks.erase(t_held_ranks.begin() +
                         static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
}

}  // namespace

void Mutex::Lock() {
  CheckRankBeforeAcquire(rank_);
  mu_.lock();
  PushHeldRank(rank_);
}

void Mutex::Unlock() {
  PopHeldRank(rank_);
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) return false;
  PushHeldRank(rank_);
  return true;
}

bool Mutex::SetRankCheckingEnabled(bool enabled) {
  return g_rank_checking.exchange(enabled, std::memory_order_relaxed);
}

bool Mutex::RankCheckingEnabled() {
  return g_rank_checking.load(std::memory_order_relaxed);
}

Mutex::RankViolationHandler Mutex::SetRankViolationHandler(
    RankViolationHandler handler) {
  return g_rank_handler.exchange(handler, std::memory_order_acq_rel);
}

void CondVar::Wait(Mutex& mu) {
  // The wait releases `mu`: pop its rank so concurrent acquisitions by
  // this thread's wakers are judged against the true held set, re-push
  // (unchecked — the original Lock already validated the order) on wake.
  PopHeldRank(mu.rank_);
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
  PushHeldRank(mu.rank_);
}

bool CondVar::WaitFor(Mutex& mu, double seconds) {
  return WaitUntil(
      mu, std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds < 0 ? 0 : seconds)));
}

bool CondVar::WaitUntil(Mutex& mu,
                        std::chrono::steady_clock::time_point deadline) {
  PopHeldRank(mu.rank_);
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  const std::cv_status status = cv_.wait_until(lock, deadline);
  lock.release();
  PushHeldRank(mu.rank_);
  return status != std::cv_status::timeout;
}

}  // namespace ccdb
