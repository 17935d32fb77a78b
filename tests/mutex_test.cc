// Tests for the annotated capability layer (common/mutex.h): MutexLock
// semantics, CondVar signalling and timeouts, and the debug lock-rank
// deadlock detection — a recording handler observes an out-of-order
// acquisition, CondVar::Wait re-pushes the popped rank on wake, and the
// default handler aborts (death test). Rank checking is runtime-toggled
// because the tier-1 build is Release (NDEBUG defaults it off); every test
// restores the global flag and handler it touches.

#include <atomic>
#include <string>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace ccdb {
namespace {

std::atomic<int> g_violations{0};
std::atomic<int> g_held_rank{kNoMutexRank};
std::atomic<int> g_acquiring_rank{kNoMutexRank};

void RecordViolation(int held_rank, int acquiring_rank) {
  g_held_rank.store(held_rank);
  g_acquiring_rank.store(acquiring_rank);
  g_violations.fetch_add(1);
}

/// Enables/installs rank checking state for one test and restores the
/// previous global flag and handler on scope exit.
class RankCheckScope {
 public:
  RankCheckScope(bool enabled, Mutex::RankViolationHandler handler)
      : prev_enabled_(Mutex::SetRankCheckingEnabled(enabled)),
        prev_handler_(Mutex::SetRankViolationHandler(handler)) {
    g_violations.store(0);
    g_held_rank.store(kNoMutexRank);
    g_acquiring_rank.store(kNoMutexRank);
  }
  ~RankCheckScope() {
    Mutex::SetRankCheckingEnabled(prev_enabled_);
    Mutex::SetRankViolationHandler(prev_handler_);
  }
  RankCheckScope(const RankCheckScope&) = delete;
  RankCheckScope& operator=(const RankCheckScope&) = delete;

 private:
  const bool prev_enabled_;
  const Mutex::RankViolationHandler prev_handler_;
};

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;
  ThreadPool pool(4);
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&mu, &counter] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  pool.Wait();
  MutexLock lock(mu);
  EXPECT_EQ(counter, 4000);
}

TEST(MutexTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu;
  ThreadPool pool(1);
  std::atomic<bool> acquired{true};
  mu.Lock();
  pool.Submit([&] { acquired.store(mu.TryLock()); });
  pool.Wait();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  pool.Submit([&] {
    if (mu.TryLock()) {
      acquired.store(true);
      mu.Unlock();
    }
  });
  pool.Wait();
  EXPECT_TRUE(acquired.load());
}

TEST(CondVarTest, SignalWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool consumed = false;
  ThreadPool pool(1);
  pool.Submit([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    consumed = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.Signal();
  pool.Wait();
  MutexLock lock(mu);
  EXPECT_TRUE(consumed);
}

TEST(CondVarTest, WaitForTimesOutWithoutSignal) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_FALSE(cv.WaitFor(mu, 0.01));
}

TEST(CondVarTest, WaitForReturnsTrueWhenSignalled) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  ThreadPool pool(1);
  pool.Submit([&] {
    MutexLock lock(mu);
    ready = true;
    cv.Signal();
  });
  MutexLock lock(mu);
  bool signalled = true;
  while (!ready && signalled) signalled = cv.WaitFor(mu, 5.0);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(signalled);
  pool.Wait();
}

// The rank tests below hold two mutexes at once, some deliberately out of
// order. ThreadSanitizer keys a mutex by its address and never sees a
// std::mutex destroyed, so stack mutexes whose slots a later test reuses
// would merge into false lock-order cycles. These tests therefore keep
// their mutexes in static storage, at addresses no other test shares.

TEST(LockRankTest, InOrderAcquisitionIsSilent) {
  RankCheckScope scope(/*enabled=*/true, &RecordViolation);
  static Mutex outer(lock_rank::kExpansionService);
  static Mutex inner(lock_rank::kThreadPool);
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST(LockRankTest, InversionFiresHandlerWithBothRanks) {
  RankCheckScope scope(/*enabled=*/true, &RecordViolation);
  static Mutex high(lock_rank::kThreadPool);
  static Mutex low(lock_rank::kExpansionService);
  {
    MutexLock a(high);
    // Acquiring a lower (or equal) rank while a higher one is held is the
    // would-be deadlock the checker exists for.
    MutexLock b(low);
  }
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_EQ(g_held_rank.load(), lock_rank::kThreadPool);
  EXPECT_EQ(g_acquiring_rank.load(), lock_rank::kExpansionService);
}

TEST(LockRankTest, UnrankedMutexesNeverParticipate) {
  RankCheckScope scope(/*enabled=*/true, &RecordViolation);
  static Mutex ranked(lock_rank::kThreadPool);
  // Two unranked mutexes (kNoMutexRank), one on each side of the ranked
  // one: taking one pair in both orders is a real lock-order cycle, which
  // ThreadSanitizer reports.
  static Mutex plain_inner;
  static Mutex plain_outer;
  {
    MutexLock a(ranked);
    MutexLock b(plain_inner);  // below a ranked lock: fine, unranked
  }
  {
    MutexLock a(plain_outer);
    MutexLock b(ranked);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST(LockRankTest, DisabledCheckingIgnoresInversions) {
  RankCheckScope scope(/*enabled=*/false, &RecordViolation);
  static Mutex high(lock_rank::kThreadPool);
  static Mutex low(lock_rank::kExpansionService);
  MutexLock a(high);
  MutexLock b(low);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST(LockRankTest, SetRankCheckingReturnsPreviousValue) {
  const bool original = Mutex::RankCheckingEnabled();
  EXPECT_EQ(Mutex::SetRankCheckingEnabled(true), original);
  EXPECT_TRUE(Mutex::RankCheckingEnabled());
  EXPECT_TRUE(Mutex::SetRankCheckingEnabled(original));
  EXPECT_EQ(Mutex::RankCheckingEnabled(), original);
}

TEST(LockRankTest, CondVarWaitRestoresHeldRankOnWake) {
  RankCheckScope scope(/*enabled=*/true, &RecordViolation);
  static Mutex high(lock_rank::kThreadPool);
  static Mutex low(lock_rank::kExpansionService);
  CondVar cv;
  bool go = false;
  ThreadPool pool(1);
  pool.Submit([&] {
    MutexLock lock(high);
    while (!go) cv.Wait(high);
    // The wait popped `high`'s rank and re-pushed it on wake: acquiring a
    // lower rank here must still be reported as an inversion.
    MutexLock nested(low);
  });
  {
    MutexLock lock(high);  // provably acquirable while the waiter sleeps
    go = true;
  }
  cv.Signal();
  pool.Wait();
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_EQ(g_held_rank.load(), lock_rank::kThreadPool);
  EXPECT_EQ(g_acquiring_rank.load(), lock_rank::kExpansionService);
}

TEST(LockRankDeathTest, DefaultHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RankCheckScope scope(/*enabled=*/true, /*handler=*/nullptr);
  Mutex high(lock_rank::kThreadPool);
  Mutex low(lock_rank::kExpansionService);
  EXPECT_DEATH(
      {
        MutexLock a(high);
        MutexLock b(low);
      },
      "lock-rank inversion");
}

}  // namespace
}  // namespace ccdb
