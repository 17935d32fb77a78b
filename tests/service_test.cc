#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/expansion_service.h"
#include "core/perceptual_space.h"
#include "data/domains.h"
#include "data/synthetic_world.h"

namespace ccdb::core {
namespace {

using data::SyntheticWorld;
using data::TinyConfig;

/// Shared world + space (SGD takes ~1s; build once for the whole suite).
class ExpansionServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new SyntheticWorld(TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();
    PerceptualSpaceOptions options;
    options.model.dims = 16;
    options.trainer.max_epochs = 15;
    space_ = new PerceptualSpace(PerceptualSpace::Build(ratings, options));
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
  }

  static crowd::WorkerPool HonestPool(int n) {
    crowd::WorkerPool pool;
    for (int i = 0; i < n; ++i) {
      crowd::WorkerProfile worker;
      worker.honest = true;
      worker.knowledge = 1.0;
      worker.accuracy = 0.95;
      worker.judgments_per_minute = 2.0;
      pool.workers.push_back(worker);
    }
    return pool;
  }

  /// A well-formed job for `attribute` whose gold sample has both classes.
  static ExpansionJob GoodJob(const std::string& attribute,
                              std::uint64_t seed = 33) {
    ExpansionJob job;
    job.table = "movies";
    job.request.attribute_name = attribute;
    Rng rng(seed);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_->num_items(), 60)) {
      job.request.gold_sample_items.push_back(
          static_cast<std::uint32_t>(index));
      job.sample_truth.push_back(
          world_->GenreLabel(0, static_cast<std::uint32_t>(index)));
    }
    job.hit_config.judgments_per_item = 3;
    job.hit_config.perception_flip_rate = 0.05;
    job.hit_config.seed = seed;
    return job;
  }

  /// A job whose crowd sample can never yield two classes (it has one
  /// item): the resilient pipeline fails it with FailedPrecondition — the
  /// breaker-relevant "platform keeps misbehaving" shape.
  static ExpansionJob FailingJob(const std::string& attribute) {
    ExpansionJob job;
    job.table = "movies";
    job.request.attribute_name = attribute;
    job.request.gold_sample_items = {0};
    job.sample_truth = {true};
    job.hit_config.judgments_per_item = 3;
    job.hit_config.seed = 77;
    job.expansion.max_topups = 0;  // fail fast, no recovery rounds
    return job;
  }

  static void ExpectInvariants(const ServiceStats& stats) {
    EXPECT_EQ(stats.submitted, stats.admitted + stats.deduped + stats.shed +
                                   stats.breaker_rejected);
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed +
                                  stats.cancelled + stats.deadline_exceeded);
  }

  static SyntheticWorld* world_;
  static PerceptualSpace* space_;
};

SyntheticWorld* ExpansionServiceTest::world_ = nullptr;
PerceptualSpace* ExpansionServiceTest::space_ = nullptr;

TEST_F(ExpansionServiceTest, FingerprintSeparatesJobsButIgnoresCaller) {
  const ExpansionJob a = GoodJob("is_comedy");
  ExpansionJob b = GoodJob("is_comedy");
  EXPECT_EQ(ExpansionJobFingerprint(a), ExpansionJobFingerprint(b));
  // Caller-side patience and token do not change the identity...
  b.deadline_seconds = 2.0;
  CancellationSource source;
  b.cancel = source.token();
  EXPECT_EQ(ExpansionJobFingerprint(a), ExpansionJobFingerprint(b));
  // ...but the attribute, table, and crowd policy all do.
  ExpansionJob c = GoodJob("is_horror");
  EXPECT_NE(ExpansionJobFingerprint(a), ExpansionJobFingerprint(c));
  ExpansionJob d = GoodJob("is_comedy");
  d.table = "books";
  EXPECT_NE(ExpansionJobFingerprint(a), ExpansionJobFingerprint(d));
  ExpansionJob e = GoodJob("is_comedy");
  e.hit_config.judgments_per_item = 9;
  EXPECT_NE(ExpansionJobFingerprint(a), ExpansionJobFingerprint(e));
  // A field missing from the identity would let two different jobs share
  // one flight and one answer, so every input below must move it.
  const struct {
    const char* field;
    void (*mutate)(ExpansionJob&);
  } kChanges[] = {
      {"gold item", [](ExpansionJob& j) { ++j.request.gold_sample_items[0]; }},
      {"truth label",
       [](ExpansionJob& j) { j.sample_truth[0] = !j.sample_truth[0]; }},
      {"extractor.cost",
       [](ExpansionJob& j) { j.request.extractor.cost *= 2.0; }},
      {"extractor.smo.max_iterations",
       [](ExpansionJob& j) { ++j.request.extractor.smo.max_iterations; }},
      {"hit_config.seed", [](ExpansionJob& j) { ++j.hit_config.seed; }},
      {"fault.churn_prob",
       [](ExpansionJob& j) { j.hit_config.fault.churn_prob = 0.1; }},
      {"dispatcher.max_reposts",
       [](ExpansionJob& j) { ++j.expansion.dispatcher.max_reposts; }},
      {"dispatcher.max_dollars",
       [](ExpansionJob& j) { j.expansion.dispatcher.max_dollars = 5.0; }},
      {"max_topups", [](ExpansionJob& j) { ++j.expansion.max_topups; }},
  };
  for (const auto& change : kChanges) {
    ExpansionJob changed = GoodJob("is_comedy");
    change.mutate(changed);
    EXPECT_NE(ExpansionJobFingerprint(a), ExpansionJobFingerprint(changed))
        << change.field;
  }
}

TEST_F(ExpansionServiceTest, SingleJobCompletes) {
  ExpansionService service(*space_, HonestPool(10));
  auto ticket = service.ExpandAttribute(GoodJob("is_comedy"));
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const SchemaExpansionResult result = ticket.value().Wait();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.values.size(), world_->num_items());
  EXPECT_GT(result.crowd_dollars, 0.0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.expansions_run, 1u);
  EXPECT_DOUBLE_EQ(stats.crowd_dollars_spent, result.crowd_dollars);
  ExpectInvariants(stats);
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
}

TEST_F(ExpansionServiceTest, SingleFlightSpendsCrowdDollarsOnce) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 16;
  ExpansionService service(*space_, HonestPool(10), options);

  // Occupy the lone worker so the identical jobs below pile up behind it
  // deterministically (the occupier's full pipeline takes orders of
  // magnitude longer than the three submissions).
  auto occupier = service.ExpandAttribute(GoodJob("is_horror", 44));
  ASSERT_TRUE(occupier.ok());

  std::vector<ExpansionService::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto ticket = service.ExpandAttribute(GoodJob("is_comedy"));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(ticket).value());
  }

  const SchemaExpansionResult occupier_result = occupier.value().Wait();
  std::vector<SchemaExpansionResult> results;
  for (auto& ticket : tickets) results.push_back(ticket.Wait());
  service.Drain();

  // One flight served all three identical requests with one crowd spend.
  for (const auto& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.values, results.front().values);
    EXPECT_DOUBLE_EQ(result.crowd_dollars, results.front().crowd_dollars);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 2u);  // the occupier + one shared flight
  EXPECT_EQ(stats.deduped, 2u);
  EXPECT_EQ(stats.expansions_run, 2u);
  EXPECT_DOUBLE_EQ(
      stats.crowd_dollars_spent,
      occupier_result.crowd_dollars + results.front().crowd_dollars);
  ExpectInvariants(stats);
}

TEST_F(ExpansionServiceTest, FullQueueShedsWithResourceExhausted) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  ExpansionService service(*space_, HonestPool(10), options);

  std::vector<ExpansionService::Ticket> tickets;
  std::size_t shed = 0;
  for (int i = 0; i < 8; ++i) {
    // Distinct attributes: no dedup, every request wants its own flight.
    auto ticket =
        service.ExpandAttribute(GoodJob("attr_" + std::to_string(i)));
    if (ticket.ok()) {
      tickets.push_back(std::move(ticket).value());
    } else {
      EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  // 8 instant submissions against a depth-1 queue and a single worker
  // must shed most of them — and never deadlock the admitted ones.
  EXPECT_GE(shed, 1u);
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket.Wait().status.ok());
  }
  service.Drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, stats.admitted);
  ExpectInvariants(stats);
}

TEST_F(ExpansionServiceTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  ExpansionService service(*space_, HonestPool(10));
  ExpansionJob job = GoodJob("is_comedy");
  job.deadline_seconds = 1e-9;  // expired before the flight starts
  auto ticket = service.ExpandAttribute(std::move(job));
  ASSERT_TRUE(ticket.ok());
  const SchemaExpansionResult result = ticket.value().Wait();
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  service.Drain();
  const ServiceStats stats = service.stats();
  // The flight terminated on its expired deadline — or, if the waiter's
  // own (identical) deadline abandonment won the race and fired the
  // flight token first, as cancelled. Either way it is accounted.
  EXPECT_EQ(stats.deadline_exceeded + stats.cancelled, 1u);
  // The flight was stopped before the dispatcher bought anything.
  EXPECT_DOUBLE_EQ(stats.crowd_dollars_spent, 0.0);
  ExpectInvariants(stats);
}

TEST_F(ExpansionServiceTest, CancelledWaiterAbandonsWithoutKillingFlight) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 16;
  ExpansionService service(*space_, HonestPool(10), options);

  auto occupier = service.ExpandAttribute(GoodJob("is_horror", 44));
  ASSERT_TRUE(occupier.ok());

  CancellationSource impatient;
  ExpansionJob job_a = GoodJob("is_comedy");
  job_a.cancel = impatient.token();
  auto ticket_a = service.ExpandAttribute(std::move(job_a));
  auto ticket_b = service.ExpandAttribute(GoodJob("is_comedy"));
  ASSERT_TRUE(ticket_a.ok());
  ASSERT_TRUE(ticket_b.ok());

  // The first waiter gives up while the flight is still queued; the
  // second still gets the real answer.
  impatient.Cancel();
  const SchemaExpansionResult abandoned = ticket_a.value().Wait();
  EXPECT_EQ(abandoned.status.code(), StatusCode::kCancelled);
  // ccdb-lint: allow(status-nodiscard) — occupier flight only exists to keep
  // the pool busy; its result is irrelevant.
  (void)occupier.value().Wait();
  const SchemaExpansionResult kept = ticket_b.value().Wait();
  EXPECT_TRUE(kept.status.ok()) << kept.status.ToString();
  service.Drain();
  ExpectInvariants(service.stats());
}

TEST_F(ExpansionServiceTest, LastWaiterCancellationStopsTheFlight) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 16;
  ExpansionService service(*space_, HonestPool(10), options);

  auto occupier = service.ExpandAttribute(GoodJob("is_horror", 44));
  ASSERT_TRUE(occupier.ok());

  CancellationSource source;
  ExpansionJob job = GoodJob("is_comedy");
  job.cancel = source.token();
  auto ticket = service.ExpandAttribute(std::move(job));
  ASSERT_TRUE(ticket.ok());
  source.Cancel();
  const SchemaExpansionResult result = ticket.value().Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);

  // ccdb-lint: allow(status-nodiscard) — occupier flight only exists to keep
  // the pool busy; its result is irrelevant.
  (void)occupier.value().Wait();
  service.Drain();
  const ServiceStats stats = service.stats();
  // The abandoned flight observed its fired token before dispatching and
  // terminated as cancelled without spending crowd money on it.
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the occupier
  ExpectInvariants(stats);
}

/// The breaker tests' cooldown. The submit right after a trip must find
/// the breaker still open, so the cooldown must outlast any scheduling
/// stall between the two; the tests then sleep past it to probe.
constexpr double kBreakerCooldownSeconds = 1.0;
constexpr auto kPastBreakerCooldown = std::chrono::milliseconds(1100);

TEST_F(ExpansionServiceTest, BreakerTripsRejectsAndRecovers) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 8;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_seconds = kBreakerCooldownSeconds;
  ExpansionService service(*space_, HonestPool(10), options);

  // Three consecutive pipeline failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    auto ticket =
        service.ExpandAttribute(FailingJob("bad_" + std::to_string(i)));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const SchemaExpansionResult result = ticket.value().Wait();
    EXPECT_FALSE(result.status.ok());
    service.Drain();  // sequential completions keep the count deterministic
  }
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(service.stats().breaker_trips, 1u);

  // While open, everything is rejected up front.
  auto rejected = service.ExpandAttribute(GoodJob("is_comedy"));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().breaker_rejected, 1u);

  // After the cooldown a single probe goes through; its success closes
  // the breaker again.
  std::this_thread::sleep_for(kPastBreakerCooldown);
  auto probe = service.ExpandAttribute(GoodJob("is_comedy"));
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  // Admitted as the half-open breaker's probe. (Reading breaker_state()
  // here would race the probe, which may already have closed it.)
  EXPECT_EQ(service.stats().breaker_probes, 1u);
  EXPECT_TRUE(probe.value().Wait().status.ok());
  service.Drain();
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_recoveries, 1u);
  EXPECT_EQ(stats.failed, 3u);
  ExpectInvariants(stats);

  // Recovered for real: the next request is admitted normally.
  auto after = service.ExpandAttribute(GoodJob("is_horror", 44));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().Wait().status.ok());
}

TEST_F(ExpansionServiceTest, FailedProbeReopensTheBreaker) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 8;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_seconds = kBreakerCooldownSeconds;
  ExpansionService service(*space_, HonestPool(10), options);

  for (int i = 0; i < 2; ++i) {
    auto ticket =
        service.ExpandAttribute(FailingJob("bad_" + std::to_string(i)));
    ASSERT_TRUE(ticket.ok());
    // ccdb-lint: allow(status-nodiscard) — breaker test asserts on
    // breaker_state(), not the failed result.
    (void)ticket.value().Wait();
    service.Drain();
  }
  ASSERT_EQ(service.breaker_state(), BreakerState::kOpen);

  std::this_thread::sleep_for(kPastBreakerCooldown);
  auto probe = service.ExpandAttribute(FailingJob("bad_probe"));
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe.value().Wait().status.ok());
  service.Drain();
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(service.stats().breaker_trips, 2u);
  ExpectInvariants(service.stats());
}

TEST_F(ExpansionServiceTest, AbandonedTicketsCancelQueuedFlights) {
  ExpansionServiceOptions options;
  options.workers = 1;
  options.queue_depth = 8;
  ExpansionService service(*space_, HonestPool(10), options);
  {
    std::vector<ExpansionService::Ticket> abandoned;
    for (int i = 0; i < 3; ++i) {
      auto ticket =
          service.ExpandAttribute(GoodJob("attr_" + std::to_string(i)));
      ASSERT_TRUE(ticket.ok());
      abandoned.push_back(std::move(ticket).value());
    }
    // Dropped without Wait(): each destructor is its flight's last
    // waiter leaving, which cancels the flight — queued ones resolve
    // Cancelled before buying a single judgment.
  }
  auto kept = service.ExpandAttribute(GoodJob("kept_attr"));
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept.value().Wait().status.ok());
  service.Drain();
  const ServiceStats stats = service.stats();
  // The first abandoned flight may have been mid-run (completed or
  // cancelled); the two queued behind it observed their fired token.
  EXPECT_GE(stats.cancelled, 2u);
  ExpectInvariants(stats);
  // The service destructor then shuts down with nothing outstanding.
}

// The satellite stress test: concurrent mixed-attribute submissions with
// random mid-flight cancellations. Asserts liveness (the test finishes),
// stats invariants, and that every ticket resolves.
TEST_F(ExpansionServiceTest, ConcurrentStressWithRandomCancellations) {
  ExpansionServiceOptions options;
  options.workers = 3;
  options.queue_depth = 4;
  // A deadline-starved crowd stage can legitimately yield a one-class
  // sample (a breaker-relevant failure); keep the breaker out of this
  // test's way so the invariants stay about admission and termination.
  options.breaker.failure_threshold = 1000000;
  ExpansionService service(*space_, HonestPool(10), options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> rejected{0};

  // ccdb-lint: allow(raw-thread) — the stress test deliberately submits from
  // raw threads to race the service's own pool.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // A small attribute set so submissions collide on flights.
        ExpansionJob job =
            GoodJob("attr_" + std::to_string(rng.UniformInt(4)));
        CancellationSource source;
        job.cancel = source.token();
        if (rng.Bernoulli(0.3)) {
          job.deadline_seconds = rng.Uniform(0.001, 0.05);
        }
        auto ticket = service.ExpandAttribute(std::move(job));
        if (!ticket.ok()) {
          ++rejected;
          continue;
        }
        if (rng.Bernoulli(0.4)) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int>(rng.Uniform(0.0, 2000.0))));
          source.Cancel();
        }
        // ccdb-lint: allow(status-nodiscard) — stress loop cares about
        // completion counts, not individual results.
        (void)ticket.value().Wait();
        ++resolved;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  service.Drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(resolved.load() + rejected.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.shed + stats.breaker_rejected, rejected.load());
  ExpectInvariants(stats);
  // Valid jobs never trip the breaker: cancellations and deadlines are
  // breaker-neutral.
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);
}

}  // namespace
}  // namespace ccdb::core
