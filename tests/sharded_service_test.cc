// Tests for the sharded expansion serving layer: consistent-hash routing,
// wire codecs, scatter-gather predict/kNN against single-node references,
// retries over injected transport faults, hedging with duplicate-response
// dedup, the pre-fan-out deadline clamp, per-shard health gating, durable
// expand idempotency across a shard restart, and the partial-result
// degradation contract (a minority partition yields the reachable shards'
// exact fault-free union, never a blanket Unavailable).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "core/consistent_ring.h"
#include "core/expansion.h"
#include "core/expansion_service.h"
#include "core/expansion_wire.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "core/shard_server.h"
#include "core/sharded_service.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "net/fault_transport.h"
#include "net/transport.h"

namespace ccdb::core {
namespace {

using data::SyntheticWorld;
using data::TinyConfig;

class ShardedServiceTest : public ::testing::Test {
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

  /// Shard servers 0..n-1 on transport nodes 1..n, started.
  static std::vector<std::unique_ptr<ExpansionShardServer>> StartServers(
      net::Transport& transport, std::uint32_t num_shards,
      const ShardServerOptions& options = {}) {
    std::vector<std::unique_ptr<ExpansionShardServer>> servers;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      servers.push_back(std::make_unique<ExpansionShardServer>(
          s + 1, s, num_shards, *space_, HonestPool(10), transport, options));
      EXPECT_TRUE(servers.back()->Start().ok());
    }
    return servers;
  }

  static ShardedExpansionOptions RouterOptions(std::uint32_t num_shards) {
    ShardedExpansionOptions options;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      options.shard_nodes.push_back(s + 1);
    }
    options.seed = 99;
    return options;
  }

  /// A predict request whose gold sample carries both classes, asking for
  /// every item in the space.
  static PredictRequest AllItemsPredict(std::uint64_t seed = 33) {
    PredictRequest request;
    Rng rng(seed);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_->num_items(), 60)) {
      request.gold_items.push_back(static_cast<std::uint32_t>(index));
      request.gold_labels.push_back(
          world_->GenreLabel(0, static_cast<std::uint32_t>(index)));
    }
    for (std::size_t i = 0; i < world_->num_items(); ++i) {
      request.items.push_back(static_cast<std::uint32_t>(i));
    }
    return request;
  }

  /// The single-node answer the sharded deployment must reproduce
  /// bit-identically: one extractor trained on the same gold inputs.
  static std::vector<bool> ReferencePredict(const PredictRequest& request) {
    BinaryAttributeExtractor extractor(request.extractor);
    EXPECT_TRUE(
        extractor.Train(*space_, request.gold_items, request.gold_labels));
    std::optional<std::vector<bool>> values =
        extractor.ExtractItems(*space_, request.items);
    EXPECT_TRUE(values.has_value());
    return values.value_or(std::vector<bool>{});
  }

  /// Global top-k over the items owned by reachable shards, with the same
  /// (distance, index) total order the servers and router use.
  static std::vector<KnnNeighbor> ReferenceKnn(
      std::uint32_t item, std::uint32_t k, const ConsistentRing& ring,
      const std::vector<bool>& shard_reachable) {
    std::vector<KnnNeighbor> all;
    for (std::uint32_t other = 0;
         other < static_cast<std::uint32_t>(space_->num_items()); ++other) {
      if (other == item) continue;
      if (!shard_reachable[ring.OwnerOfItem(other)]) continue;
      all.push_back(KnnNeighbor{other, space_->Distance(item, other)});
    }
    std::sort(all.begin(), all.end(),
              [](const KnnNeighbor& a, const KnnNeighbor& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.index < b.index;
              });
    if (all.size() > k) all.resize(k);
    return all;
  }

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

  /// Router counter identity (valid once the asserted-on calls returned).
  static void ExpectRouterInvariants(const ShardedServiceStats& stats) {
    EXPECT_EQ(stats.requests, stats.completed + stats.partial + stats.failed +
                                  stats.shed_expired);
    EXPECT_GE(stats.attempts, stats.retries + stats.hedges_fired);
  }

  static void ExpectServiceInvariants(const ServiceStats& stats) {
    EXPECT_EQ(stats.submitted, stats.admitted + stats.deduped + stats.shed +
                                   stats.breaker_rejected);
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed +
                                  stats.cancelled + stats.deadline_exceeded);
  }

  static SyntheticWorld* world_;
  static PerceptualSpace* space_;
};

SyntheticWorld* ShardedServiceTest::world_ = nullptr;
PerceptualSpace* ShardedServiceTest::space_ = nullptr;

// --- consistent ring --------------------------------------------------------

TEST_F(ShardedServiceTest, RingIsDeterministicAndCoversEveryShard) {
  const ConsistentRing a(4, 16);
  const ConsistentRing b(4, 16);
  std::vector<std::size_t> owned(4, 0);
  for (std::uint32_t item = 0; item < 300; ++item) {
    const std::uint32_t owner = a.OwnerOfItem(item);
    EXPECT_EQ(owner, b.OwnerOfItem(item));  // routers/servers must agree
    ASSERT_LT(owner, 4u);
    ++owned[owner];
  }
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(owned[shard], 0u) << "shard " << shard << " owns nothing";
  }
  // One shard trivially owns everything.
  const ConsistentRing solo(1, 16);
  EXPECT_EQ(solo.Owner(0xDEADBEEFull), 0u);
}

// --- wire codecs ------------------------------------------------------------

TEST_F(ShardedServiceTest, WireCodecsRoundTrip) {
  PredictRequest predict = AllItemsPredict();
  predict.extractor.cost = 3.5;
  StatusOr<PredictRequest> predict_rt =
      DecodePredictRequest(EncodePredictRequest(predict));
  ASSERT_TRUE(predict_rt.ok());
  EXPECT_EQ(predict_rt.value().gold_items, predict.gold_items);
  EXPECT_EQ(predict_rt.value().gold_labels, predict.gold_labels);
  EXPECT_EQ(predict_rt.value().items, predict.items);
  EXPECT_EQ(predict_rt.value().extractor.cost, predict.extractor.cost);

  PredictResponse values;
  values.values = {true, false, true};
  StatusOr<PredictResponse> values_rt =
      DecodePredictResponse(EncodePredictResponse(values));
  ASSERT_TRUE(values_rt.ok());
  EXPECT_EQ(values_rt.value().values, values.values);

  StatusOr<KnnRequest> knn_rt =
      DecodeKnnRequest(EncodeKnnRequest(KnnRequest{7, 3}));
  ASSERT_TRUE(knn_rt.ok());
  EXPECT_EQ(knn_rt.value().item, 7u);
  EXPECT_EQ(knn_rt.value().k, 3u);

  KnnResponse neighbors;
  neighbors.neighbors = {KnnNeighbor{1, 0.25}, KnnNeighbor{9, 1.75}};
  StatusOr<KnnResponse> neighbors_rt =
      DecodeKnnResponse(EncodeKnnResponse(neighbors));
  ASSERT_TRUE(neighbors_rt.ok());
  ASSERT_EQ(neighbors_rt.value().neighbors.size(), 2u);
  EXPECT_EQ(neighbors_rt.value().neighbors[1].index, 9u);
  EXPECT_EQ(neighbors_rt.value().neighbors[1].distance, 1.75);

  // The expand request codec preserves the job's dedup identity exactly.
  const ExpansionJob job = GoodJob("is_comedy");
  StatusOr<ExpansionJob> job_rt = DecodeExpandRequest(EncodeExpandRequest(job));
  ASSERT_TRUE(job_rt.ok());
  EXPECT_EQ(ExpansionJobFingerprint(job_rt.value()),
            ExpansionJobFingerprint(job));

  ExpandResponse expand;
  expand.result.status = Status::FailedPrecondition("one-class sample");
  expand.result.values = {true, false};
  expand.result.crowd_dollars = 1.25;
  StatusOr<ExpandResponse> expand_rt =
      DecodeExpandResponse(EncodeExpandResponse(expand));
  ASSERT_TRUE(expand_rt.ok());
  EXPECT_EQ(expand_rt.value().result.status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(expand_rt.value().result.values, expand.result.values);
  EXPECT_EQ(expand_rt.value().result.crowd_dollars, 1.25);

  // Malformed payloads surface as InvalidArgument, never as garbage.
  EXPECT_EQ(DecodePredictRequest("junk").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeKnnResponse("x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeExpandResponse("").status().code(),
            StatusCode::kInvalidArgument);
}

// --- fault-free scatter-gather ----------------------------------------------

TEST_F(ShardedServiceTest, PredictMatchesSingleNodeReferenceBitForBit) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 3);
  ShardedExpansionService router(transport, RouterOptions(3));

  const PredictRequest request = AllItemsPredict();
  const std::vector<bool> reference = ReferencePredict(request);
  const ShardedPredictResult result = router.Predict(request);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.shards_asked, 3u);
  EXPECT_EQ(result.shards_answered, 3u);
  ASSERT_EQ(result.values.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(result.values[i].has_value()) << "item " << i;
    EXPECT_EQ(*result.values[i], reference[i]) << "item " << i;
  }
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.partial, 0u);
  ExpectRouterInvariants(stats);
}

TEST_F(ShardedServiceTest, KnnMatchesGlobalReference) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 3);
  ShardedExpansionService router(transport, RouterOptions(3));

  const std::vector<bool> all_reachable(3, true);
  for (std::uint32_t item : {0u, 5u, 299u}) {
    const std::vector<KnnNeighbor> reference =
        ReferenceKnn(item, 10, router.ring(), all_reachable);
    const ShardedKnnResult result = router.Knn(item, 10);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.coverage, 1.0);
    ASSERT_EQ(result.neighbors.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].index, reference[i].index);
      EXPECT_EQ(result.neighbors[i].distance, reference[i].distance);
    }
  }
  ExpectRouterInvariants(router.stats());
}

// --- degradation contract ---------------------------------------------------

TEST_F(ShardedServiceTest, MinorityPartitionYieldsExactPartialUnion) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 4);
  ShardedExpansionOptions options = RouterOptions(4);
  // Fast, deterministic attempts: the cut shard fails without hedges.
  options.hedging = false;
  options.retry_backoff_initial_ms = 0.2;
  options.min_coverage = 0.1;
  ShardedExpansionService router(transport, options);

  // Cut the router off from shard 0 only.
  transport.StartPartition("cut0", {net::kClientNode}, {1});

  const PredictRequest request = AllItemsPredict();
  const std::vector<bool> reference = ReferencePredict(request);
  std::size_t cut_owned = 0;
  for (std::uint32_t item : request.items) {
    if (router.ring().OwnerOfItem(item) == 0) ++cut_owned;
  }
  ASSERT_GT(cut_owned, 0u);
  ASSERT_LT(cut_owned, request.items.size());

  const ShardedPredictResult result = router.Predict(request);

  // The degradation contract: a 1-of-4 partition is Ok + coverage, NEVER
  // a blanket Unavailable.
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_NE(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.shards_answered, 3u);
  const double expected_coverage =
      static_cast<double>(request.items.size() - cut_owned) /
      static_cast<double>(request.items.size());
  EXPECT_DOUBLE_EQ(result.coverage, expected_coverage);

  // Answered items are bit-identical to the fault-free reference; the cut
  // shard's items are honestly absent, not fabricated.
  ASSERT_EQ(result.values.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const bool owner_cut = router.ring().OwnerOfItem(request.items[i]) == 0;
    if (owner_cut) {
      EXPECT_FALSE(result.values[i].has_value()) << "item " << i;
    } else {
      ASSERT_TRUE(result.values[i].has_value()) << "item " << i;
      EXPECT_EQ(*result.values[i], reference[i]) << "item " << i;
    }
  }
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.partial, 1u);
  EXPECT_EQ(stats.completed, 0u);
  ExpectRouterInvariants(stats);
}

TEST_F(ShardedServiceTest, KnnUnderPartitionIsUnionOfReachableShards) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 4);
  ShardedExpansionOptions options = RouterOptions(4);
  options.hedging = false;
  options.retry_backoff_initial_ms = 0.2;
  options.min_coverage = 0.5;
  ShardedExpansionService router(transport, options);

  transport.StartPartition("cut2", {net::kClientNode}, {3});  // shard 2

  std::vector<bool> reachable = {true, true, false, true};
  const std::vector<KnnNeighbor> reference =
      ReferenceKnn(5, 12, router.ring(), reachable);
  const ShardedKnnResult result = router.Knn(5, 12);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_DOUBLE_EQ(result.coverage, 0.75);
  ASSERT_EQ(result.shard_answered.size(), 4u);
  EXPECT_FALSE(result.shard_answered[2]);
  ASSERT_EQ(result.neighbors.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.neighbors[i].index, reference[i].index);
    EXPECT_EQ(result.neighbors[i].distance, reference[i].distance);
  }
  EXPECT_EQ(router.stats().partial, 1u);
  ExpectRouterInvariants(router.stats());
}

TEST_F(ShardedServiceTest, MajorityPartitionFailsBelowMinCoverage) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 4);
  ShardedExpansionOptions options = RouterOptions(4);
  options.hedging = false;
  options.retry_backoff_initial_ms = 0.2;
  options.min_coverage = 0.5;
  ShardedExpansionService router(transport, options);

  // Cut 3 of 4 shards: 25% coverage is below the 50% floor.
  transport.StartPartition("cut", {net::kClientNode}, {1, 2, 3});
  const ShardedKnnResult result = router.Knn(5, 12);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(result.coverage, 0.25);
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.failed, 1u);
  ExpectRouterInvariants(stats);
}

// --- retries, deadline clamp, hedging ---------------------------------------

TEST_F(ShardedServiceTest, RetryRecoversFromInjectedDrop) {
  net::FaultTransportOptions fault;
  fault.fault_at_op = 1;  // the very first transport call is dropped
  net::FaultTransport transport(fault);
  auto servers = StartServers(transport, 1);
  ShardedExpansionOptions options = RouterOptions(1);
  options.hedging = false;
  options.retry_backoff_initial_ms = 0.2;
  ShardedExpansionService router(transport, options);

  const ShardedKnnResult result = router.Knn(5, 8);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.coverage, 1.0);
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.attempts, 2u);
  EXPECT_GE(stats.transport_errors, 1u);
  ExpectRouterInvariants(stats);
}

TEST_F(ShardedServiceTest, NearDeadlineRequestShedsWithZeroTransportTraffic) {
  net::FaultTransport transport(net::FaultTransportOptions{});
  auto servers = StartServers(transport, 2);
  ShardedExpansionService router(transport, RouterOptions(2));

  // Per-request budget far below min_fanout_seconds: shed up front.
  const ShardedPredictResult by_budget =
      router.Predict(AllItemsPredict(), /*deadline_seconds=*/1e-6);
  EXPECT_EQ(by_budget.status.code(), StatusCode::kDeadlineExceeded);

  // Caller-carried deadline minted earlier and (almost) elapsed: the clamp
  // measures what is actually left, not the nominal per-request budget.
  const StopCondition nearly_spent(Deadline::AfterSeconds(1e-6));
  const ShardedKnnResult by_deadline = router.Knn(5, 8, 0.0, nearly_spent);
  EXPECT_EQ(by_deadline.status.code(), StatusCode::kDeadlineExceeded);

  // A cancelled caller sheds the same way.
  CancellationSource cancelled;
  cancelled.Cancel();
  const ShardedKnnResult by_cancel =
      router.Knn(5, 8, 0.0, StopCondition(cancelled.token()));
  EXPECT_EQ(by_cancel.status.code(), StatusCode::kCancelled);

  // None of the three shed requests enqueued a single shard call.
  EXPECT_EQ(transport.ops_observed(), 0u);
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.shed_expired, 3u);
  EXPECT_EQ(stats.attempts, 0u);
  ExpectRouterInvariants(stats);
}

TEST_F(ShardedServiceTest, HedgedExpandDeduplicatesAndSpendsDollarsOnce) {
  // Every delivery spends a constant 50 ms in transit, so no response can
  // beat the router's first wait pass: the hedge always fires, and its
  // delivery lands while the primary's flight may be finishing — the
  // window in which a re-delivery must not start a second flight.
  net::FaultTransportOptions transit;
  transit.delay_prob = 1.0;
  transit.delay_min_ms = 50.0;
  transit.delay_max_ms = 50.0;
  net::FaultTransport transport(transit);
  auto servers = StartServers(transport, 1);
  ShardedExpansionOptions options = RouterOptions(1);
  // With no latency history the hedge delay is hedge_max_delay_ms; a zero
  // delay fires the hedge on the wait loop's first pass, before the
  // delayed expand can possibly answer.
  options.hedging = true;
  options.hedge_max_delay_ms = 0.0;
  options.hedge_min_delay_ms = 0.0;
  ShardedExpansionService router(transport, options);

  const ShardedExpandResult result = router.Expand(GoodJob("is_comedy"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.result.status.ok()) << result.result.status.ToString();
  EXPECT_GT(result.result.crowd_dollars, 0.0);

  // The hedge's response arrives after the race is decided: wait for both
  // deliveries to land so the duplicate is counted.
  for (int i = 0; i < 3000; ++i) {
    const ShardedServiceStats stats = router.stats();
    if (stats.attempts >= 2 && stats.duplicate_responses >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.hedges_fired, 1u);
  EXPECT_GE(stats.attempts, 2u);
  // Exactly one response won the race and exactly one lost: the loser is
  // the duplicate the dedup contract absorbs. The winner may have been
  // either the primary or the hedge (hedge_wins records which).
  EXPECT_EQ(stats.duplicate_responses, 1u);
  EXPECT_LE(stats.hedge_wins, 1u);
  ExpectRouterInvariants(stats);

  // Both deliveries hit the same shard; its claim on the job's fingerprint
  // (or the result cache, if the hedge arrived after completion) absorbed
  // the duplicate, and the service's stats identity survives the race:
  // submitted == admitted + deduped + shed + breaker_rejected and
  // admitted == completed + failed + cancelled + deadline_exceeded.
  const ServiceStats service_stats = servers[0]->service_stats();
  ExpectServiceInvariants(service_stats);
  EXPECT_EQ(service_stats.expansions_run, 1u);
  // The crowd money was spent exactly once despite two deliveries.
  EXPECT_DOUBLE_EQ(service_stats.crowd_dollars_spent,
                   result.result.crowd_dollars);
  const ShardServerStats server_stats = servers[0]->stats();
  EXPECT_EQ(server_stats.expands, 2u);
  EXPECT_EQ(service_stats.submitted + server_stats.expand_cache_hits, 2u);
}

// --- durable idempotency across restart -------------------------------------

TEST_F(ShardedServiceTest, ExpandCacheSurvivesShardRestart) {
  const std::string journal_path =
      ::testing::TempDir() + "/ccdb_shard0_expand.journal";
  std::remove(journal_path.c_str());

  net::LocalTransport transport;
  ShardServerOptions server_options;
  server_options.journal_path = journal_path;
  ShardedExpansionOptions options = RouterOptions(1);
  options.hedging = false;
  ShardedExpansionService router(transport, options);

  SchemaExpansionResult first;
  {
    auto servers = StartServers(transport, 1, server_options);
    const ShardedExpandResult result = router.Expand(GoodJob("is_comedy"));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_TRUE(result.result.status.ok());
    first = result.result;
    EXPECT_EQ(servers[0]->stats().expand_cache_hits, 0u);
    EXPECT_EQ(servers[0]->stats().journal_replayed, 0u);
    EXPECT_EQ(servers[0]->stats().journal_append_failures, 0u);
    servers[0]->Stop();  // "crash": destroys the in-memory service state
  }

  // Restart: the journal rebuilds the result cache, so the re-delivered
  // job is answered without a second crowd spend.
  auto servers = StartServers(transport, 1, server_options);
  EXPECT_EQ(servers[0]->stats().journal_replayed, 1u);
  const ShardedExpandResult replayed = router.Expand(GoodJob("is_comedy"));
  ASSERT_TRUE(replayed.status.ok()) << replayed.status.ToString();
  EXPECT_EQ(replayed.result.values, first.values);
  EXPECT_DOUBLE_EQ(replayed.result.crowd_dollars, first.crowd_dollars);
  EXPECT_EQ(servers[0]->stats().expand_cache_hits, 1u);
  // The restarted service never saw the job: zero new submissions.
  EXPECT_EQ(servers[0]->service_stats().submitted, 0u);
  EXPECT_DOUBLE_EQ(servers[0]->service_stats().crowd_dollars_spent, 0.0);
  std::remove(journal_path.c_str());
}

// --- health gating ----------------------------------------------------------

TEST_F(ShardedServiceTest, HealthBreakerEjectsUnreachableShardThenRecovers) {
  net::LocalTransport transport;  // node 1 not registered: every call fails
  ShardedExpansionOptions options = RouterOptions(1);
  options.hedging = false;
  options.max_attempts = 1;
  options.retry_backoff_initial_ms = 0.1;
  options.health.failure_threshold = 2;
  options.health.cooldown_seconds = 0.05;
  ShardedExpansionService router(transport, options);

  // Two failed logical calls trip the shard's breaker...
  EXPECT_FALSE(router.Knn(5, 4).status.ok());
  EXPECT_FALSE(router.Knn(5, 4).status.ok());
  EXPECT_EQ(router.shard_health(0), BreakerState::kOpen);
  // ...after which calls are skipped without touching the transport.
  EXPECT_FALSE(router.Knn(5, 4).status.ok());
  EXPECT_GE(router.stats().breaker_skipped, 1u);

  // The shard comes back; after the cooldown one probe call rides through
  // and its success closes the breaker.
  ASSERT_TRUE(transport
                  .Register(1,
                            [](const net::Message&) -> StatusOr<std::string> {
                              return EncodeKnnResponse(KnnResponse{});
                            })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const ShardedKnnResult recovered = router.Knn(5, 4);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(router.shard_health(0), BreakerState::kClosed);
  const ShardedServiceStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.transport_errors, 2u);
  ExpectRouterInvariants(stats);
}

}  // namespace
}  // namespace ccdb::core
