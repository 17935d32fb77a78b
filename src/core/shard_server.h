#ifndef CCDB_CORE_SHARD_SERVER_H_
#define CCDB_CORE_SHARD_SERVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/deadline.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/consistent_ring.h"
#include "core/expansion_service.h"
#include "core/perceptual_space.h"
#include "net/transport.h"

namespace ccdb::core {

struct ShardServerOptions {
  /// Knobs of the embedded per-shard ExpansionService (workers, queue
  /// depth, breaker).
  ExpansionServiceOptions service;
  /// Must match the router's ring configuration or ownership disagrees.
  std::uint32_t vnodes_per_shard = 16;
  /// Write-ahead journal of finished expand results (the idempotency
  /// cache). Empty disables durability: the cache then lives only in
  /// memory and a restarted shard re-buys its expansions.
  std::string journal_path;
  /// Filesystem for the journal (ResolveFs convention; nullptr = real).
  Fs* fs = nullptr;
  SyncPolicy journal_sync = SyncPolicy::kEveryRecord;
};

/// Monotonic per-shard counters (all under the server mutex).
struct ShardServerStats {
  std::uint64_t requests = 0;
  std::uint64_t predicts = 0;
  std::uint64_t knns = 0;
  std::uint64_t expands = 0;
  /// Expand requests answered from the durable result cache — the
  /// re-deliveries (retries, hedges, duplicates, resends after a reset)
  /// that did NOT spend crowd dollars a second time.
  std::uint64_t expand_cache_hits = 0;
  /// Cache entries rebuilt from the journal on Start().
  std::uint64_t journal_replayed = 0;
  /// Results that finished but could not be journaled (storage fault); the
  /// in-memory cache still holds them, but a restart would re-buy.
  std::uint64_t journal_append_failures = 0;
  std::uint64_t invalid_requests = 0;
};

/// One expansion replica: the server side of the Transport seam. Owns a
/// per-shard ExpansionService (admission control, dedup, breaker) plus a
/// durable fingerprint -> encoded-result cache, and serves three methods:
///
///   "predict" — train an extractor on the request's gold sample and
///               return predictions for the requested items;
///   "knn"     — k nearest neighbours of an item among the items this
///               shard owns on the consistent ring;
///   "expand"  — run a full (crowd-spending) expansion job, exactly once
///               per job fingerprint: re-deliveries hit the result cache,
///               which is journaled so even a crash/restart cannot be
///               tricked into double spend by an at-least-once transport.
///
/// Stop()/destruction unregisters from the transport, which blocks until
/// in-flight deliveries drain — stale hedges never touch a dead server.
class ExpansionShardServer {
 public:
  /// The server borrows `space` and `transport` (both must outlive it).
  /// `shard_index` in [0, num_shards) is the ring identity; `node` the
  /// transport address the router dials.
  ExpansionShardServer(std::uint32_t node, std::uint32_t shard_index,
                       std::uint32_t num_shards, const PerceptualSpace& space,
                       crowd::WorkerPool pool, net::Transport& transport,
                       ShardServerOptions options = {});
  ~ExpansionShardServer();

  ExpansionShardServer(const ExpansionShardServer&) = delete;
  ExpansionShardServer& operator=(const ExpansionShardServer&) = delete;

  /// Opens/replays the result journal and registers on the transport.
  [[nodiscard]] Status Start();

  /// Unregisters (drains in-flight deliveries first). Idempotent; the
  /// journal and in-memory cache survive, so a later Start() resumes with
  /// every durable result — the crash/restart the chaos soak exercises.
  void Stop();

  ShardServerStats stats() const;
  /// Counters of the embedded ExpansionService (invariant checks).
  ServiceStats service_stats() const;
  std::uint32_t node() const { return node_; }
  std::uint32_t shard_index() const { return shard_index_; }

 private:
  [[nodiscard]] StatusOr<std::string> Handle(const net::Message& message);
  [[nodiscard]] StatusOr<std::string> HandlePredict(
      const net::Message& message);
  [[nodiscard]] StatusOr<std::string> HandleKnn(const net::Message& message);
  [[nodiscard]] StatusOr<std::string> HandleExpand(
      const net::Message& message);

  const std::uint32_t node_;
  const std::uint32_t shard_index_;
  const ConsistentRing ring_;
  const PerceptualSpace& space_;
  net::Transport& transport_;
  const ShardServerOptions options_;

  // Ranked kShardServer: held while the result journal appends through
  // the (higher-ranked) FaultFs lock, and while the embedded service is
  // not locked — service calls happen outside this mutex.
  mutable Mutex mu_{lock_rank::kShardServer};
  bool started_ GUARDED_BY(mu_) = false;
  ShardServerStats stats_ GUARDED_BY(mu_);
  /// Fingerprint -> encoded ExpandResponse of every finished expansion
  /// with a deterministic outcome. First writer wins.
  std::unordered_map<std::uint64_t, std::string> results_ GUARDED_BY(mu_);
  /// Fingerprint -> flight deadline of the delivery currently running that
  /// job. Re-deliveries of a claimed job wait on `claims_cv_` for its
  /// cached answer and run the job themselves only when the claimant's
  /// outcome was not cacheable.
  std::unordered_map<std::uint64_t, Deadline> claims_ GUARDED_BY(mu_);
  CondVar claims_cv_;
  std::optional<JournalWriter> journal_ GUARDED_BY(mu_);

  /// Declared last so in-flight handler state outlives nothing it uses.
  /// ccdb-lint: allow(unguarded-member) — ExpansionService is internally
  /// synchronized (its own mu_); handlers call it without holding mu_.
  ExpansionService service_;
};

}  // namespace ccdb::core

#endif  // CCDB_CORE_SHARD_SERVER_H_
