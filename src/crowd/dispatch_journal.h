#ifndef CCDB_CROWD_DISPATCH_JOURNAL_H_
#define CCDB_CROWD_DISPATCH_JOURNAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/status.h"
#include "crowd/dispatcher.h"
#include "crowd/platform.h"

namespace ccdb::crowd {

/// Where a dispatch (or expansion) persists its write-ahead state.
struct DurabilityOptions {
  /// Path of the write-ahead judgment journal.
  std::string journal_path;
  /// When journal appends reach the disk (see ccdb::SyncPolicy). kBatch
  /// syncs once per posting — the sweet spot the durability ablation
  /// measures.
  SyncPolicy sync = SyncPolicy::kBatch;
  /// Filesystem backend (ResolveFs convention: nullptr = the real one).
  /// The chaos soak injects a FaultFs here.
  Fs* fs = nullptr;
};

/// One posting reconstructed from a journal: its judgments (in delivery
/// order, gap-free prefix only) and, when the posting-end record was
/// reached, the posting's aggregate counters.
struct ReplayedPosting {
  std::uint64_t fingerprint = 0;
  bool started = false;
  /// End record present and every judgment sequence number accounted for.
  bool complete = false;
  /// Number of judgments the end record promised (0 until complete).
  std::uint64_t expected_judgments = 0;
  CrowdRunResult run;
};

/// Dispatcher-side state rebuilt by replaying a dispatch journal: which
/// postings completed, which judgments were already delivered (and paid),
/// and whether the whole dispatch finished. Replay is idempotent — each
/// record carries its identity (round, sequence number), so duplicated,
/// reordered, or late-delivered copies of a record cannot change the
/// rebuilt state.
struct DispatchJournalState {
  bool begun = false;
  std::uint64_t fingerprint = 0;
  /// Dispatch-end record seen: the full result replays with zero fresh
  /// spend.
  bool complete = false;
  std::map<std::uint64_t, ReplayedPosting> postings;
  /// Duplicate records ignored during replay (idempotence at work).
  std::size_t duplicate_records = 0;

  /// Dollars already paid for journaled judgments (the money a resume
  /// must not spend again).
  double paid_dollars() const;
  /// Count of journaled judgments across all postings.
  std::size_t paid_judgments() const;
};

/// Rebuilds dispatcher state from journal record payloads (as returned by
/// ccdb::ReadJournal). Structurally invalid records yield InvalidArgument;
/// duplicated or reordered copies of valid records are absorbed.
[[nodiscard]] StatusOr<DispatchJournalState> ReplayDispatchJournal(
    const std::vector<std::string>& records);

/// The identity walks every fingerprint of crowd inputs is built from:
/// each appends every identity field of its struct to `w` (HitRunConfig
/// with its FaultModel; DispatcherConfig without its stop signal). They
/// are the one place those fields are listed, so a field added to a struct
/// is added here once and reaches every fingerprint.
void PutHitRunConfig(ByteWriter& w, const HitRunConfig& config);
void PutDispatcherConfig(ByteWriter& w, const DispatcherConfig& config);
/// Also the layout of a journaled judgment record.
void PutJudgment(ByteWriter& w, const Judgment& judgment);

/// Fingerprint of a dispatch's inputs (pool, labels, HIT + dispatcher
/// config). Stored in the journal's begin record so a resume against
/// different inputs is rejected instead of splicing two runs together.
std::uint64_t DispatchFingerprint(const WorkerPool& pool,
                                  const std::vector<bool>& true_labels,
                                  const HitRunConfig& hit_config,
                                  const DispatcherConfig& dispatcher_config);

/// Crash-recoverable dispatcher: wraps Dispatcher with a write-ahead
/// journal of every posting and delivered judgment. If the process dies
/// mid-dispatch, re-running the same dispatch against the same journal
/// replays everything already acquired (rebuilding dedup and spend state)
/// and only buys the remainder — DispatchStats' replayed_* fields account
/// for the recovered work, and the final DispatchResult is bit-identical
/// to an uninterrupted run.
class DurableDispatcher {
 public:
  DurableDispatcher(WorkerPool pool, DispatcherConfig config,
                    DurabilityOptions durability);

  /// Runs (or resumes) the dispatch. The journal at
  /// `durability.journal_path` is created on first run and replayed on
  /// subsequent ones; a journal written by a different dispatch is
  /// rejected with InvalidArgument.
  [[nodiscard]]
  StatusOr<DispatchResult> Run(const std::vector<bool>& true_labels,
                               const HitRunConfig& hit_config) const;

  const DispatcherConfig& config() const { return dispatcher_.config(); }
  const WorkerPool& pool() const { return dispatcher_.pool(); }

 private:
  Dispatcher dispatcher_;
  DurabilityOptions durability_;
};

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_DISPATCH_JOURNAL_H_
