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

/// One posting reconstructed from a dispatch journal: its judgments (in
/// delivery order, gap-free prefix only) and, when the posting-end record
/// was reached, the posting's totals.
struct ReplayedPosting {
  std::uint64_t fingerprint = 0;
  bool started = false;
  /// End record present and every judgment sequence number accounted for.
  bool complete = false;
  CrowdRunResult run;
};

/// The postings a dispatch journal holds: which completed, and which
/// judgments were already delivered (and paid). Each record carries its
/// identity (round, sequence number), so duplicated, reordered or
/// late-delivered copies of a record cannot change the rebuilt state.
struct DispatchJournalState {
  std::map<std::uint64_t, ReplayedPosting> postings;

  /// Dollars already paid for journaled judgments (the money a resume
  /// must not spend again).
  double paid_dollars() const;
  /// Count of journaled judgments across all postings.
  std::size_t paid_judgments() const;
};

/// Rebuilds the postings from a dispatch journal's own records
/// (RunFrame::records; the run frame is common/journal.h's). A record
/// that does not decode, or a judgment whose answer byte is no Answer, is
/// InvalidArgument; duplicated or reordered copies of valid records are
/// absorbed.
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
/// config). The run frame stores it, so a resume against different inputs
/// is rejected instead of splicing two runs together.
std::uint64_t DispatchFingerprint(const WorkerPool& pool,
                                  const std::vector<bool>& true_labels,
                                  const HitRunConfig& hit_config,
                                  const DispatcherConfig& dispatcher_config);

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_DISPATCH_JOURNAL_H_
