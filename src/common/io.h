#ifndef CCDB_COMMON_IO_H_
#define CCDB_COMMON_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"

namespace ccdb {

/// Sequential append handle produced by Fs::OpenForWrite. Bytes passed to
/// Append are *not* durable until Sync succeeds: a crash (or an injected
/// fault) may tear off any unsynced suffix. Close without a prior Sync
/// models exactly that — it releases the descriptor but promises nothing
/// about the unsynced tail.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  [[nodiscard]] virtual Status Append(std::string_view data) = 0;
  /// Flushes user-space buffers down to the OS (no fsync).
  [[nodiscard]] virtual Status Flush() = 0;
  /// Flush + fsync: everything appended so far survives a host crash.
  [[nodiscard]] virtual Status Sync() = 0;
  /// Closes without syncing (mirrors a crash for the unsynced tail).
  [[nodiscard]] virtual Status Close() = 0;
};

/// How OpenForWrite positions an existing file.
enum class WriteMode {
  kTruncate,  ///< start empty
  kAppend,    ///< position after the existing bytes
};

/// Minimal VFS seam between the durable subsystems (journals, checkpoint
/// manifests, trainer snapshots, CSV/table/model files) and the operating
/// system. Every byte of durable state flows through an Fs so storage
/// faults can be injected deterministically (FaultFs) and the recovery
/// ladder is a tested property instead of an assumption. Implementations
/// must be safe to share across threads.
class Fs {
 public:
  virtual ~Fs() = default;

  [[nodiscard]] virtual StatusOr<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, WriteMode mode) = 0;

  /// Whole-file read; NotFound when the file does not exist.
  [[nodiscard]] virtual StatusOr<std::string> ReadFile(
      const std::string& path) = 0;

  [[nodiscard]] virtual Status Rename(const std::string& from,
                                      const std::string& to) = 0;

  [[nodiscard]] virtual Status Remove(const std::string& path) = 0;

  [[nodiscard]] virtual Status Truncate(const std::string& path,
                                        std::uint64_t size) = 0;

  [[nodiscard]] virtual StatusOr<bool> Exists(const std::string& path) = 0;

  /// fsyncs the directory holding `path`, making a preceding create /
  /// rename of `path` itself durable (the publish-durability gap: data
  /// fsync'd into a file is lost anyway if the directory entry vanishes).
  [[nodiscard]] virtual Status SyncDirContaining(const std::string& path) = 0;

  // ---- helpers composed from the primitives (shared by every backend) ----

  /// Truncate-writes `bytes` to `path` and closes, without fsync. For
  /// non-critical outputs (bench CSVs) and in-memory-buffered formats.
  [[nodiscard]] Status WriteFile(const std::string& path,
                                 std::string_view bytes);

  /// Atomically replaces `path` with `bytes`: write `path + ".tmp"`,
  /// fsync it, rename over the target, fsync the parent directory.
  /// Readers observe the old or the new complete file, never a torn one.
  /// On any failure the `.tmp` is removed and the original error returned.
  [[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                       std::string_view bytes);

  /// Process-wide default backend (the real POSIX filesystem).
  static Fs& Posix();
};

/// Resolves the optional injected-Fs convention: every durable API takes a
/// `Fs* fs = nullptr` knob, where nullptr means the real filesystem.
inline Fs& ResolveFs(Fs* fs) { return fs != nullptr ? *fs : Fs::Posix(); }

/// Knobs of the fault-injecting decorator. All probabilities are per
/// operation and independent; everything is driven by one seeded Rng, so a
/// (seed, knobs) pair replays the exact same fault schedule.
struct FaultFsOptions {
  std::uint64_t seed = 0;

  /// OpenForWrite fails (Unavailable).
  double open_error_prob = 0.0;
  /// ReadFile fails outright (Unavailable).
  double read_error_prob = 0.0;
  /// ReadFile succeeds but one random bit of the returned bytes is
  /// flipped — bit rot the CRC layers must catch.
  double bit_flip_prob = 0.0;
  /// Append fails with no bytes written (ENOSPC-style ResourceExhausted).
  double write_error_prob = 0.0;
  /// Append writes a random strict prefix, then fails — the classic torn
  /// write a journal scan must truncate away.
  double short_write_prob = 0.0;
  /// Sync fails (Unavailable); appended bytes stay in limbo.
  double sync_error_prob = 0.0;
  /// Close without a preceding successful Sync tears off a random suffix
  /// of the unsynced bytes — the crash-shaped tail loss Sync exists to
  /// prevent.
  double torn_tail_prob = 0.0;
  /// Rename fails (Unavailable) — the atomic-publish step itself.
  double rename_error_prob = 0.0;
  /// Truncate fails (Unavailable).
  double truncate_error_prob = 0.0;
  /// Directory fsync fails (Unavailable).
  double sync_dir_error_prob = 0.0;

  /// Disk-full mode: once this many bytes have been appended through the
  /// decorator, every further Append fails with ResourceExhausted
  /// (0 = unlimited).
  std::uint64_t max_total_write_bytes = 0;

  /// Deterministic single-fault mode for property tests: inject exactly
  /// one fault on the N-th fallible operation (1-based; 0 = disabled),
  /// with the fault kind chosen by the operation type (open -> open
  /// error, append -> short write, read -> bit flip, sync -> sync error,
  /// rename -> rename error, truncate -> truncate error). Probabilistic
  /// knobs still apply independently.
  std::uint64_t fault_at_op = 0;
};

/// One line of a FaultFs op trace: "<op> <path> [FAULT <kind>]". The trace
/// is the replay log chaos tooling prints for a failing seed.
struct IoTraceEntry {
  std::string op;
  std::string path;
  bool fault = false;
  std::string fault_kind;

  std::string ToString() const;
};

/// Fault-injecting Fs decorator. Wraps a base filesystem (default: the
/// real one) and deterministically injects short writes, ENOSPC,
/// open/rename/fsync failures, torn tails, and read-side bit flips per
/// FaultFsOptions. Thread-safe; every operation (faulted or not) lands in
/// the op trace.
class FaultFs final : public Fs {
 public:
  explicit FaultFs(FaultFsOptions options, Fs* base = nullptr);

  [[nodiscard]] StatusOr<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path, WriteMode mode) override;
  [[nodiscard]] StatusOr<std::string> ReadFile(
      const std::string& path) override;
  [[nodiscard]] Status Rename(const std::string& from,
                              const std::string& to) override;
  [[nodiscard]] Status Remove(const std::string& path) override;
  [[nodiscard]] Status Truncate(const std::string& path,
                                std::uint64_t size) override;
  [[nodiscard]] StatusOr<bool> Exists(const std::string& path) override;
  [[nodiscard]] Status SyncDirContaining(const std::string& path) override;

  /// Operations observed so far (faulted or clean), in order.
  std::vector<IoTraceEntry> Trace() const;
  /// Total faults injected so far.
  std::uint64_t faults_injected() const;
  /// Total fallible operations observed so far.
  std::uint64_t ops_observed() const;
  /// Clears the trace (counters keep running).
  void ClearTrace();

  const FaultFsOptions& options() const { return options_; }

 private:
  class FaultWritableFile;

  /// Decides whether the current (1-based `op_index`) op of `kind` faults:
  /// either the probabilistic knob fires or fault_at_op matches. Appends
  /// the trace entry either way. Returns true when a fault must be
  /// injected. `prob` is the probabilistic knob for this op kind.
  bool ShouldFault(const std::string& op, const std::string& path,
                   double prob, const char* kind);
  /// Appends a trace entry without consulting the fault schedule (for
  /// infallible ops and the write-budget ENOSPC, which is not random).
  void RecordOp(const std::string& op, const std::string& path, bool fault,
                const char* kind);
  /// True when appending `bytes` more would exceed max_total_write_bytes;
  /// otherwise charges them against the budget.
  bool OverWriteBudget(std::uint64_t bytes);
  /// Uniform integer in [0, n) from the shared rng (n > 0), under lock.
  std::uint64_t RandomBelow(std::uint64_t n);

  const FaultFsOptions options_;
  Fs& base_;

  // Ranked kFaultFs: held while durable paths plan their faults; nothing
  // is acquired under it.
  mutable Mutex mutex_{lock_rank::kFaultFs};
  Rng rng_ GUARDED_BY(mutex_);
  std::uint64_t op_count_ GUARDED_BY(mutex_) = 0;
  std::uint64_t fault_count_ GUARDED_BY(mutex_) = 0;
  std::uint64_t bytes_written_ GUARDED_BY(mutex_) = 0;
  std::vector<IoTraceEntry> trace_ GUARDED_BY(mutex_);
};

}  // namespace ccdb

#endif  // CCDB_COMMON_IO_H_
