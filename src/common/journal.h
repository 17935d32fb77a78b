#ifndef CCDB_COMMON_JOURNAL_H_
#define CCDB_COMMON_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/status.h"

namespace ccdb {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`. Used to checksum
/// journal record payloads and sealed single-file payloads (SealEnvelope)
/// so torn or bit-rotted bytes are detected on recovery.
std::uint32_t Crc32(std::string_view bytes);

/// FNV-1a 64-bit hash. Journals fingerprint their run's inputs with it so
/// a resume against different inputs is rejected instead of silently
/// producing a franken-run.
std::uint64_t HashBytes(std::string_view bytes);

/// When the journal flushes its buffers down to the disk.
enum class SyncPolicy {
  /// Never fsync (OS page cache only). Fastest; a *host* crash can lose
  /// the tail, a process crash cannot (the write() already happened).
  kNone,
  /// fsync at batch boundaries (every Sync() call — the dispatcher syncs
  /// once per posting, the expansion loop once per checkpoint).
  kBatch,
  /// fsync after every appended record. Maximum durability, maximum cost.
  kEveryRecord,
};

/// Little-endian byte-string builder for journal record payloads and
/// snapshot files. Doubles are stored as IEEE-754 bit patterns so a
/// round trip is bit-exact. Each field is one append.
class ByteWriter {
 public:
  /// Reserves room for `bytes` in all, so a payload of known size is
  /// written without regrowing.
  void Reserve(std::size_t bytes) { bytes_.reserve(bytes); }
  void PutU8(std::uint8_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutF64(double v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void PutBytes(std::string_view bytes);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Cursor over a ByteWriter-produced payload. Reads past the end flip
/// ok() to false and return zeros; callers check ok() once at the end
/// instead of after every field. A decoder checks every count it reads
/// against remaining() before it allocates anything for that count.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t GetU8();
  std::uint32_t GetU32();
  std::uint64_t GetU64();
  double GetF64();
  bool GetBool() { return GetU8() != 0; }
  std::string_view GetBytes();

  bool ok() const { return ok_; }
  /// True when every byte was consumed (and no read overran).
  bool AtEnd() const { return ok_ && pos_ == bytes_.size(); }
  /// Bytes not read yet (0 once a read overran).
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

 private:
  const void* Take(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Result of scanning a journal file on open/read.
struct JournalContents {
  /// Payloads of every intact record, in append order.
  std::vector<std::string> records;
  /// File offset one past the last intact record (= the truncation point).
  std::uint64_t valid_bytes = 0;
  /// Bytes of torn tail dropped past valid_bytes (0 for a clean file).
  std::uint64_t torn_bytes = 0;
};

/// Reads a journal file. A short or checksum-failing *final* record is a
/// torn tail (the crash interrupted the append): it is dropped and
/// reported in `torn_bytes`. A checksum failure on any *earlier* record
/// is real corruption and comes back as an InvalidArgument Status. A
/// missing file yields NotFound. `fs` follows the ResolveFs convention
/// (nullptr = the real filesystem).
[[nodiscard]] StatusOr<JournalContents> ReadJournal(const std::string& path,
                                                    Fs* fs = nullptr);

/// Append-only record log:  8-byte magic header, then per record
/// [u32 payload_len][u32 crc32(payload)][payload]. Opening an existing
/// journal scans it, truncates a torn tail in place (quarantining the cut
/// bytes to `<path>.quarantine` for forensics), and positions the writer
/// at the end; records already present are returned so the caller can
/// rebuild its state before appending.
class JournalWriter {
 public:
  JournalWriter(JournalWriter&&) = default;
  JournalWriter& operator=(JournalWriter&&) = default;

  /// Opens (creating if absent) the journal at `path`. On success
  /// `recovered` (if non-null) receives the intact records found. A newly
  /// created journal is synced (file + parent directory) before Open
  /// returns, so an empty-but-created journal survives a crash. `fs`
  /// follows the ResolveFs convention.
  [[nodiscard]] static StatusOr<JournalWriter> Open(const std::string& path,
                                      SyncPolicy sync,
                                      JournalContents* recovered = nullptr,
                                      Fs* fs = nullptr);

  /// Appends one record; under kEveryRecord also fsyncs it down.
  [[nodiscard]] Status Append(std::string_view payload);

  /// Flushes user-space buffers and (unless kNone) fsyncs. The dispatcher
  /// calls this at posting boundaries, the expansion loop per checkpoint.
  [[nodiscard]] Status Sync();

  /// Flushes, syncs and closes. The destructor closes without syncing
  /// (mirrors a crash, which is exactly what the tests simulate).
  [[nodiscard]] Status Close();

  std::uint64_t appended_records() const { return appended_records_; }
  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::string path, SyncPolicy sync,
                std::unique_ptr<WritableFile> file)
      : path_(std::move(path)), sync_(sync), file_(std::move(file)) {}

  std::string path_;
  SyncPolicy sync_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t appended_records_ = 0;
};

/// Where a durable run journals its progress: the dispatcher's judgments
/// (crowd::Dispatcher::Run) or the incremental expansion's checkpoints
/// (core::RunIncrementalExpansion).
struct JournalOptions {
  /// Path of the journal file.
  std::string path;
  /// When appends reach the disk. kBatch syncs once per posting or
  /// checkpoint, the setting the durability ablation measures.
  SyncPolicy sync = SyncPolicy::kBatch;
  /// Filesystem backend (ResolveFs convention: nullptr = the real one).
  /// The chaos soak injects a FaultFs here.
  Fs* fs = nullptr;
};

/// The run frame of a journal, rebuilt by ReplayRunFrame. A run journal
/// holds one run: a begin record with the fingerprint of the run's
/// inputs, the run's own records, and a finish record with the same
/// fingerprint once the run completed.
struct RunFrame {
  bool begun = false;
  /// The finish record was journaled: the run's own records are its full
  /// result.
  bool finished = false;
  /// The run's own records, in append order. Copies are kept: each record
  /// carries its identity, so the run's replay collapses them.
  std::vector<std::string> records;
};

/// Splits a run journal's records (as ReadJournal returns them) into the
/// frame and the run's own records. The frame may arrive in any order and
/// any number of times. A begin or finish record whose fingerprint is not
/// `fingerprint`, wherever it lies, is InvalidArgument (the journal holds
/// another run), and so is a record the frame does not know (a journal of
/// an older record layout).
[[nodiscard]] StatusOr<RunFrame> ReplayRunFrame(
    const std::vector<std::string>& records, std::uint64_t fingerprint);

/// The journal of one durable run. Open replays what an earlier attempt
/// journaled and, for a new run, makes the begin record durable before it
/// returns; the run then appends its own records and Finish seals them.
class RunJournal {
 public:
  /// Opens, or creates, the journal at `options.path` for the run whose
  /// inputs hash to `fingerprint` (JournalWriter::Open, then
  /// ReplayRunFrame). InvalidArgument for an empty path or a journal of
  /// another run or layout.
  [[nodiscard]] static StatusOr<RunJournal> Open(const JournalOptions& options,
                                                 std::uint64_t fingerprint);

  /// What earlier attempts journaled (empty for a new run).
  const RunFrame& replayed() const { return replayed_; }

  /// Appends one of the run's own records.
  [[nodiscard]] Status Append(std::string_view record);
  [[nodiscard]] Status Sync() { return writer_.Sync(); }
  /// Appends and syncs the finish record, unless an earlier attempt did.
  [[nodiscard]] Status Finish();
  [[nodiscard]] Status Close() { return writer_.Close(); }

 private:
  RunJournal(JournalWriter writer, std::uint64_t fingerprint,
             RunFrame replayed)
      : writer_(std::move(writer)),
        fingerprint_(fingerprint),
        replayed_(std::move(replayed)) {}

  JournalWriter writer_;
  std::uint64_t fingerprint_;
  RunFrame replayed_;
};

/// Single-file state (a trainer snapshot, a saved perceptual space) is one
/// envelope: the format's 8-byte magic, the little-endian CRC-32 of the
/// payload, then the payload. The magic names the format and its version,
/// so a file of another format or an older version is refused up front;
/// the CRC catches a truncated or bit-rotted payload. Callers publish the
/// sealed bytes with Fs::WriteFileAtomic.
std::string SealEnvelope(const char (&magic)[8], std::string_view payload);

/// The payload of a SealEnvelope file (a view into `file`), or
/// InvalidArgument naming `path` when `file` is shorter than the envelope,
/// carries another magic or fails its CRC.
[[nodiscard]] StatusOr<std::string_view> OpenEnvelope(
    const char (&magic)[8], std::string_view file, const std::string& path);

}  // namespace ccdb

#endif  // CCDB_COMMON_JOURNAL_H_
