#include "common/journal.h"

#include <array>
#include <cstring>
#include <utility>

#include "common/io.h"

namespace ccdb {
namespace {

/// Identifies a ccdb journal file (and its format version).
constexpr char kMagic[8] = {'C', 'C', 'D', 'B', 'J', 'N', 'L', '1'};
constexpr std::size_t kRecordHeaderBytes = 8;  // u32 length + u32 crc
/// Upper bound on one record; a length field beyond it is treated as
/// corruption (or a torn tail when it is the final record).
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Appends the little-endian bytes of `v` in one call.
template <typename T>
void PutLe(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t k = 0; k < sizeof(T); ++k) {
    bytes[k] = static_cast<char>(v >> (8 * k));
  }
  out.append(bytes, sizeof(T));
}

std::uint32_t GetLe32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t HashBytes(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// ----------------------------------------------------------- ByteWriter

void ByteWriter::PutU8(std::uint8_t v) {
  bytes_.push_back(static_cast<char>(v));
}

void ByteWriter::PutU32(std::uint32_t v) { PutLe(bytes_, v); }

void ByteWriter::PutU64(std::uint64_t v) { PutLe(bytes_, v); }

void ByteWriter::PutF64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutLe(bytes_, bits);
}

void ByteWriter::PutBytes(std::string_view bytes) {
  PutU64(bytes.size());
  bytes_.append(bytes.data(), bytes.size());
}

// ----------------------------------------------------------- ByteReader

const void* ByteReader::Take(std::size_t n) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const void* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::GetU8() {
  const void* p = Take(1);
  return p == nullptr ? 0 : *static_cast<const unsigned char*>(p);
}

std::uint32_t ByteReader::GetU32() {
  const void* p = Take(4);
  return p == nullptr ? 0 : GetLe32(static_cast<const char*>(p));
}

std::uint64_t ByteReader::GetU64() {
  const void* p = Take(8);
  if (p == nullptr) return 0;
  const char* c = static_cast<const char*>(p);
  return static_cast<std::uint64_t>(GetLe32(c)) |
         static_cast<std::uint64_t>(GetLe32(c + 4)) << 32;
}

double ByteReader::GetF64() {
  const std::uint64_t bits = GetU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view ByteReader::GetBytes() {
  const std::uint64_t n = GetU64();
  const void* p = Take(static_cast<std::size_t>(n));
  if (p == nullptr) return {};
  return {static_cast<const char*>(p), static_cast<std::size_t>(n)};
}

// ---------------------------------------------------------- journal scan

namespace {

/// Scans raw journal bytes (past the magic) into records. `torn` receives
/// true when the scan stopped on an incomplete / checksum-failing tail
/// rather than clean EOF; a checksum failure that is *not* at the tail is
/// corruption and yields an error.
StatusOr<JournalContents> ScanRecords(const std::string& bytes,
                                      const std::string& path) {
  JournalContents contents;
  if (bytes.size() < sizeof(kMagic)) {
    if (std::memcmp(bytes.data(), kMagic, bytes.size()) == 0) {
      // Torn creation: the process died (or the disk filled) before the
      // magic header reached the disk. No record — not even the header —
      // was ever acknowledged, so the file is an empty journal with a
      // torn tail, not a foreign file.
      contents.valid_bytes = 0;
      contents.torn_bytes = bytes.size();
      return contents;
    }
    return Status::InvalidArgument("not a ccdb journal: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a ccdb journal: " + path);
  }
  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kRecordHeaderBytes) break;  // torn header
    const std::uint32_t length = GetLe32(bytes.data() + pos);
    const std::uint32_t stored_crc = GetLe32(bytes.data() + pos + 4);
    if (length > kMaxRecordBytes ||
        remaining - kRecordHeaderBytes < length) {
      break;  // torn payload (or garbage length at the tail)
    }
    const std::string_view payload(bytes.data() + pos + kRecordHeaderBytes,
                                   length);
    if (Crc32(payload) != stored_crc) {
      if (pos + kRecordHeaderBytes + length == bytes.size()) {
        break;  // final record half-written: torn tail
      }
      return Status::InvalidArgument(
          "corrupt journal record (CRC mismatch) at offset " +
          std::to_string(pos) + " in " + path);
    }
    contents.records.emplace_back(payload);
    pos += kRecordHeaderBytes + length;
  }
  contents.valid_bytes = pos;
  contents.torn_bytes = bytes.size() - pos;
  return contents;
}

}  // namespace

StatusOr<JournalContents> ReadJournal(const std::string& path, Fs* fs) {
  StatusOr<std::string> bytes = ResolveFs(fs).ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ScanRecords(bytes.value(), path);
}

// --------------------------------------------------------- JournalWriter

namespace {

/// First rung of the recovery ladder: before a torn tail is truncated
/// away, its bytes are appended to `<path>.quarantine` so nothing is ever
/// silently destroyed — an operator can inspect what the crash cut off.
/// Best-effort: recovery must proceed even when the disk is sick enough
/// that the quarantine write itself fails.
void QuarantineTornTail(Fs& fs, const std::string& path,
                        std::string_view cut) {
  StatusOr<std::unique_ptr<WritableFile>> file =
      fs.OpenForWrite(path + ".quarantine", WriteMode::kAppend);
  if (!file.ok()) return;
  // ccdb-lint: allow(status-nodiscard) — quarantine is best-effort
  // forensics; a failure here must not block tail truncation.
  (void)file.value()->Append(cut);
  // ccdb-lint: allow(status-nodiscard) — same rationale as the append.
  (void)file.value()->Close();
}

}  // namespace

StatusOr<JournalWriter> JournalWriter::Open(const std::string& path,
                                            SyncPolicy sync,
                                            JournalContents* recovered,
                                            Fs* fs_opt) {
  Fs& fs = ResolveFs(fs_opt);
  JournalContents contents;
  StatusOr<std::string> existing = fs.ReadFile(path);
  // A scan with valid_bytes >= |magic| is a real journal to resume; a
  // torn creation (valid_bytes == 0: the magic itself never reached the
  // disk, so nothing was ever acknowledged) is recreated from scratch
  // below, exactly like a missing file.
  if (existing.ok()) {
    StatusOr<JournalContents> scanned = ScanRecords(existing.value(), path);
    if (!scanned.ok()) return scanned.status();
    contents = std::move(scanned).value();
  }
  if (existing.ok() && contents.valid_bytes >= sizeof(kMagic)) {
    if (contents.torn_bytes > 0) {
      QuarantineTornTail(
          fs, path,
          std::string_view(existing.value()).substr(contents.valid_bytes));
      if (Status status = fs.Truncate(path, contents.valid_bytes);
          !status.ok()) {
        return Status::Internal("cannot truncate torn tail of " + path +
                                ": " + status.message());
      }
    }
    StatusOr<std::unique_ptr<WritableFile>> file =
        fs.OpenForWrite(path, WriteMode::kAppend);
    if (!file.ok()) {
      return Status::Internal("cannot open journal for append: " + path +
                              ": " + file.status().message());
    }
    if (recovered != nullptr) *recovered = std::move(contents);
    return JournalWriter(path, sync, std::move(file).value());
  }
  if (!existing.ok() &&
      existing.status().code() != StatusCode::kNotFound) {
    return existing.status();
  }
  StatusOr<std::unique_ptr<WritableFile>> file =
      fs.OpenForWrite(path, WriteMode::kTruncate);
  if (!file.ok()) {
    return Status::Internal("cannot create journal: " + path + ": " +
                            file.status().message());
  }
  JournalWriter writer(path, sync, std::move(file).value());
  if (Status status =
          writer.file_->Append(std::string_view(kMagic, sizeof(kMagic)));
      !status.ok()) {
    return status;
  }
  // Make the creation itself durable regardless of sync policy: sync the
  // magic header, then the parent directory, so a crash right after Open
  // leaves a valid empty journal rather than no file (or a nameless
  // inode). One-time cost per journal.
  if (Status status = writer.file_->Sync(); !status.ok()) return status;
  if (Status status = fs.SyncDirContaining(path); !status.ok()) {
    return status;
  }
  if (recovered != nullptr) *recovered = JournalContents{};
  return writer;
}

Status JournalWriter::Append(std::string_view payload) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal already closed: " + path_);
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("journal record too large");
  }
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutLe(record, static_cast<std::uint32_t>(payload.size()));
  PutLe(record, Crc32(payload));
  record.append(payload.data(), payload.size());
  if (Status status = file_->Append(record); !status.ok()) return status;
  ++appended_records_;
  if (sync_ == SyncPolicy::kEveryRecord) {
    return file_->Sync();
  }
  return Status::Ok();
}

Status JournalWriter::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal already closed: " + path_);
  }
  if (sync_ == SyncPolicy::kNone) {
    return file_->Flush();
  }
  return file_->Sync();
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  Status status = Sync();
  if (Status closed = file_->Close(); status.ok()) status = closed;
  file_.reset();
  return status;
}

// ------------------------------------------------------------ run frame

namespace {

/// The first byte of every run-journal record. Journals of the earlier
/// layout, in which each journal kind framed its run itself, begin their
/// records with 1 to 5; no tag here matches, so they are refused whole.
enum class FrameTag : std::uint8_t {
  kBegin = 0x10,   // u64 fingerprint
  kRecord = 0x11,  // one of the run's own records
  kFinish = 0x12,  // u64 fingerprint
};

std::string FrameRecord(FrameTag tag, std::uint64_t fingerprint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(tag));
  w.PutU64(fingerprint);
  return w.Take();
}

}  // namespace

StatusOr<RunFrame> ReplayRunFrame(const std::vector<std::string>& records,
                                  std::uint64_t fingerprint) {
  RunFrame frame;
  for (const std::string& record : records) {
    ByteReader r(record);
    const auto tag = static_cast<FrameTag>(r.GetU8());
    if (tag == FrameTag::kRecord) {
      frame.records.emplace_back(std::string_view(record).substr(1));
      continue;
    }
    if (tag != FrameTag::kBegin && tag != FrameTag::kFinish) {
      return Status::InvalidArgument(
          "journal record of an unknown or older layout");
    }
    const std::uint64_t stored = r.GetU64();
    if (!r.AtEnd()) {
      return Status::InvalidArgument("malformed run frame record");
    }
    if (stored != fingerprint) {
      return Status::InvalidArgument(
          "journal belongs to another run (fingerprint mismatch); refusing "
          "to splice two runs");
    }
    (tag == FrameTag::kBegin ? frame.begun : frame.finished) = true;
  }
  return frame;
}

StatusOr<RunJournal> RunJournal::Open(const JournalOptions& options,
                                      std::uint64_t fingerprint) {
  if (options.path.empty()) {
    return Status::InvalidArgument("JournalOptions.path is empty");
  }
  JournalContents contents;
  StatusOr<JournalWriter> writer = JournalWriter::Open(
      options.path, options.sync, &contents, options.fs);
  if (!writer.ok()) return writer.status();
  StatusOr<RunFrame> replayed = ReplayRunFrame(contents.records, fingerprint);
  if (!replayed.ok()) {
    return Status::InvalidArgument(replayed.status().message() + ": " +
                                   options.path);
  }
  RunJournal journal(std::move(writer).value(), fingerprint,
                     std::move(replayed).value());
  if (!journal.replayed_.begun) {
    if (Status status = journal.writer_.Append(
            FrameRecord(FrameTag::kBegin, fingerprint));
        !status.ok()) {
      return status;
    }
    if (Status status = journal.writer_.Sync(); !status.ok()) return status;
  }
  return journal;
}

Status RunJournal::Append(std::string_view record) {
  std::string framed(1, static_cast<char>(FrameTag::kRecord));
  framed.append(record.data(), record.size());
  return writer_.Append(framed);
}

Status RunJournal::Finish() {
  if (replayed_.finished) return Status::Ok();
  if (Status status =
          writer_.Append(FrameRecord(FrameTag::kFinish, fingerprint_));
      !status.ok()) {
    return status;
  }
  return writer_.Sync();
}

// -------------------------------------------------------------- envelope

namespace {

constexpr std::size_t kEnvelopeHeaderBytes = 8 + 4;  // magic + u32 crc

}  // namespace

std::string SealEnvelope(const char (&magic)[8], std::string_view payload) {
  std::string file(magic, sizeof(magic));
  file.reserve(kEnvelopeHeaderBytes + payload.size());
  PutLe(file, Crc32(payload));
  file.append(payload.data(), payload.size());
  return file;
}

StatusOr<std::string_view> OpenEnvelope(const char (&magic)[8],
                                        std::string_view file,
                                        const std::string& path) {
  const std::string_view format(magic, sizeof(magic));
  if (file.size() < kEnvelopeHeaderBytes ||
      file.substr(0, sizeof(magic)) != format) {
    return Status::InvalidArgument("not a " + std::string(format) +
                                   " file: " + path);
  }
  const std::string_view payload = file.substr(kEnvelopeHeaderBytes);
  if (GetLe32(file.data() + sizeof(magic)) != Crc32(payload)) {
    return Status::InvalidArgument("corrupt " + std::string(format) +
                                   " file (CRC mismatch): " + path);
  }
  return payload;
}

}  // namespace ccdb
