#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/journal.h"

namespace ccdb {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string RawFileBytes(const std::string& path) {
  StatusOr<std::string> bytes = Fs::Posix().ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// ----------------------------------------------------------- byte codec

TEST(ByteCodecTest, RoundTripIsBitExact) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF64(-0.1);  // not exactly representable: bit pattern must survive
  w.PutF64(1.0 / 3.0);
  w.PutBool(true);
  w.PutBool(false);
  w.PutBytes("hello\0world");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  double d = r.GetF64();
  EXPECT_EQ(d, -0.1);
  d = r.GetF64();
  EXPECT_EQ(d, 1.0 / 3.0);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_EQ(r.GetBytes(), "hello");  // string literal stops at the NUL
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodecTest, OverrunFlipsOkAndReturnsZeros) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU64(), 0u);  // 8 bytes requested, 4 available
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
  EXPECT_EQ(r.GetU32(), 0u);  // stays dead after the first overrun
}

TEST(ByteCodecTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(ByteCodecTest, HashBytesSeparatesInputs) {
  EXPECT_NE(HashBytes("a"), HashBytes("b"));
  EXPECT_NE(HashBytes(""), HashBytes(std::string(1, '\0')));
  EXPECT_EQ(HashBytes("same"), HashBytes("same"));
}

// ------------------------------------------------------------- journal

TEST(JournalTest, AppendReadRoundTrip) {
  const std::string path = TempPath("journal_roundtrip.jnl");
  {
    auto opened = JournalWriter::Open(path, SyncPolicy::kBatch);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    JournalWriter writer = std::move(opened).value();
    ASSERT_TRUE(writer.Append("first").ok());
    ASSERT_TRUE(writer.Append(std::string("\0\x01\x02", 3)).ok());
    ASSERT_TRUE(writer.Append("").ok());
    EXPECT_EQ(writer.appended_records(), 3u);
    ASSERT_TRUE(writer.Close().ok());
  }
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents.value().records.size(), 3u);
  EXPECT_EQ(contents.value().records[0], "first");
  EXPECT_EQ(contents.value().records[1], std::string("\0\x01\x02", 3));
  EXPECT_EQ(contents.value().records[2], "");
  EXPECT_EQ(contents.value().torn_bytes, 0u);
}

TEST(JournalTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadJournal(TempPath("never_written.jnl")).status().code(),
            StatusCode::kNotFound);
}

TEST(JournalTest, RejectsForeignMagic) {
  const std::string path = TempPath("foreign.jnl");
  OverwriteFile(path, "definitely not a ccdb journal header");
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kInvalidArgument);
}

TEST(JournalTest, TornTailIsDroppedAndReported) {
  const std::string path = TempPath("torn.jnl");
  {
    auto opened = JournalWriter::Open(path, SyncPolicy::kNone);
    ASSERT_TRUE(opened.ok());
    JournalWriter writer = std::move(opened).value();
    ASSERT_TRUE(writer.Append("intact-one").ok());
    ASSERT_TRUE(writer.Append("intact-two").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Simulate a crash mid-append: half a record's worth of garbage after
  // the intact prefix.
  std::string bytes = RawFileBytes(path);
  const std::string truncated_append = std::string("\x40\x00\x00\x00zz", 6);
  OverwriteFile(path, bytes + truncated_append);

  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents.value().records.size(), 2u);
  EXPECT_EQ(contents.value().records[1], "intact-two");
  EXPECT_EQ(contents.value().torn_bytes, truncated_append.size());

  // Reopening truncates the torn tail in place and appends after it.
  {
    JournalContents recovered;
    auto opened = JournalWriter::Open(path, SyncPolicy::kBatch, &recovered);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(recovered.records.size(), 2u);
    JournalWriter writer = std::move(opened).value();
    ASSERT_TRUE(writer.Append("post-recovery").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto reread = ReadJournal(path);
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread.value().records.size(), 3u);
  EXPECT_EQ(reread.value().records[2], "post-recovery");
  EXPECT_EQ(reread.value().torn_bytes, 0u);
}

TEST(JournalTest, MidFileCorruptionIsInvalidArgumentNotTruncation) {
  const std::string path = TempPath("corrupt.jnl");
  {
    auto opened = JournalWriter::Open(path, SyncPolicy::kNone);
    ASSERT_TRUE(opened.ok());
    JournalWriter writer = std::move(opened).value();
    ASSERT_TRUE(writer.Append("record-zero").ok());
    ASSERT_TRUE(writer.Append("record-one").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string bytes = RawFileBytes(path);
  // Flip one payload byte of the FIRST record (just past magic + len + crc).
  bytes[8 + 4 + 4] ^= 0x01;
  OverwriteFile(path, bytes);
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kInvalidArgument);
  // Open must refuse too — silently truncating both records would lose
  // acknowledged data.
  EXPECT_FALSE(JournalWriter::Open(path, SyncPolicy::kBatch).ok());
}

TEST(JournalTest, TornFinalRecordCrcIsTruncatedOnRead) {
  const std::string path = TempPath("torn_crc.jnl");
  {
    auto opened = JournalWriter::Open(path, SyncPolicy::kNone);
    ASSERT_TRUE(opened.ok());
    JournalWriter writer = std::move(opened).value();
    ASSERT_TRUE(writer.Append("keep-me").ok());
    ASSERT_TRUE(writer.Append("tear-me").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::string bytes = RawFileBytes(path);
  bytes.back() ^= 0x01;  // corrupt the LAST record's payload -> torn tail
  OverwriteFile(path, bytes);
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents.value().records.size(), 1u);
  EXPECT_EQ(contents.value().records[0], "keep-me");
  EXPECT_GT(contents.value().torn_bytes, 0u);
}

TEST(JournalTest, EveryRecordSyncPolicyStillRoundTrips) {
  const std::string path = TempPath("fsync_each.jnl");
  auto opened = JournalWriter::Open(path, SyncPolicy::kEveryRecord);
  ASSERT_TRUE(opened.ok());
  JournalWriter writer = std::move(opened).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer.Append("r" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().records.size(), 5u);
}

// ------------------------------------------------------------ envelope

constexpr char kTestMagic[8] = {'C', 'C', 'D', 'B', 'T', 'E', 'S', 'T'};

TEST(EnvelopeTest, SealIsMagicThenLittleEndianCrcThenPayload) {
  const std::string payload("payload\0bytes", 13);
  const std::string sealed = SealEnvelope(kTestMagic, payload);
  const std::uint32_t crc = Crc32(payload);
  std::string expected = "CCDBTEST";
  for (int shift = 0; shift < 32; shift += 8) {
    expected.push_back(static_cast<char>((crc >> shift) & 0xFF));
  }
  expected += payload;
  EXPECT_EQ(sealed, expected);
  const StatusOr<std::string_view> opened =
      OpenEnvelope(kTestMagic, sealed, "sealed");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value(), payload);
  // An empty payload is a valid envelope too.
  const StatusOr<std::string_view> empty =
      OpenEnvelope(kTestMagic, SealEnvelope(kTestMagic, ""), "empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(EnvelopeTest, OpenRefusesShortForeignAndCorruptFiles) {
  const std::string sealed = SealEnvelope(kTestMagic, "some payload");
  const auto refused = [](std::string_view file) {
    return OpenEnvelope(kTestMagic, file, "f").status().code() ==
           StatusCode::kInvalidArgument;
  };
  for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
    EXPECT_TRUE(refused(sealed.substr(0, cut))) << "prefix of " << cut;
  }
  for (std::size_t bit = 0; bit < 8 * sealed.size(); ++bit) {
    std::string flipped = sealed;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(refused(flipped)) << "bit " << bit;
  }
  constexpr char kOtherMagic[8] = {'C', 'C', 'D', 'B', 'T', 'E', 'S', 'U'};
  EXPECT_TRUE(refused(SealEnvelope(kOtherMagic, "some payload")));
  EXPECT_TRUE(refused(sealed + "x"));
}

}  // namespace
}  // namespace ccdb
