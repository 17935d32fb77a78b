// Fault-injection layer tests: every FaultFs knob is exercised
// deterministically (probability 1 or the fault_at_op schedule), the
// journal's torn-creation / torn-tail recovery is pinned down against the
// real filesystem, and a single-fault property test sweeps one injected
// fault across every fallible operation of a durable SGD run — whatever
// the fault, the run either still produces the bit-identical model or a
// clean retry does.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/journal.h"
#include "common/rng.h"
#include "factorization/checkpoint.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb {
namespace {

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  // Clear the whole durable family: rotated generations, forensic side
  // files and temp files from a previous test-process run.
  std::remove(path.c_str());
  for (const char* suffix : {".1", ".2", ".3", ".corrupt", ".corrupt.1",
                             ".corrupt.2", ".1.corrupt", ".2.corrupt",
                             ".quarantine", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

std::string MustRead(const std::string& path, Fs* fs = nullptr) {
  auto bytes = ResolveFs(fs).ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

// ------------------------------------------------------------- PosixFs

TEST(PosixFsTest, WriteReadRoundtripIncludingBinaryBytes) {
  const std::string path = FreshPath("posix_roundtrip.bin");
  const std::string data = std::string("abc\0def\xff\x01", 9);
  ASSERT_TRUE(Fs::Posix().WriteFile(path, data).ok());
  EXPECT_EQ(MustRead(path), data);
}

TEST(PosixFsTest, ReadMissingFileIsNotFound) {
  auto bytes = Fs::Posix().ReadFile(FreshPath("posix_missing.bin"));
  EXPECT_EQ(bytes.status().code(), StatusCode::kNotFound);
}

TEST(PosixFsTest, AppendModePositionsAfterExistingBytes) {
  const std::string path = FreshPath("posix_append.bin");
  ASSERT_TRUE(Fs::Posix().WriteFile(path, "abc").ok());
  auto file = Fs::Posix().OpenForWrite(path, WriteMode::kAppend);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("def").ok());
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(MustRead(path), "abcdef");
}

TEST(PosixFsTest, WriteFileAtomicReplacesAndLeavesNoTmp) {
  const std::string path = FreshPath("posix_atomic.bin");
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, "old contents").ok());
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, "new contents").ok());
  EXPECT_EQ(MustRead(path), "new contents");
  auto tmp = Fs::Posix().Exists(path + ".tmp");
  ASSERT_TRUE(tmp.ok());
  EXPECT_FALSE(tmp.value());
}

TEST(PosixFsTest, RenameRemoveTruncateExists) {
  const std::string from = FreshPath("posix_from.bin");
  const std::string to = FreshPath("posix_to.bin");
  ASSERT_TRUE(Fs::Posix().WriteFile(from, "0123456789").ok());
  ASSERT_TRUE(Fs::Posix().Rename(from, to).ok());
  EXPECT_FALSE(Fs::Posix().Exists(from).value());
  ASSERT_TRUE(Fs::Posix().Truncate(to, 4).ok());
  EXPECT_EQ(MustRead(to), "0123");
  ASSERT_TRUE(Fs::Posix().Remove(to).ok());
  EXPECT_EQ(Fs::Posix().Remove(to).code(), StatusCode::kNotFound);
}

// ---------------------------------------------------- FaultFs per knob

TEST(FaultFsTest, OpenErrorKnob) {
  FaultFsOptions options;
  options.open_error_prob = 1.0;
  FaultFs fs(options);
  auto file =
      fs.OpenForWrite(FreshPath("fault_open.bin"), WriteMode::kTruncate);
  EXPECT_EQ(file.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fs.faults_injected(), 1u);
}

TEST(FaultFsTest, ReadErrorKnob) {
  const std::string path = FreshPath("fault_read.bin");
  ASSERT_TRUE(Fs::Posix().WriteFile(path, "payload").ok());
  FaultFsOptions options;
  options.read_error_prob = 1.0;
  FaultFs fs(options);
  EXPECT_EQ(fs.ReadFile(path).status().code(), StatusCode::kUnavailable);
}

TEST(FaultFsTest, BitFlipKnobFlipsExactlyOneBit) {
  const std::string path = FreshPath("fault_flip.bin");
  const std::string data = "the quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(Fs::Posix().WriteFile(path, data).ok());
  FaultFsOptions options;
  options.bit_flip_prob = 1.0;
  FaultFs fs(options);
  auto flipped = fs.ReadFile(path);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  ASSERT_EQ(flipped.value().size(), data.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(data[i]) ^
                    static_cast<unsigned char>(flipped.value()[i]);
    while (diff != 0) {
      flipped_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  // The flip is read-side only: the on-disk bytes are untouched.
  EXPECT_EQ(MustRead(path), data);
}

TEST(FaultFsTest, WriteErrorKnobFailsWithNoBytesWritten) {
  const std::string path = FreshPath("fault_write.bin");
  FaultFsOptions options;
  options.write_error_prob = 1.0;
  FaultFs fs(options);
  auto file = fs.OpenForWrite(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->Append("0123456789").code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(MustRead(path), "");
}

TEST(FaultFsTest, ShortWriteKnobWritesStrictPrefix) {
  const std::string path = FreshPath("fault_short.bin");
  const std::string data = "0123456789";
  FaultFsOptions options;
  options.short_write_prob = 1.0;
  FaultFs fs(options);
  auto file = fs.OpenForWrite(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value()->Append(data).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(file.value()->Close().ok());
  const std::string on_disk = MustRead(path);
  EXPECT_LT(on_disk.size(), data.size());  // strict prefix
  EXPECT_EQ(on_disk, data.substr(0, on_disk.size()));
}

TEST(FaultFsTest, SyncErrorKnob) {
  const std::string path = FreshPath("fault_sync.bin");
  FaultFsOptions options;
  options.sync_error_prob = 1.0;
  FaultFs fs(options);
  auto file = fs.OpenForWrite(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("data").ok());
  EXPECT_EQ(file.value()->Sync().code(), StatusCode::kUnavailable);
}

TEST(FaultFsTest, TornTailKnobTearsOnlyTheUnsyncedSuffix) {
  const std::string path = FreshPath("fault_torn.bin");
  FaultFsOptions options;
  options.torn_tail_prob = 1.0;
  FaultFs fs(options);
  auto file = fs.OpenForWrite(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("syncedpart").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Append("unsyncedtail").ok());
  // Close "succeeds" — a crash never reports an error either.
  ASSERT_TRUE(file.value()->Close().ok());
  const std::string on_disk = MustRead(path);
  ASSERT_GE(on_disk.size(), 10u);  // everything synced survives
  EXPECT_LT(on_disk.size(), 22u);  // at least one unsynced byte is gone
  EXPECT_EQ(on_disk.substr(0, 10), "syncedpart");
}

TEST(FaultFsTest, RenameErrorKnobLeavesSourceIntact) {
  const std::string from = FreshPath("fault_rename_from.bin");
  const std::string to = FreshPath("fault_rename_to.bin");
  ASSERT_TRUE(Fs::Posix().WriteFile(from, "payload").ok());
  FaultFsOptions options;
  options.rename_error_prob = 1.0;
  FaultFs fs(options);
  EXPECT_EQ(fs.Rename(from, to).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Fs::Posix().Exists(from).value());
  EXPECT_FALSE(Fs::Posix().Exists(to).value());
}

TEST(FaultFsTest, TruncateAndSyncDirErrorKnobs) {
  const std::string path = FreshPath("fault_trunc.bin");
  ASSERT_TRUE(Fs::Posix().WriteFile(path, "0123456789").ok());
  FaultFsOptions options;
  options.truncate_error_prob = 1.0;
  options.sync_dir_error_prob = 1.0;
  FaultFs fs(options);
  EXPECT_EQ(fs.Truncate(path, 4).code(), StatusCode::kUnavailable);
  EXPECT_EQ(MustRead(path), "0123456789");
  EXPECT_EQ(fs.SyncDirContaining(path).code(), StatusCode::kUnavailable);
}

TEST(FaultFsTest, WriteBudgetInjectsEnospcOnceExhausted) {
  const std::string path = FreshPath("fault_budget.bin");
  FaultFsOptions options;
  options.max_total_write_bytes = 10;
  FaultFs fs(options);
  auto file = fs.OpenForWrite(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("12345678").ok());   // 8 of 10
  EXPECT_EQ(file.value()->Append("12345678").code(),    // would be 16
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(file.value()->Append("90").ok());         // exactly 10
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Close().ok());
  EXPECT_EQ(MustRead(path), "1234567890");
  bool saw_budget_fault = false;
  for (const IoTraceEntry& entry : fs.Trace()) {
    if (entry.fault && entry.fault_kind == "enospc-budget") {
      saw_budget_fault = true;
      EXPECT_NE(entry.ToString().find("FAULT(enospc-budget)"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_budget_fault);
}

TEST(FaultFsTest, FaultAtOpInjectsExactlyOneFaultAtEveryPosition) {
  const std::string path = FreshPath("fault_at_op.bin");
  const auto run_sequence = [&](FaultFs& fs) {
    // A fixed op sequence touching open/append/sync/rename/read paths.
    // Individual steps may fail (that is the point); the sequence itself
    // must stay identical across runs so op indices line up.
    // ccdb-lint: allow(status-nodiscard) — fault-schedule probe; each
    // step is expected to fail when its op index is the injected one.
    (void)fs.WriteFileAtomic(path, "atomic payload");
    // ccdb-lint: allow(status-nodiscard) — same rationale.
    (void)fs.ReadFile(path);
  };

  FaultFs clean((FaultFsOptions()));
  run_sequence(clean);
  const std::uint64_t total_ops = clean.ops_observed();
  ASSERT_GT(total_ops, 3u);
  EXPECT_EQ(clean.faults_injected(), 0u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("fault at op " + std::to_string(k));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    FaultFsOptions options;
    options.fault_at_op = k;
    FaultFs fs(options);
    run_sequence(fs);
    EXPECT_EQ(fs.faults_injected(), 1u);
    const std::vector<IoTraceEntry> trace = fs.Trace();
    std::size_t faulted = 0;
    for (const IoTraceEntry& entry : trace) {
      if (entry.fault) ++faulted;
    }
    EXPECT_EQ(faulted, 1u);
  }
}

// --------------------------------------------- journal recovery ladder

TEST(JournalFaultTest, TornCreationFromEnospcIsRecoverable) {
  const std::string path = FreshPath("journal_enospc.jnl");
  // Budget smaller than the magic header: creation opens the file, then
  // the very first append dies — the on-disk result is an empty file.
  FaultFsOptions options;
  options.max_total_write_bytes = 4;
  FaultFs fs(options);
  auto failed =
      JournalWriter::Open(path, SyncPolicy::kEveryRecord, nullptr, &fs);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(Fs::Posix().Exists(path).value());
  EXPECT_EQ(MustRead(path).size(), 0u);

  // The zero-length husk is a torn creation, not a foreign file: a clean
  // reopen recreates the journal and it is fully usable.
  auto writer = JournalWriter::Open(path, SyncPolicy::kEveryRecord);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().Append("record one").ok());
  ASSERT_TRUE(writer.value().Close().ok());
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents.value().records.size(), 1u);
  EXPECT_EQ(contents.value().records[0], "record one");
}

TEST(JournalFaultTest, PartialMagicHeaderIsTornCreation) {
  const std::string path = FreshPath("journal_partial_magic.jnl");
  ASSERT_TRUE(Fs::Posix().WriteFile(path, "CCDBJ").ok());
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents.value().records.size(), 0u);
  EXPECT_EQ(contents.value().valid_bytes, 0u);
  EXPECT_EQ(contents.value().torn_bytes, 5u);
  auto writer = JournalWriter::Open(path, SyncPolicy::kEveryRecord);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().Close().ok());
}

TEST(JournalFaultTest, ForeignFileIsRejectedNotTruncated) {
  const std::string path = FreshPath("journal_foreign.jnl");
  const std::string foreign = "NOT A CCDB JOURNAL AT ALL";
  ASSERT_TRUE(Fs::Posix().WriteFile(path, foreign).ok());
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kInvalidArgument);
  auto writer = JournalWriter::Open(path, SyncPolicy::kEveryRecord);
  EXPECT_EQ(writer.status().code(), StatusCode::kInvalidArgument);
  // Rejection must not destroy the (possibly precious) foreign file.
  EXPECT_EQ(MustRead(path), foreign);
}

TEST(JournalFaultTest, TornTailIsQuarantinedOnReopen) {
  const std::string path = FreshPath("journal_torn.jnl");
  {
    auto writer = JournalWriter::Open(path, SyncPolicy::kEveryRecord);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append("alpha").ok());
    ASSERT_TRUE(writer.value().Append("beta").ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  // Simulate a crash mid-append: garbage shorter than a record header.
  {
    auto file = Fs::Posix().OpenForWrite(path, WriteMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("GARBAGE").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  JournalContents recovered;
  auto writer = JournalWriter::Open(path, SyncPolicy::kEveryRecord,
                                    &recovered);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().Close().ok());
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_EQ(recovered.records[0], "alpha");
  EXPECT_EQ(recovered.records[1], "beta");
  EXPECT_EQ(recovered.torn_bytes, 7u);
  // The cut bytes land in quarantine for forensics, never silently die.
  EXPECT_EQ(MustRead(path + ".quarantine"), "GARBAGE");
  // The journal itself is whole again.
  auto contents = ReadJournal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().records.size(), 2u);
  EXPECT_EQ(contents.value().torn_bytes, 0u);
}

TEST(JournalFaultTest, WriteFileAtomicRenameFaultLeavesOldFileIntact) {
  const std::string path = FreshPath("atomic_rename_fault.bin");
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, "generation one").ok());
  FaultFsOptions options;
  options.rename_error_prob = 1.0;
  FaultFs fs(options);
  EXPECT_EQ(fs.WriteFileAtomic(path, "generation two").code(),
            StatusCode::kUnavailable);
  // Readers still see the old complete file; no .tmp leaks.
  EXPECT_EQ(MustRead(path), "generation one");
  EXPECT_FALSE(Fs::Posix().Exists(path + ".tmp").value());
}

// ------------------------------------------ single-fault property test

/// Sweeps exactly one injected fault across every fallible I/O operation
/// of a durable SGD training run. The recovery contract under any single
/// storage fault: either the run still completes with the bit-identical
/// model, or it fails cleanly and an immediate fault-free retry against
/// the same snapshot file completes bit-identically.
TEST(SingleFaultPropertyTest, DurableSgdSurvivesAnySingleFault) {
  Rng rng(61);
  std::vector<Rating> ratings;
  for (std::uint32_t m = 0; m < 20; ++m) {
    for (std::uint32_t u = 0; u < 25; ++u) {
      if (!rng.Bernoulli(0.4)) continue;
      ratings.push_back({m, u, static_cast<float>(rng.Uniform(1.0, 5.0))});
    }
  }
  const RatingDataset data(20, 25, std::move(ratings));

  factorization::FactorModelConfig model_config;
  model_config.kind = factorization::ModelKind::kEuclideanEmbedding;
  model_config.dims = 4;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 3;
  trainer.learning_rate = 0.02;

  factorization::FactorModel reference(model_config, data);
  const auto baseline = TrainSgd(trainer, data, reference);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string ref_encoded =
      factorization::EncodeFactorModel(reference);

  // Enumerate the fallible-op surface with a fault-free instrumented run.
  const std::string probe_path = FreshPath("single_fault_probe.ckpt");
  std::uint64_t total_ops = 0;
  {
    FaultFs clean((FaultFsOptions()));
    factorization::TrainerCheckpointOptions checkpoint;
    checkpoint.path = probe_path;
    checkpoint.fs = &clean;
    factorization::FactorModel model(model_config, data);
    auto report = TrainSgd(trainer, data, model, &checkpoint);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(factorization::EncodeFactorModel(model), ref_encoded);
    total_ops = clean.ops_observed();
  }
  ASSERT_GT(total_ops, 10u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    SCOPED_TRACE("single fault at op " + std::to_string(k));
    const std::string path =
        FreshPath("single_fault_" + std::to_string(k) + ".ckpt");
    FaultFsOptions options;
    options.fault_at_op = k;
    FaultFs faulty(options);
    factorization::TrainerCheckpointOptions checkpoint;
    checkpoint.path = path;
    checkpoint.fs = &faulty;

    factorization::FactorModel model(model_config, data);
    auto report = TrainSgd(trainer, data, model, &checkpoint);
    if (report.ok()) {
      // The fault was absorbed (e.g. a read-side bit flip caught by the
      // snapshot CRC and laddered away): the result must be unaffected.
      EXPECT_EQ(factorization::EncodeFactorModel(model), ref_encoded);
      EXPECT_EQ(report.value().epochs_run, baseline.value().epochs_run);
      continue;
    }
    // The fault surfaced as a clean error: a fault-free retry against the
    // same snapshot family must recover to the bit-identical model.
    factorization::TrainerCheckpointOptions retry;
    retry.path = path;
    factorization::FactorModel resumed(model_config, data);
    auto retried = TrainSgd(trainer, data, resumed, &retry);
    ASSERT_TRUE(retried.ok())
        << "fault at op " << k << " was not recoverable: "
        << retried.status().ToString()
        << " (original error: " << report.status().ToString() << ")";
    EXPECT_EQ(factorization::EncodeFactorModel(resumed), ref_encoded);
    EXPECT_EQ(retried.value().epochs_run, baseline.value().epochs_run);
  }
}

}  // namespace
}  // namespace ccdb
