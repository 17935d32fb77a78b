#include "core/expansion_manifest.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/crash_point.h"
#include "crowd/dispatch_journal.h"

namespace ccdb::core {

void PutExtractorOptions(ByteWriter& w, const ExtractorOptions& options) {
  w.PutF64(options.kernel.gamma);
  w.PutF64(options.gamma_scale);
  w.PutF64(options.cost);
  w.PutBool(options.balance_class_costs);
  w.PutF64(options.epsilon);
  w.PutU64(options.smo.max_iterations);
}

namespace {

/// Manifest record types. Checkpoint records carry their index, so replay
/// is idempotent and order-insensitive; only the gap-free prefix counts.
enum class RecordType : std::uint8_t {
  kBegin = 1,       // u64 fingerprint
  kCheckpoint = 2,  // u64 index, bytes(encoded checkpoint)
  kFinish = 3,      // u64 fingerprint
};

std::string EncodeBegin(std::uint64_t fingerprint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kBegin));
  w.PutU64(fingerprint);
  return w.Take();
}

std::string EncodeCheckpointRecord(std::uint64_t index,
                                   const ExpansionCheckpoint& checkpoint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kCheckpoint));
  w.PutU64(index);
  w.PutBytes(EncodeExpansionCheckpoint(checkpoint));
  return w.Take();
}

std::string EncodeFinish(std::uint64_t fingerprint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kFinish));
  w.PutU64(fingerprint);
  return w.Take();
}

StatusOr<ExpansionManifest> ReplayManifest(
    const std::vector<std::string>& records) {
  ExpansionManifest manifest;
  std::map<std::uint64_t, ExpansionCheckpoint> by_index;
  for (const std::string& record : records) {
    ByteReader r(record);
    switch (static_cast<RecordType>(r.GetU8())) {
      case RecordType::kBegin: {
        const std::uint64_t fingerprint = r.GetU64();
        if (!r.AtEnd()) {
          return Status::InvalidArgument("malformed manifest begin record");
        }
        if (manifest.begun && manifest.fingerprint != fingerprint) {
          return Status::InvalidArgument(
              "manifest holds two different expansions");
        }
        manifest.begun = true;
        manifest.fingerprint = fingerprint;
        break;
      }
      case RecordType::kCheckpoint: {
        const std::uint64_t index = r.GetU64();
        StatusOr<ExpansionCheckpoint> checkpoint =
            DecodeExpansionCheckpoint(r.GetBytes());
        if (!checkpoint.ok()) return checkpoint.status();
        if (!r.AtEnd()) {
          return Status::InvalidArgument(
              "malformed manifest checkpoint record");
        }
        by_index.emplace(index, std::move(checkpoint).value());
        break;
      }
      case RecordType::kFinish: {
        const std::uint64_t fingerprint = r.GetU64();
        if (!r.AtEnd()) {
          return Status::InvalidArgument("malformed manifest finish record");
        }
        if (manifest.begun && manifest.fingerprint != fingerprint) {
          return Status::InvalidArgument(
              "manifest finish fingerprint does not match begin");
        }
        manifest.finished = true;
        break;
      }
      default:
        return Status::InvalidArgument("unknown manifest record type");
    }
  }
  std::uint64_t next = 0;
  for (auto& [index, checkpoint] : by_index) {
    if (index != next) break;  // gap: later checkpoints never hit the disk
    manifest.checkpoints.push_back(std::move(checkpoint));
    ++next;
  }
  return manifest;
}

}  // namespace

std::uint64_t ExpansionFingerprint(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options) {
  ByteWriter w;
  w.PutU64(sample_items.size());
  for (std::uint32_t item : sample_items) w.PutU32(item);
  w.PutU64(judgments.size());
  for (const crowd::Judgment& judgment : judgments) {
    crowd::PutJudgment(w, judgment);
  }
  w.PutF64(total_minutes);
  w.PutF64(options.checkpoint_interval_minutes);
  w.PutF64(options.max_dollars);
  PutExtractorOptions(w, options.extractor);
  return HashBytes(w.bytes());
}

std::string EncodeExpansionCheckpoint(const ExpansionCheckpoint& checkpoint) {
  ByteWriter w;
  w.PutF64(checkpoint.minutes);
  w.PutF64(checkpoint.dollars_spent);
  w.PutU64(checkpoint.training_size);
  w.PutU64(checkpoint.crowd_classification.size());
  for (const std::optional<bool>& vote : checkpoint.crowd_classification) {
    w.PutU8(vote.has_value() ? (*vote ? 2 : 1) : 0);
  }
  w.PutU64(checkpoint.extracted.size());
  for (bool extracted : checkpoint.extracted) w.PutBool(extracted);
  w.PutBool(checkpoint.extractor_trained);
  return w.Take();
}

StatusOr<ExpansionCheckpoint> DecodeExpansionCheckpoint(
    std::string_view bytes) {
  ByteReader r(bytes);
  ExpansionCheckpoint checkpoint;
  checkpoint.minutes = r.GetF64();
  checkpoint.dollars_spent = r.GetF64();
  checkpoint.training_size = r.GetU64();
  const std::uint64_t num_votes = r.GetU64();
  if (!r.ok() || num_votes > r.remaining()) {
    return Status::InvalidArgument("truncated checkpoint record");
  }
  checkpoint.crowd_classification.reserve(num_votes);
  for (std::uint64_t i = 0; i < num_votes; ++i) {
    switch (r.GetU8()) {
      case 0: checkpoint.crowd_classification.emplace_back(); break;
      case 1: checkpoint.crowd_classification.emplace_back(false); break;
      case 2: checkpoint.crowd_classification.emplace_back(true); break;
      default:
        return Status::InvalidArgument("corrupt vote in checkpoint record");
    }
  }
  const std::uint64_t num_extracted = r.GetU64();
  if (!r.ok() || num_extracted > r.remaining()) {
    return Status::InvalidArgument("truncated checkpoint record");
  }
  checkpoint.extracted.reserve(num_extracted);
  for (std::uint64_t i = 0; i < num_extracted; ++i) {
    checkpoint.extracted.push_back(r.GetBool());
  }
  checkpoint.extractor_trained = r.GetBool();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed checkpoint record");
  }
  return checkpoint;
}

StatusOr<ExpansionManifest> LoadExpansionManifest(const std::string& path,
                                                  Fs* fs) {
  StatusOr<JournalContents> contents = ReadJournal(path, fs);
  if (!contents.ok()) return contents.status();
  return ReplayManifest(contents.value().records);
}

namespace {

Status ValidateIncrementalExpansion(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options) {
  if (!(options.checkpoint_interval_minutes > 0.0)) {
    return Status::InvalidArgument(
        "checkpoint_interval_minutes must be > 0");
  }
  if (sample_items.empty()) {
    return Status::InvalidArgument("sample_items is empty");
  }
  if (!(total_minutes >= 0.0)) {
    return Status::InvalidArgument("total_minutes must be >= 0");
  }
  for (const crowd::Judgment& judgment : judgments) {
    if (!judgment.is_gold && judgment.item >= sample_items.size()) {
      return Status::OutOfRange(
          "judgment references item " + std::to_string(judgment.item) +
          " outside the sample of " + std::to_string(sample_items.size()));
    }
  }
  return Status::Ok();
}

/// The single-checkpoint kernel: the majority vote over judgments up to
/// `now`, the training set it induces, and the retrained extraction over
/// the sample (the experiment's universe) in one batched sweep. nullopt
/// when `stop` fired inside the sweep — a partial checkpoint is never
/// published.
std::optional<ExpansionCheckpoint> ComputeExpansionCheckpoint(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double now,
    const ExtractorOptions& extractor_options, const StopCondition& stop) {
  const std::size_t sample_size = sample_items.size();
  ExpansionCheckpoint checkpoint;
  checkpoint.minutes = now;
  checkpoint.dollars_spent = crowd::CostUpTo(judgments, now);
  checkpoint.crowd_classification =
      crowd::MajorityVote(judgments, sample_size, now);

  // Training set = items with a clear majority so far.
  std::vector<std::uint32_t> training_items;
  std::vector<bool> training_labels;
  for (std::size_t i = 0; i < sample_size; ++i) {
    if (checkpoint.crowd_classification[i].has_value()) {
      training_items.push_back(sample_items[i]);
      training_labels.push_back(*checkpoint.crowd_classification[i]);
    }
  }
  checkpoint.training_size = training_items.size();

  BinaryAttributeExtractor extractor(extractor_options);
  if (extractor.Train(space, training_items, training_labels)) {
    checkpoint.extractor_trained = true;
    std::optional<std::vector<bool>> extracted =
        extractor.ExtractItems(space, sample_items, stop);
    if (!extracted.has_value()) return std::nullopt;
    checkpoint.extracted = *std::move(extracted);
  }
  return checkpoint;
}

}  // namespace

StatusOr<std::vector<ExpansionCheckpoint>> RunIncrementalExpansion(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options,
    const DurableExpansionOptions* manifest) {
  if (Status status = ValidateIncrementalExpansion(sample_items, judgments,
                                                   total_minutes, options);
      !status.ok()) {
    return status;
  }

  // With a manifest, open the journal and recover its durable prefix; a
  // manifest of other inputs is rejected instead of spliced in.
  std::optional<JournalWriter> writer;
  ExpansionManifest recovered;
  std::uint64_t fingerprint = 0;
  const auto append = [&writer](const std::string& record) -> Status {
    if (Status status = writer->Append(record); !status.ok()) return status;
    return writer->Sync();
  };
  if (manifest != nullptr) {
    if (manifest->manifest_path.empty()) {
      return Status::InvalidArgument(
          "DurableExpansionOptions.manifest_path is empty");
    }
    fingerprint =
        ExpansionFingerprint(sample_items, judgments, total_minutes, options);
    JournalContents contents;
    StatusOr<JournalWriter> opened = JournalWriter::Open(
        manifest->manifest_path, manifest->sync, &contents, manifest->fs);
    if (!opened.ok()) return opened.status();
    writer.emplace(std::move(opened).value());
    StatusOr<ExpansionManifest> replayed = ReplayManifest(contents.records);
    if (!replayed.ok()) return replayed.status();
    recovered = std::move(replayed).value();
    if (recovered.begun && recovered.fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "manifest " + manifest->manifest_path +
          " belongs to a different expansion (fingerprint mismatch)");
    }
    if (!recovered.begun) {
      if (Status status = append(EncodeBegin(fingerprint)); !status.ok()) {
        return status;
      }
    }
    CCDB_CRASH_POINT("expansion.begin");
  }

  // `t` advances by repeated addition, so fresh and resumed runs walk the
  // identical floating-point time grid. Journaled checkpoints are consumed
  // verbatim; the first missing index is computed, journaled, then used.
  std::vector<ExpansionCheckpoint> checkpoints;
  std::size_t index = 0;
  for (double t = options.checkpoint_interval_minutes;;
       t += options.checkpoint_interval_minutes, ++index) {
    const double now = std::min(t, total_minutes);
    ExpansionCheckpoint checkpoint;
    if (index < recovered.checkpoints.size()) {
      checkpoint = std::move(recovered.checkpoints[index]);
    } else {
      // Cooperative stop at the checkpoint boundary or inside the sweep.
      // Checkpoints already journaled stay on disk; a later run with the
      // same inputs picks up exactly here — cancellation leaves the same
      // durable state as a crash would, minus the torn tail.
      std::optional<ExpansionCheckpoint> computed;
      if (!options.stop.ShouldStop()) {
        computed = ComputeExpansionCheckpoint(space, sample_items, judgments,
                                              now, options.extractor,
                                              options.stop);
      }
      if (!computed.has_value()) {
        if (writer.has_value()) {
          if (Status status = writer->Close(); !status.ok()) return status;
        }
        return options.stop.ToStatus("incremental expansion");
      }
      checkpoint = *std::move(computed);
      if (writer.has_value()) {
        if (Status status =
                append(EncodeCheckpointRecord(index, checkpoint));
            !status.ok()) {
          return status;
        }
        CCDB_CRASH_POINT("expansion.checkpoint");
      }
    }
    // Budget cap: keep the checkpoint that crossed the cap (it reflects
    // the last money actually spent), then stop — partial results beat
    // none when the crowd run outlives its budget.
    const bool over_budget = checkpoint.dollars_spent > options.max_dollars;
    checkpoints.push_back(std::move(checkpoint));
    if (now >= total_minutes || over_budget) break;
  }

  if (writer.has_value()) {
    if (!recovered.finished) {
      if (Status status = append(EncodeFinish(fingerprint)); !status.ok()) {
        return status;
      }
    }
    CCDB_CRASH_POINT("expansion.finish");
    if (Status status = writer->Close(); !status.ok()) return status;
  }
  return checkpoints;
}

}  // namespace ccdb::core
