#include "core/expansion_manifest.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

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

std::string EncodeManifestRecord(std::uint64_t index,
                                 const ExpansionCheckpoint& checkpoint) {
  ByteWriter w;
  w.PutU64(index);
  w.PutBytes(EncodeExpansionCheckpoint(checkpoint));
  return w.Take();
}

namespace {

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

/// InvalidArgument unless `checkpoint` fits a `sample_size`-item sample.
Status CheckCheckpointFitsSample(const ExpansionCheckpoint& checkpoint,
                                 std::size_t sample_size) {
  if (checkpoint.crowd_classification.size() != sample_size) {
    return Status::InvalidArgument(
        "journaled checkpoint classifies " +
        std::to_string(checkpoint.crowd_classification.size()) +
        " items of a " + std::to_string(sample_size) + "-item sample");
  }
  const std::size_t extracted =
      checkpoint.extractor_trained ? sample_size : 0;
  if (checkpoint.extracted.size() != extracted) {
    return Status::InvalidArgument(
        "journaled checkpoint extracts " +
        std::to_string(checkpoint.extracted.size()) + " labels where " +
        std::to_string(extracted) + " are due");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<ExpansionCheckpoint>> ReplayExpansionManifest(
    const std::vector<std::string>& records, std::size_t sample_size) {
  std::map<std::uint64_t, ExpansionCheckpoint> by_index;
  for (const std::string& record : records) {
    ByteReader r(record);
    const std::uint64_t index = r.GetU64();
    StatusOr<ExpansionCheckpoint> checkpoint =
        DecodeExpansionCheckpoint(r.GetBytes());
    if (!checkpoint.ok()) return checkpoint.status();
    if (!r.AtEnd()) {
      return Status::InvalidArgument("malformed manifest checkpoint record");
    }
    if (Status status =
            CheckCheckpointFitsSample(checkpoint.value(), sample_size);
        !status.ok()) {
      return status;
    }
    by_index.emplace(index, std::move(checkpoint).value());
  }
  std::vector<ExpansionCheckpoint> checkpoints;
  for (auto& [index, checkpoint] : by_index) {
    if (index != checkpoints.size()) break;  // gap: the rest never hit disk
    checkpoints.push_back(std::move(checkpoint));
  }
  return checkpoints;
}

}  // namespace ccdb::core
