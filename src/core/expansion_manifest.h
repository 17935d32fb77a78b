#ifndef CCDB_CORE_EXPANSION_MANIFEST_H_
#define CCDB_CORE_EXPANSION_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/status.h"
#include "core/expansion.h"

namespace ccdb::core {

// The checkpoint manifest of RunIncrementalExpansion (expansion.h) is a
// run journal (common/journal.h): the run frame around one record per
// completed checkpoint, [u64 index][bytes(EncodeExpansionCheckpoint)].

/// The identity walk of ExtractorOptions (every field but `smo.stop`),
/// shared by ExpansionFingerprint and ExpansionJobFingerprint; the crowd
/// structs' walks are in crowd/dispatch_journal.h.
void PutExtractorOptions(ByteWriter& w, const ExtractorOptions& options);

/// Fingerprint of an incremental expansion's inputs. The run frame stores
/// it; a resume whose inputs hash differently is rejected
/// (InvalidArgument) instead of splicing two runs together.
std::uint64_t ExpansionFingerprint(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options);

/// Byte-exact checkpoint serialization (doubles stored as IEEE-754 bit
/// patterns, so a decode(encode(c)) round trip reproduces c bitwise).
std::string EncodeExpansionCheckpoint(const ExpansionCheckpoint& checkpoint);

/// The manifest record of checkpoint `index`.
std::string EncodeManifestRecord(std::uint64_t index,
                                 const ExpansionCheckpoint& checkpoint);

/// The checkpoints a manifest holds, from its own records
/// (RunFrame::records): the gap-free prefix of checkpoint indices, so
/// duplicated, reordered or truncated records never overclaim. A record
/// that does not decode is InvalidArgument, and so is a checkpoint that
/// does not fit a `sample_size`-item sample: one crowd classification per
/// item, and one extracted label per item when the extractor was trained
/// or none when it was not.
[[nodiscard]] StatusOr<std::vector<ExpansionCheckpoint>>
ReplayExpansionManifest(const std::vector<std::string>& records,
                        std::size_t sample_size);

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_MANIFEST_H_
