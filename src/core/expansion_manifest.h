#ifndef CCDB_CORE_EXPANSION_MANIFEST_H_
#define CCDB_CORE_EXPANSION_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/journal.h"
#include "common/status.h"
#include "core/expansion.h"

namespace ccdb::core {

/// Durable state recovered from the checkpoint manifest of
/// RunIncrementalExpansion (expansion.h), an append-only ccdb journal of a
/// begin record (input fingerprint), one record per completed checkpoint
/// and a finish record: the gap-free prefix of checkpoints that fully
/// reached the disk.
struct ExpansionManifest {
  bool begun = false;
  /// Fingerprint of the run's inputs (sample, judgment stream, options).
  std::uint64_t fingerprint = 0;
  /// True when the finish record was written — the run completed and the
  /// checkpoints below are the full result.
  bool finished = false;
  std::vector<ExpansionCheckpoint> checkpoints;
};

/// The identity walk of ExtractorOptions (every field but `smo.stop`),
/// shared by ExpansionFingerprint and ExpansionJobFingerprint; the crowd
/// structs' walks are in crowd/dispatch_journal.h.
void PutExtractorOptions(ByteWriter& w, const ExtractorOptions& options);

/// Fingerprint of an incremental expansion's inputs. Stored in the
/// manifest's begin record; a resume whose inputs hash differently is
/// rejected (InvalidArgument) instead of splicing two runs together.
std::uint64_t ExpansionFingerprint(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options);

/// Byte-exact checkpoint serialization (doubles stored as IEEE-754 bit
/// patterns, so a decode(encode(c)) round trip reproduces c bitwise).
std::string EncodeExpansionCheckpoint(const ExpansionCheckpoint& checkpoint);
[[nodiscard]] StatusOr<ExpansionCheckpoint> DecodeExpansionCheckpoint(
    std::string_view bytes);

/// Reads and replays a manifest journal (NotFound when absent; corrupt
/// non-tail records are InvalidArgument, a torn tail is dropped).
[[nodiscard]]
StatusOr<ExpansionManifest> LoadExpansionManifest(const std::string& path,
                                                  Fs* fs = nullptr);

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_MANIFEST_H_
