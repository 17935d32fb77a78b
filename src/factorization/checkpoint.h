#ifndef CCDB_FACTORIZATION_CHECKPOINT_H_
#define CCDB_FACTORIZATION_CHECKPOINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/journal.h"
#include "common/sparse.h"
#include "common/status.h"
#include "factorization/factor_model.h"

namespace ccdb::factorization {

/// Epoch-level trainer durability: where (and how often) TrainSgd
/// snapshots its state when given these options. Snapshots are
/// single files replaced via write-to-temp + fsync + rename +
/// parent-directory fsync, so a crash mid-write leaves the previous
/// snapshot intact; a CRC over the payload rejects bit rot. Older snapshot
/// generations are kept at `path.1`, `path.2`, … — when the newest
/// snapshot fails its envelope check (magic/CRC) it is renamed aside to
/// `path.corrupt*` (never deleted) and loading falls back to the newest
/// older valid generation.
struct TrainerCheckpointOptions {
  /// Snapshot file path. Must be non-empty.
  std::string path;
  /// Snapshot cadence in epochs. The final state is always snapshotted
  /// regardless of cadence.
  int every_epochs = 1;
  /// Total snapshot generations kept on disk (current + keep-1 older).
  /// Must be >= 1; 1 disables the fallback ladder.
  int keep_generations = 2;
  /// Filesystem backend (ResolveFs convention: nullptr = the real one).
  Fs* fs = nullptr;
};

/// Serializes a model's full trainable state (factors, biases, temporal
/// bin biases, global mean) with doubles as IEEE-754 bit patterns — a
/// restore is bit-exact.
std::string EncodeFactorModel(const FactorModel& model);

/// Restores trainable state into `model`, which must have been constructed
/// from the same (config, dataset) pair — shape mismatches are rejected
/// with InvalidArgument.
[[nodiscard]]
Status DecodeFactorModelInto(std::string_view bytes, FactorModel& model);

/// Reads the newest valid snapshot generation of this run, restores its
/// model into `model` and returns the trainer's loop state bytes. A run is
/// identified by the trainer's `schedule` (its config fields, serialized
/// by the trainer), the data shape and the model config. NotFound when no
/// valid generation exists (a fresh start); InvalidArgument for invalid
/// options or another run's snapshot.
[[nodiscard]] StatusOr<std::string> ReadTrainerSnapshot(
    const TrainerCheckpointOptions& options, std::string_view schedule,
    const RatingDataset& data, FactorModel& model);

/// Writes a snapshot of this run — the trainer's loop state plus the
/// model — rotating the older generations first.
[[nodiscard]] Status WriteTrainerSnapshot(
    const TrainerCheckpointOptions& options, std::string_view schedule,
    const RatingDataset& data, std::string_view loop_state,
    const FactorModel& model);

/// Length-prefixed double series (per-epoch telemetry) inside a loop
/// state; GetDoubles rejects a length that the bytes left cannot hold
/// with InvalidArgument.
void PutDoubles(ByteWriter& w, const std::vector<double>& values);
[[nodiscard]] Status GetDoubles(ByteReader& r, std::vector<double>& values,
                                const char* name);

}  // namespace ccdb::factorization

#endif  // CCDB_FACTORIZATION_CHECKPOINT_H_
