#include "factorization/checkpoint.h"

#include <utility>

namespace ccdb::factorization {
namespace {

/// Identifies a ccdb trainer checkpoint file (and its format version).
constexpr char kMagic[8] = {'C', 'C', 'D', 'B', 'C', 'K', 'P', '1'};

/// Bytes PutMatrix writes for `matrix`.
std::size_t MatrixBytes(const Matrix& matrix) {
  return 2 * sizeof(std::uint64_t) +
         sizeof(double) * matrix.rows() * matrix.cols();
}

void PutMatrix(ByteWriter& w, const Matrix& matrix) {
  w.PutU64(matrix.rows());
  w.PutU64(matrix.cols());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      w.PutF64(matrix(r, c));
    }
  }
}

Status GetMatrixInto(ByteReader& r, Matrix& matrix, const char* name) {
  const std::uint64_t rows = r.GetU64();
  const std::uint64_t cols = r.GetU64();
  if (rows != matrix.rows() || cols != matrix.cols()) {
    return Status::InvalidArgument(
        std::string("checkpoint shape mismatch for ") + name + ": " +
        std::to_string(rows) + "x" + std::to_string(cols) + " vs " +
        std::to_string(matrix.rows()) + "x" + std::to_string(matrix.cols()));
  }
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t col = 0; col < cols; ++col) {
      matrix(row, col) = r.GetF64();
    }
  }
  return Status::Ok();
}

/// Model vectors have a fixed length given by the model's shape.
Status GetFixedDoublesInto(ByteReader& r, std::vector<double>& values,
                           const char* name) {
  if (r.GetU64() != values.size()) {
    return Status::InvalidArgument(
        std::string("checkpoint size mismatch for ") + name);
  }
  for (double& v : values) v = r.GetF64();
  return Status::Ok();
}

/// Generation g of a snapshot: the live file for g = 0, `path.g` beyond.
std::string GenerationPath(const std::string& path, int gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

/// Renames a corrupt snapshot aside (never deletes it): first free slot
/// among `path.corrupt`, `path.corrupt.1`, … so repeated corruption events
/// do not overwrite earlier evidence. Best-effort — the fallback to an
/// older generation proceeds even if the rename fails.
void SetAsideCorrupt(Fs& fs, const std::string& path) {
  for (int slot = 0; slot < 16; ++slot) {
    const std::string target =
        path + ".corrupt" + (slot == 0 ? "" : "." + std::to_string(slot));
    StatusOr<bool> exists = fs.Exists(target);
    if (exists.ok() && exists.value()) continue;
    // ccdb-lint: allow(status-nodiscard) — forensic rename is best-effort;
    // recovery falls back to an older generation either way.
    (void)fs.Rename(path, target);
    return;
  }
}

/// Seals the payload (SealEnvelope) and writes it in one WriteFileAtomic,
/// so readers only ever see a complete snapshot; the previous snapshot is
/// rotated to `path.1` (and so on) first, feeding the generation-fallback
/// ladder.
Status WriteSnapshot(Fs& fs, const std::string& path, int keep_generations,
                     std::string_view payload) {
  for (int gen = keep_generations - 1; gen >= 1; --gen) {
    StatusOr<bool> exists = fs.Exists(GenerationPath(path, gen - 1));
    if (!exists.ok() || !exists.value()) continue;
    // ccdb-lint: allow(status-nodiscard) — rotation is best-effort: losing
    // an *older* generation never endangers the snapshot being written.
    (void)fs.Rename(GenerationPath(path, gen - 1), GenerationPath(path, gen));
  }
  return fs.WriteFileAtomic(path, SealEnvelope(kMagic, payload));
}

/// Reads a snapshot's payload, walking the generation ladder: the newest
/// generation whose envelope (magic + CRC) validates wins; corrupt
/// generations are renamed aside (never deleted) and the next older one is
/// tried. NotFound when no generation holds a valid snapshot. Transient
/// read errors propagate — they are not corruption, and falling back on
/// them could silently shadow the newest good state.
StatusOr<std::string> ReadSnapshot(Fs& fs, const std::string& path,
                                   int keep_generations) {
  for (int gen = 0; gen < keep_generations; ++gen) {
    const std::string gen_path = GenerationPath(path, gen);
    StatusOr<std::string> file = fs.ReadFile(gen_path);
    if (!file.ok()) {
      if (file.status().code() == StatusCode::kNotFound) continue;
      return file.status();
    }
    StatusOr<std::string_view> payload =
        OpenEnvelope(kMagic, file.value(), gen_path);
    if (payload.ok()) return std::string(payload.value());
    SetAsideCorrupt(fs, gen_path);
  }
  return Status::NotFound("no valid trainer checkpoint generation at " +
                          path);
}

/// Identity of a training run: a snapshot only resumes the run whose
/// fingerprint it carries.
std::uint64_t RunFingerprint(std::string_view schedule,
                             const RatingDataset& data,
                             const FactorModel& model) {
  ByteWriter w;
  w.PutBytes(schedule);
  w.PutU64(data.num_items());
  w.PutU64(data.num_users());
  w.PutU64(data.num_ratings());
  const FactorModelConfig& mc = model.config();
  w.PutU8(static_cast<std::uint8_t>(mc.kind));
  w.PutU64(mc.dims);
  w.PutF64(mc.lambda);
  w.PutF64(mc.init_scale);
  w.PutU64(mc.time_bins);
  w.PutF64(mc.timeline_days);
  w.PutU64(mc.seed);
  return HashBytes(w.bytes());
}

}  // namespace

std::string EncodeFactorModel(const FactorModel& model) {
  ByteWriter w;
  w.Reserve(sizeof(double) + MatrixBytes(model.item_factors()) +
            MatrixBytes(model.user_factors()) +
            MatrixBytes(model.item_time_bias()) +
            2 * sizeof(std::uint64_t) +
            sizeof(double) *
                (model.item_bias().size() + model.user_bias().size()));
  w.PutF64(model.global_mean());
  PutMatrix(w, model.item_factors());
  PutMatrix(w, model.user_factors());
  PutDoubles(w, model.item_bias());
  PutDoubles(w, model.user_bias());
  PutMatrix(w, model.item_time_bias());
  return w.Take();
}

Status DecodeFactorModelInto(std::string_view bytes, FactorModel& model) {
  ByteReader r(bytes);
  const double global_mean = r.GetF64();
  if (r.ok() && global_mean != model.global_mean()) {
    return Status::InvalidArgument(
        "checkpoint global mean differs — model built from different data");
  }
  if (Status status =
          GetMatrixInto(r, model.mutable_item_factors(), "item_factors");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetMatrixInto(r, model.mutable_user_factors(), "user_factors");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetFixedDoublesInto(r, model.mutable_item_bias(), "item_bias");
      !status.ok()) {
    return status;
  }
  if (Status status =
          GetFixedDoublesInto(r, model.mutable_user_bias(), "user_bias");
      !status.ok()) {
    return status;
  }
  if (Status status = GetMatrixInto(r, model.mutable_item_time_bias(),
                                    "item_time_bias");
      !status.ok()) {
    return status;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed model checkpoint bytes");
  }
  return Status::Ok();
}

StatusOr<std::string> ReadTrainerSnapshot(
    const TrainerCheckpointOptions& options, std::string_view schedule,
    const RatingDataset& data, FactorModel& model) {
  if (options.path.empty()) {
    return Status::InvalidArgument("TrainerCheckpointOptions.path is empty");
  }
  if (options.every_epochs <= 0) {
    return Status::InvalidArgument("every_epochs must be > 0");
  }
  if (options.keep_generations < 1) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  StatusOr<std::string> payload = ReadSnapshot(
      ResolveFs(options.fs), options.path, options.keep_generations);
  if (!payload.ok()) return payload.status();
  ByteReader r(payload.value());
  const std::uint64_t stored = r.GetU64();
  if (r.ok() && stored != RunFingerprint(schedule, data, model)) {
    return Status::InvalidArgument(
        "trainer checkpoint belongs to a different run (fingerprint "
        "mismatch)");
  }
  std::string loop_state(r.GetBytes());
  const std::string_view model_bytes = r.GetBytes();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("malformed trainer checkpoint payload");
  }
  if (Status status = DecodeFactorModelInto(model_bytes, model);
      !status.ok()) {
    return status;
  }
  return loop_state;
}

Status WriteTrainerSnapshot(const TrainerCheckpointOptions& options,
                            std::string_view schedule,
                            const RatingDataset& data,
                            std::string_view loop_state,
                            const FactorModel& model) {
  const std::string model_bytes = EncodeFactorModel(model);
  ByteWriter w;
  w.Reserve(3 * sizeof(std::uint64_t) + loop_state.size() +
            model_bytes.size());
  w.PutU64(RunFingerprint(schedule, data, model));
  w.PutBytes(loop_state);
  w.PutBytes(model_bytes);
  return WriteSnapshot(ResolveFs(options.fs), options.path,
                       options.keep_generations, w.bytes());
}

void PutDoubles(ByteWriter& w, const std::vector<double>& values) {
  w.PutU64(values.size());
  for (double v : values) w.PutF64(v);
}

Status GetDoubles(ByteReader& r, std::vector<double>& values,
                  const char* name) {
  const std::uint64_t n = r.GetU64();
  if (n > r.remaining() / sizeof(double)) {
    return Status::InvalidArgument(
        std::string("checkpoint vector size for ") + name +
        " exceeds the bytes left");
  }
  values.resize(n);
  for (double& v : values) v = r.GetF64();
  return Status::Ok();
}

}  // namespace ccdb::factorization
