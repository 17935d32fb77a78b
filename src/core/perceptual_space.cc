#include "core/perceptual_space.h"

#include <cstring>
#include <string_view>

#include "common/check.h"
#include "common/journal.h"
#include "common/vec.h"

namespace ccdb::core {
namespace {

/// Mean per-coordinate (population) variance of the rows of `coords`.
/// Two row-major passes (means, then squared deviations) so each row is
/// streamed once per pass instead of strided column walks; per column the
/// summation order over rows is that of a column-major walk.
double MeanCoordinateVariance(const Matrix& coords) {
  const std::size_t n = coords.rows();
  const std::size_t d = coords.cols();
  if (n == 0 || d == 0) return 0.0;
  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) mean[c] += row[c];
  }
  for (std::size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);
  std::vector<double> variance(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = coords.Row(i);
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = row[c] - mean[c];
      variance[c] += diff * diff;
    }
  }
  double total_variance = 0.0;
  for (std::size_t c = 0; c < d; ++c) {
    total_variance += variance[c] / static_cast<double>(n);
  }
  return total_variance / static_cast<double>(d);
}

}  // namespace

PerceptualSpace PerceptualSpace::Build(const RatingDataset& ratings,
                                       const PerceptualSpaceOptions& options) {
  factorization::FactorModel model(options.model, ratings);
  const StatusOr<factorization::TrainingReport> trained =
      factorization::TrainSgd(options.trainer, ratings, model);
  CCDB_CHECK_MSG(trained.ok(), trained.status().ToString());
  return PerceptualSpace(model.item_factors(), model.item_bias(),
                         model.global_mean());
}

PerceptualSpace::PerceptualSpace(Matrix item_coords)
    : item_coords_(std::move(item_coords)),
      coordinate_variance_(MeanCoordinateVariance(item_coords_)) {}

PerceptualSpace::PerceptualSpace(Matrix item_coords,
                                 std::vector<double> item_bias,
                                 double global_mean)
    : item_coords_(std::move(item_coords)),
      item_bias_(std::move(item_bias)),
      global_mean_(global_mean),
      coordinate_variance_(MeanCoordinateVariance(item_coords_)) {
  CCDB_CHECK_EQ(item_bias_.size(), item_coords_.rows());
}

double PerceptualSpace::BiasOf(std::uint32_t item) const {
  CCDB_CHECK_LT(item, num_items());
  return item_bias_.empty() ? 0.0 : item_bias_[item];
}

double PerceptualSpace::Distance(std::uint32_t a, std::uint32_t b) const {
  return ccdb::Distance(item_coords_.Row(a), item_coords_.Row(b));
}

std::vector<eval::Neighbor> PerceptualSpace::NearestNeighbors(
    std::uint32_t item, std::size_t k) const {
  return eval::KNearestNeighbors(item_coords_, item, k);
}

Matrix PerceptualSpace::GatherRows(
    const std::vector<std::uint32_t>& items) const {
  Matrix gathered(items.size(), dims());
  for (std::size_t i = 0; i < items.size(); ++i) {
    CCDB_CHECK_LT(items[i], num_items());
    auto dst = gathered.Row(i);
    const auto src = item_coords_.Row(items[i]);
    for (std::size_t c = 0; c < src.size(); ++c) dst[c] = src[c];
  }
  return gathered;
}

namespace {

// Format v02: [magic][payload][u32 crc32(payload)][u64 payload_len]. The
// trailer detects truncated or bit-rotted files (a torn cache previously
// deserialized garbage coordinates); the atomic write means readers never
// observe a half-written file. v01 files (no trailer) fail validation and
// are silently rebuilt by the bench cache.
constexpr char kMagic[8] = {'C', 'C', 'D', 'B', 'P', 'S', '0', '2'};
constexpr std::size_t kTrailerBytes = sizeof(std::uint32_t) +
                                      sizeof(std::uint64_t);

void AppendRaw(std::string& out, const void* data, std::size_t bytes) {
  out.append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendValue(std::string& out, T value) {
  AppendRaw(out, &value, sizeof(value));
}

template <typename T>
bool ReadValue(std::string_view bytes, std::size_t& pos, T& value) {
  if (bytes.size() - pos < sizeof(value)) return false;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  pos += sizeof(value);
  return true;
}

}  // namespace

Status PerceptualSpace::SaveToFile(const std::string& path, Fs* fs) const {
  std::string payload;
  const auto coords = item_coords_.Data();
  payload.reserve(4 * sizeof(std::uint64_t) +
                  sizeof(double) * (coords.size() + item_bias_.size()));
  AppendValue<std::uint64_t>(payload, num_items());
  AppendValue<std::uint64_t>(payload, dims());
  AppendValue<std::uint64_t>(payload, item_bias_.empty() ? 0 : 1);
  AppendValue<double>(payload, global_mean_);
  if (!coords.empty()) {
    AppendRaw(payload, coords.data(), coords.size() * sizeof(double));
  }
  if (!item_bias_.empty()) {
    AppendRaw(payload, item_bias_.data(), item_bias_.size() * sizeof(double));
  }

  std::string file_bytes;
  file_bytes.reserve(sizeof(kMagic) + payload.size() + kTrailerBytes);
  file_bytes.append(kMagic, sizeof(kMagic));
  file_bytes += payload;
  AppendValue<std::uint32_t>(file_bytes, Crc32(payload));
  AppendValue<std::uint64_t>(file_bytes, payload.size());
  return AtomicWriteFile(path, file_bytes, fs);
}

StatusOr<PerceptualSpace> PerceptualSpace::LoadFromFile(
    const std::string& path, Fs* fs) {
  StatusOr<std::string> bytes_or = ReadFileToString(path, fs);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();
  if (bytes.size() < sizeof(kMagic) + kTrailerBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a perceptual-space file: " + path);
  }
  const std::string_view payload(bytes.data() + sizeof(kMagic),
                                 bytes.size() - sizeof(kMagic) -
                                     kTrailerBytes);
  std::size_t trailer_pos = sizeof(kMagic) + payload.size();
  std::uint32_t stored_crc = 0;
  std::uint64_t stored_len = 0;
  ReadValue(bytes, trailer_pos, stored_crc);
  ReadValue(bytes, trailer_pos, stored_len);
  if (stored_len != payload.size()) {
    return Status::InvalidArgument("perceptual-space file truncated: " +
                                   path);
  }
  if (stored_crc != Crc32(payload)) {
    return Status::InvalidArgument("perceptual-space file corrupt: " + path);
  }

  std::size_t pos = 0;
  std::uint64_t num_items = 0, dims = 0, has_bias = 0;
  double global_mean = 0.0;
  if (!ReadValue(payload, pos, num_items) || !ReadValue(payload, pos, dims) ||
      !ReadValue(payload, pos, has_bias) ||
      !ReadValue(payload, pos, global_mean)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  const std::uint64_t avail = (payload.size() - pos) / sizeof(double);
  if (num_items != 0 && dims > avail / num_items) {
    return Status::InvalidArgument("perceptual-space payload size mismatch: " +
                                   path);
  }
  const std::uint64_t expected =
      num_items * dims + (has_bias != 0 ? num_items : 0);
  if (payload.size() - pos != expected * sizeof(double)) {
    return Status::InvalidArgument("perceptual-space payload size mismatch: " +
                                   path);
  }
  Matrix coords(num_items, dims);
  auto data = coords.Data();
  if (!data.empty()) {
    std::memcpy(data.data(), payload.data() + pos,
                data.size() * sizeof(double));
    pos += data.size() * sizeof(double);
  }
  if (has_bias == 0) {
    return PerceptualSpace(std::move(coords));
  }
  std::vector<double> bias(num_items);
  if (num_items > 0) {
    std::memcpy(bias.data(), payload.data() + pos,
                bias.size() * sizeof(double));
  }
  return PerceptualSpace(std::move(coords), std::move(bias), global_mean);
}

}  // namespace ccdb::core
