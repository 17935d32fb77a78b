#include "core/perceptual_space.h"

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
  return PerceptualSpace(std::move(model.mutable_item_factors()),
                         std::move(model.mutable_item_bias()),
                         model.global_mean());
}

PerceptualSpace::PerceptualSpace(Matrix item_coords)
    : item_coords_(std::move(item_coords)),
      coordinate_variance_(MeanCoordinateVariance(item_coords_)),
      label_points_(item_coords_) {}

PerceptualSpace::PerceptualSpace(Matrix item_coords,
                                 std::vector<double> item_bias,
                                 double global_mean)
    : item_coords_(std::move(item_coords)),
      item_bias_(std::move(item_bias)),
      global_mean_(global_mean),
      coordinate_variance_(MeanCoordinateVariance(item_coords_)),
      label_points_(item_coords_) {
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

// A saved space is one envelope (SealEnvelope, common/journal.h) around
// [u64 items][u64 dims][u8 has biases][f64 global mean], the coordinates
// row by row, then the biases, each double as its IEEE-754 bits. Files of
// the older formats CCDBPS01 and CCDBPS02 fail on the magic, and the bench
// cache rebuilds them.
constexpr char kMagic[8] = {'C', 'C', 'D', 'B', 'P', 'S', '0', '3'};

}  // namespace

Status PerceptualSpace::SaveToFile(const std::string& path, Fs* fs) const {
  ByteWriter w;
  w.Reserve(3 * sizeof(std::uint64_t) + 1 +
            sizeof(double) * (item_coords_.Data().size() + item_bias_.size()));
  w.PutU64(num_items());
  w.PutU64(dims());
  w.PutBool(!item_bias_.empty());
  w.PutF64(global_mean_);
  for (const double v : item_coords_.Data()) w.PutF64(v);
  for (const double b : item_bias_) w.PutF64(b);
  return ResolveFs(fs).WriteFileAtomic(path, SealEnvelope(kMagic, w.bytes()));
}

StatusOr<PerceptualSpace> PerceptualSpace::LoadFromFile(
    const std::string& path, Fs* fs) {
  const StatusOr<std::string> file = ResolveFs(fs).ReadFile(path);
  if (!file.ok()) return file.status();
  const StatusOr<std::string_view> payload =
      OpenEnvelope(kMagic, file.value(), path);
  if (!payload.ok()) return payload.status();
  ByteReader r(payload.value());
  const std::uint64_t num_items = r.GetU64();
  const std::uint64_t dims = r.GetU64();
  const bool has_bias = r.GetBool();
  const double global_mean = r.GetF64();
  // The item count is checked against the bytes left before anything is
  // allocated. An item holds `dims` coordinates and, with biases, one
  // bias, so a header whose items hold nothing backs no item.
  const std::uint64_t doubles_left = r.remaining() / sizeof(double);
  const std::uint64_t per_item = dims + (has_bias ? 1 : 0);
  if (!r.ok() ||
      (num_items != 0 && (per_item == 0 || dims > doubles_left ||
                          per_item > doubles_left / num_items))) {
    return Status::InvalidArgument(
        "perceptual-space header claims more than the file holds: " + path);
  }
  Matrix coords(num_items, dims);
  for (double& v : coords.Data()) v = r.GetF64();
  std::vector<double> bias(has_bias ? num_items : 0);
  for (double& b : bias) b = r.GetF64();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("perceptual-space payload size mismatch: " +
                                   path);
  }
  if (!has_bias) return PerceptualSpace(std::move(coords));
  return PerceptualSpace(std::move(coords), std::move(bias), global_mean);
}

}  // namespace ccdb::core
