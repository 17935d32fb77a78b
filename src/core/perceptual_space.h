#ifndef CCDB_CORE_PERCEPTUAL_SPACE_H_
#define CCDB_CORE_PERCEPTUAL_SPACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/sparse.h"
#include "eval/neighbors.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"
#include "svm/kernel.h"

namespace ccdb::core {

/// Options for building a perceptual space from rating data: the factor
/// model (paper default: Euclidean embedding, d = 100, λ = 0.02) and the
/// SGD schedule.
struct PerceptualSpaceOptions {
  factorization::FactorModelConfig model;
  factorization::SgdTrainerConfig trainer;
};

/// The paper's central data structure (Sec. 3): a d-dimensional Euclidean
/// space in which every item's coordinates encode the aggregate perception
/// of all users who rated it. Items perceived as similar lie close
/// together; perceptual attributes are extracted from it with classifiers
/// trained on small crowd-sourced gold samples.
///
/// Immutable after construction; cheap to copy-by-move.
class PerceptualSpace {
 public:
  /// Builds the space by factorizing `ratings` (this is the "about 2 hours
  /// on a notebook" step of Sec. 4.2, at our synthetic scale seconds). The
  /// trained item factors and biases move into the space, uncopied.
  static PerceptualSpace Build(const RatingDataset& ratings,
                               const PerceptualSpaceOptions& options);

  /// Wraps precomputed coordinates (e.g. an LSI metadata space) so the
  /// extraction machinery can run on alternative geometries (Tables 3–4
  /// compare perceptual vs metadata spaces through this constructor).
  explicit PerceptualSpace(Matrix item_coords);

  PerceptualSpace(Matrix item_coords, std::vector<double> item_bias,
                  double global_mean);

  std::size_t num_items() const { return item_coords_.rows(); }
  std::size_t dims() const { return item_coords_.cols(); }

  /// Coordinates of one item.
  std::span<const double> CoordsOf(std::uint32_t item) const {
    return item_coords_.Row(item);
  }
  const Matrix& item_coords() const { return item_coords_; }

  /// Item bias δ_m (0 if the space was built without biases).
  double BiasOf(std::uint32_t item) const;
  double global_mean() const { return global_mean_; }

  /// Euclidean distance between two items — the space's perceived
  /// dissimilarity measure (Sec. 4.2 validates it against user consensus).
  double Distance(std::uint32_t a, std::uint32_t b) const;

  /// The k items nearest to `item` (Table 2's demonstration).
  std::vector<eval::Neighbor> NearestNeighbors(std::uint32_t item,
                                               std::size_t k) const;

  /// Copies the coordinate rows of `items` into a dense matrix — the
  /// training-set view handed to SVM extractors.
  Matrix GatherRows(const std::vector<std::uint32_t>& items) const;

  /// Mean per-coordinate variance over all items (0 for an empty space);
  /// extractors use it to auto-scale RBF kernel widths to the space's
  /// geometry. Computed once, at construction: the coordinates never
  /// change, so a query pays nothing for it.
  double CoordinateVariance() const { return coordinate_variance_; }

  /// Every item prepared for the sign filter (svm::LabelPoints), once, at
  /// construction, so a whole-space extraction converts no coordinates.
  const svm::LabelPoints& label_points() const { return label_points_; }

  /// Writes the space atomically as one sealed file (SealEnvelope, magic
  /// CCDBPS03): its shape, global mean, coordinates and biases, each double
  /// bit for bit. Building a space from millions of ratings is the
  /// expensive step of the pipeline; persisting it lets a deployment build
  /// once and answer many schema expansions (and lets the benches share
  /// one build). `fs` follows the ResolveFs convention (nullptr = real
  /// filesystem).
  [[nodiscard]] Status SaveToFile(const std::string& path,
                                  Fs* fs = nullptr) const;

  /// Loads a space previously written by SaveToFile: NotFound when the
  /// file is absent, InvalidArgument when it is of another format or
  /// version, fails its CRC, or holds other than the items its header
  /// counts.
  [[nodiscard]]
  static StatusOr<PerceptualSpace> LoadFromFile(const std::string& path,
                                                Fs* fs = nullptr);

 private:
  Matrix item_coords_;
  std::vector<double> item_bias_;
  double global_mean_ = 0.0;
  double coordinate_variance_ = 0.0;
  svm::LabelPoints label_points_;
};

}  // namespace ccdb::core

#endif  // CCDB_CORE_PERCEPTUAL_SPACE_H_
