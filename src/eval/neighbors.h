#ifndef CCDB_EVAL_NEIGHBORS_H_
#define CCDB_EVAL_NEIGHBORS_H_

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace ccdb::eval {

/// A neighbor hit: row index plus Euclidean distance from the query row.
struct Neighbor {
  std::size_t index = 0;
  double distance = 0.0;
};

/// Returns the k nearest rows of `points` to row `query` (excluding the
/// query itself), ordered by ascending Euclidean distance. Used for the
/// Table 2 demonstration and the Sec. 4.2 space-quality probe.
///
/// The scan is blocked: squared distances to a block of candidate rows are
/// computed in one vectorized SquaredDistanceToRows pass, the bounded
/// max-heap operates on squared distances (monotone in the true distance),
/// and the square root is taken only for the final k results.
std::vector<Neighbor> KNearestNeighbors(const Matrix& points,
                                        std::size_t query, std::size_t k);

/// kNN for many queries in one pass: queries are processed in groups of
/// four that share every candidate-row load (one SquaredDistanceToRowsQuad
/// sweep per block), cutting the matrix traffic ~4× versus per-query
/// scans. result[i] is the kNN list of queries[i], bit-identical to
/// KNearestNeighbors(points, queries[i], k).
std::vector<std::vector<Neighbor>> KNearestNeighborsBatch(
    const Matrix& points, const std::vector<std::size_t>& queries,
    std::size_t k);

/// Fraction of each item's k nearest neighbors that share at least one
/// ground-truth label with the item, averaged over `queries`. Labels are
/// given as per-item bitsets (outer index = item, inner = label id).
/// Measures whether the space is perceptually coherent (Table 2's point).
/// Queries are scanned in quad groups (see KNearestNeighborsBatch) and the
/// groups are parallelized on the shared thread pool when the scan reaches
/// kParallelCoherenceFlops; the result is independent of the thread count
/// (per-query counts are integers, so the aggregation is exact in any
/// order).
double NeighborLabelCoherence(
    const Matrix& points, const std::vector<std::vector<bool>>& item_labels,
    const std::vector<std::size_t>& queries, std::size_t k);

/// Work (queries × rows × dims) from which NeighborLabelCoherence fans out
/// on the shared thread pool.
inline constexpr std::size_t kParallelCoherenceFlops = std::size_t{1} << 21;

}  // namespace ccdb::eval

#endif  // CCDB_EVAL_NEIGHBORS_H_
