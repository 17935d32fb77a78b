#include "eval/neighbors.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace ccdb::eval {
namespace {

/// Candidate rows per SquaredDistanceToRows sweep: a block's distances
/// (8 KiB single-query, 32 KiB quad) stay cache-resident while the heap
/// consumes them.
constexpr std::size_t kScanBlockRows = 1024;

/// Queries per shared scan group (must match the quad kernel width).
constexpr std::size_t kQueryGroup = 4;

bool ByDistance(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance;
}

/// Offers one candidate (by *squared* distance) to a bounded max-heap.
void PushCandidate(std::vector<Neighbor>& heap, std::size_t k,
                   std::size_t index, double dist_sq) {
  if (heap.size() < k) {
    heap.push_back({index, dist_sq});
    std::push_heap(heap.begin(), heap.end(), ByDistance);
  } else if (!heap.empty() && dist_sq < heap.front().distance) {
    std::pop_heap(heap.begin(), heap.end(), ByDistance);
    heap.back() = {index, dist_sq};
    std::push_heap(heap.begin(), heap.end(), ByDistance);
  }
}

/// Orders a squared-distance heap and roots the final k survivors — the
/// square root is monotone, so it can wait until here.
std::vector<Neighbor> FinishHeap(std::vector<Neighbor> heap) {
  std::sort_heap(heap.begin(), heap.end(), ByDistance);
  for (Neighbor& neighbor : heap) {
    neighbor.distance = std::sqrt(neighbor.distance);
  }
  return heap;
}

/// Scans all rows for exactly four queries at once: every candidate row is
/// loaded once and serves all four heaps. The quad kernel reproduces the
/// single-query summation order, so each result list is bit-identical to a
/// KNearestNeighbors call for that query.
std::array<std::vector<Neighbor>, 4> KnnQuadScan(
    const Matrix& points, const std::array<std::size_t, 4>& queries,
    std::size_t k) {
  const std::size_t cols = points.cols();
  std::vector<double> interleaved(4 * cols);
  InterleaveQuad(points.Row(queries[0]), points.Row(queries[1]),
                 points.Row(queries[2]), points.Row(queries[3]),
                 interleaved);
  std::array<std::vector<Neighbor>, 4> heaps;
  for (auto& heap : heaps) heap.reserve(k + 1);
  std::vector<double> dist_sq(4 * std::min(kScanBlockRows, points.rows()));
  for (std::size_t block_start = 0; block_start < points.rows();
       block_start += kScanBlockRows) {
    const std::size_t block_rows =
        std::min(kScanBlockRows, points.rows() - block_start);
    SquaredDistanceToRowsQuad(
        {points.Data().data() + block_start * cols, block_rows * cols},
        block_rows, cols, interleaved, {dist_sq.data(), block_rows * 4});
    for (std::size_t r = 0; r < block_rows; ++r) {
      const std::size_t i = block_start + r;
      for (std::size_t q = 0; q < 4; ++q) {
        if (i == queries[q]) continue;
        PushCandidate(heaps[q], k, i, dist_sq[r * 4 + q]);
      }
    }
  }
  std::array<std::vector<Neighbor>, 4> results;
  for (std::size_t q = 0; q < 4; ++q) {
    results[q] = FinishHeap(std::move(heaps[q]));
  }
  return results;
}

}  // namespace

std::vector<Neighbor> KNearestNeighbors(const Matrix& points,
                                        std::size_t query, std::size_t k) {
  CCDB_CHECK_LT(query, points.rows());
  const auto query_row = points.Row(query);
  const std::size_t cols = points.cols();
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  std::vector<double> dist_sq(std::min(kScanBlockRows, points.rows()));
  for (std::size_t block_start = 0; block_start < points.rows();
       block_start += kScanBlockRows) {
    const std::size_t block_rows =
        std::min(kScanBlockRows, points.rows() - block_start);
    SquaredDistanceToRows(
        {points.Data().data() + block_start * cols, block_rows * cols},
        block_rows, cols, query_row, {dist_sq.data(), block_rows});
    for (std::size_t r = 0; r < block_rows; ++r) {
      const std::size_t i = block_start + r;
      if (i == query) continue;
      PushCandidate(heap, k, i, dist_sq[r]);
    }
  }
  return FinishHeap(std::move(heap));
}

std::vector<std::vector<Neighbor>> KNearestNeighborsBatch(
    const Matrix& points, const std::vector<std::size_t>& queries,
    std::size_t k) {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::size_t q = 0;
  for (; q + kQueryGroup <= queries.size(); q += kQueryGroup) {
    auto group = KnnQuadScan(
        points, {queries[q], queries[q + 1], queries[q + 2], queries[q + 3]},
        k);
    for (std::size_t g = 0; g < kQueryGroup; ++g) {
      results[q + g] = std::move(group[g]);
    }
  }
  // Sub-four tail: the single-query scan produces identical values.
  for (; q < queries.size(); ++q) {
    results[q] = KNearestNeighbors(points, queries[q], k);
  }
  return results;
}

double NeighborLabelCoherence(
    const Matrix& points, const std::vector<std::vector<bool>>& item_labels,
    const std::vector<std::size_t>& queries, std::size_t k) {
  CCDB_CHECK_EQ(points.rows(), item_labels.size());
  if (queries.empty() || k == 0) return 0.0;
  std::atomic<std::size_t> matched{0};
  std::atomic<std::size_t> counted{0};
  const auto count_query = [&](std::size_t query,
                               const std::vector<Neighbor>& neighbors) {
    const auto& query_labels = item_labels[query];
    std::size_t local_matched = 0;
    for (const Neighbor& n : neighbors) {
      const auto& labels = item_labels[n.index];
      bool shared = false;
      const std::size_t num_labels =
          std::min(labels.size(), query_labels.size());
      for (std::size_t l = 0; l < num_labels && !shared; ++l) {
        shared = labels[l] && query_labels[l];
      }
      local_matched += shared ? 1 : 0;
    }
    matched.fetch_add(local_matched, std::memory_order_relaxed);
    counted.fetch_add(neighbors.size(), std::memory_order_relaxed);
  };
  // One task = one quad group of queries sharing a scan (tail groups fall
  // back to single-query scans — identical values either way).
  const std::size_t num_groups =
      (queries.size() + kQueryGroup - 1) / kQueryGroup;
  const auto scan_group = [&](std::size_t group) {
    const std::size_t lo = group * kQueryGroup;
    if (lo + kQueryGroup <= queries.size()) {
      const auto neighbor_lists = KnnQuadScan(
          points,
          {queries[lo], queries[lo + 1], queries[lo + 2], queries[lo + 3]},
          k);
      for (std::size_t g = 0; g < kQueryGroup; ++g) {
        count_query(queries[lo + g], neighbor_lists[g]);
      }
    } else {
      for (std::size_t q = lo; q < queries.size(); ++q) {
        count_query(queries[q], KNearestNeighbors(points, queries[q], k));
      }
    }
  };

  ThreadPool& pool = SharedThreadPool();
  const std::size_t flops =
      queries.size() * points.rows() * std::max<std::size_t>(points.cols(), 1);
  if (pool.num_threads() > 1 && num_groups > 1 &&
      flops >= kParallelCoherenceFlops) {
    pool.ParallelFor(0, num_groups, scan_group);
  } else {
    for (std::size_t group = 0; group < num_groups; ++group) scan_group(group);
  }
  const std::size_t total = counted.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  return static_cast<double>(matched.load(std::memory_order_relaxed)) /
         static_cast<double>(total);
}

}  // namespace ccdb::eval
