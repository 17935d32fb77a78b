#ifndef CCDB_SVM_KERNEL_CACHE_H_
#define CCDB_SVM_KERNEL_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <vector>

namespace ccdb::svm {

/// The kernel rows of one SMO solve under a byte budget — LIBSVM's `Cache`
/// in spirit, and the one place that decides how they are held.
///
/// The cache stores whatever matrix its owner fills — signed Q rows for
/// the C-SVC (and so the TSVM retrains), raw kernel rows for the SVR,
/// which signs its 2n-length rows on the way out. When the whole matrix
/// fits the budget, the first Row() call fills all of it at once through
/// `fill_matrix` (the tiled Gram fill, EvalKernelGram) and every row is a
/// view into it. Otherwise rows are filled one at a time through
/// `fill_row` and the least-recently-used ones are evicted once the budget
/// is exceeded: O(budget) memory instead of O(n²). That path never evicts
/// the most recently returned row to make room for the next one, so the
/// budget always admits two rows (LIBSVM's minimum), and a budget of 0
/// degenerates to "recompute every row but the last two". Either way a
/// returned span stays valid until the second-next Row() call: an SMO
/// iteration reads rows i and j in place. Not thread-safe — each solver
/// owns one instance, so per the lock-discipline convention (DESIGN.md
/// §13) there is no mutex here: an owner that ever shares a cache must
/// hold its own annotated lock and mark the member GUARDED_BY it.
class KernelRowCache {
 public:
  /// Computes row `row` into `out` (row_length entries).
  using FillRow = std::function<void(std::size_t row, std::span<double> out)>;
  /// Computes the whole matrix into `out`, row-major
  /// (num_rows × row_length entries).
  using FillMatrix = std::function<void(std::span<double> out)>;

  /// `num_rows` rows of `row_length` doubles each; cached payload is
  /// bounded by `budget_bytes`, and the whole matrix is held when
  /// num_rows·row_length·8 bytes fit it.
  KernelRowCache(std::size_t num_rows, std::size_t row_length,
                 std::size_t budget_bytes, FillRow fill_row,
                 FillMatrix fill_matrix);

  /// Returns row i, filling it (or the whole matrix) only on a miss. The
  /// returned span is valid until the second-next Row() call.
  std::span<const double> Row(std::size_t i);

  std::size_t bytes_in_use() const { return bytes_in_use_; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t cached_rows() const;

 private:
  void EvictLeastRecentlyUsed();

  std::size_t num_rows_;
  std::size_t row_length_;
  std::size_t budget_bytes_;
  bool whole_matrix_;
  FillRow fill_row_;
  FillMatrix fill_matrix_;
  std::size_t bytes_in_use_ = 0;
  /// The whole matrix, allocated by the first Row() call, when it fits.
  std::unique_ptr<double[]> matrix_;
  /// LRU path: rows_[i] is empty() when row i is not cached.
  std::vector<std::vector<double>> rows_;
  /// LRU order, front = most recently used; holds indices of cached rows.
  std::list<std::size_t> lru_;
  std::vector<std::list<std::size_t>::iterator> lru_pos_;
};

}  // namespace ccdb::svm

#endif  // CCDB_SVM_KERNEL_CACHE_H_
