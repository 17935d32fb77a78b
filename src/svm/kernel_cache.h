#ifndef CCDB_SVM_KERNEL_CACHE_H_
#define CCDB_SVM_KERNEL_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <span>
#include <vector>

namespace ccdb::svm {

/// Monotonic counters of a KernelRowCache (diagnostics and tests).
struct KernelCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
};

/// Byte-bounded LRU cache of kernel rows — LIBSVM's `Cache` in spirit.
///
/// The SMO Q-matrices previously memoized every touched row forever:
/// O(n²) doubles per classifier, which at database scale dwarfs the data
/// itself. This cache stores whatever rows its owner fills — signed Q rows
/// for the C-SVC (and so the TSVM retrains), raw kernel rows for the SVR,
/// which signs its 2n-length rows on the way out — and evicts
/// least-recently-used rows once the configured byte budget is exceeded.
/// It never evicts the most recently returned row to make room for the
/// next one, so the budget always admits two rows (LIBSVM's minimum) and
/// a returned span stays valid until the second-next Row() call: an SMO
/// iteration reads rows i and j in place. A budget of 0 degenerates to
/// "recompute every row but the last two". Not thread-safe — each solver
/// owns one instance, so per the lock-discipline convention (DESIGN.md
/// §13) there is no mutex here: an owner that ever shares a cache must
/// hold its own annotated lock and mark the member GUARDED_BY it.
class KernelRowCache {
 public:
  /// `num_rows` distinct row slots of `row_length` doubles each; cached
  /// payload is bounded by `budget_bytes`.
  KernelRowCache(std::size_t num_rows, std::size_t row_length,
                 std::size_t budget_bytes);

  /// Computes row `i` into the cache slot via `fill(i, out)`.
  using FillRow = std::function<void(std::size_t row, std::span<double> out)>;

  /// Returns row i, invoking `fill` only on a miss. The returned span is
  /// valid until the second-next Row() call (the next call never evicts
  /// it).
  std::span<const double> Row(std::size_t i, const FillRow& fill);

  std::size_t bytes_in_use() const { return bytes_in_use_; }
  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t cached_rows() const { return lru_.size(); }
  const KernelCacheStats& stats() const { return stats_; }

 private:
  void EvictLeastRecentlyUsed();

  std::size_t row_length_;
  std::size_t budget_bytes_;
  std::size_t bytes_in_use_ = 0;
  /// rows_[i] is empty() when row i is not cached.
  std::vector<std::vector<double>> rows_;
  /// LRU order, front = most recently used; holds indices of cached rows.
  std::list<std::size_t> lru_;
  std::vector<std::list<std::size_t>::iterator> lru_pos_;
  KernelCacheStats stats_;
};

}  // namespace ccdb::svm

#endif  // CCDB_SVM_KERNEL_CACHE_H_
