#include "svm/kernel_cache.h"

#include "common/check.h"

namespace ccdb::svm {

KernelRowCache::KernelRowCache(std::size_t num_rows, std::size_t row_length,
                               std::size_t budget_bytes)
    : row_length_(row_length),
      budget_bytes_(budget_bytes),
      rows_(num_rows),
      lru_pos_(num_rows) {}

std::span<const double> KernelRowCache::Row(std::size_t i,
                                            const FillRow& fill) {
  CCDB_CHECK_LT(i, rows_.size());
  std::vector<double>& slot = rows_[i];
  if (!slot.empty()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, lru_pos_[i]);  // bump to front
    return slot;
  }
  ++stats_.misses;
  const std::size_t row_bytes = row_length_ * sizeof(double);
  // Evict until the new row fits, but never the most recently returned row
  // (the LRU front): the caller may still be reading it, so the budget
  // always admits two rows.
  while (lru_.size() > 1 && bytes_in_use_ + row_bytes > budget_bytes_) {
    EvictLeastRecentlyUsed();
  }
  slot.resize(row_length_);
  bytes_in_use_ += row_bytes;
  fill(i, slot);
  lru_.push_front(i);
  lru_pos_[i] = lru_.begin();
  return slot;
}

void KernelRowCache::EvictLeastRecentlyUsed() {
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  std::vector<double>().swap(rows_[victim]);  // actually release the bytes
  bytes_in_use_ -= row_length_ * sizeof(double);
  ++stats_.evictions;
}

}  // namespace ccdb::svm
