#include "svm/kernel_cache.h"

#include <utility>

#include "common/check.h"

namespace ccdb::svm {

KernelRowCache::KernelRowCache(std::size_t num_rows, std::size_t row_length,
                               std::size_t budget_bytes, FillRow fill_row,
                               FillMatrix fill_matrix)
    : num_rows_(num_rows),
      row_length_(row_length),
      budget_bytes_(budget_bytes),
      whole_matrix_(num_rows * row_length * sizeof(double) <= budget_bytes),
      fill_row_(std::move(fill_row)),
      fill_matrix_(std::move(fill_matrix)) {
  if (!whole_matrix_) {
    rows_.resize(num_rows);
    lru_pos_.resize(num_rows);
  }
}

std::span<const double> KernelRowCache::Row(std::size_t i) {
  CCDB_CHECK_LT(i, num_rows_);
  if (whole_matrix_) {
    const std::size_t size = num_rows_ * row_length_;
    if (matrix_ == nullptr) {
      // Uninitialized on purpose: the fill writes every entry.
      matrix_ = std::make_unique_for_overwrite<double[]>(size);
      bytes_in_use_ = size * sizeof(double);
      fill_matrix_(std::span<double>(matrix_.get(), size));
    }
    return {matrix_.get() + i * row_length_, row_length_};
  }
  std::vector<double>& slot = rows_[i];
  if (!slot.empty()) {
    lru_.splice(lru_.begin(), lru_, lru_pos_[i]);  // bump to front
    return slot;
  }
  const std::size_t row_bytes = row_length_ * sizeof(double);
  // Evict until the new row fits, but never the most recently returned row
  // (the LRU front): the caller may still be reading it, so the budget
  // always admits two rows.
  while (lru_.size() > 1 && bytes_in_use_ + row_bytes > budget_bytes_) {
    EvictLeastRecentlyUsed();
  }
  slot.resize(row_length_);
  bytes_in_use_ += row_bytes;
  fill_row_(i, slot);
  lru_.push_front(i);
  lru_pos_[i] = lru_.begin();
  return slot;
}

std::size_t KernelRowCache::cached_rows() const {
  if (whole_matrix_) return matrix_ == nullptr ? 0 : num_rows_;
  return lru_.size();
}

void KernelRowCache::EvictLeastRecentlyUsed() {
  const std::size_t victim = lru_.back();
  lru_.pop_back();
  std::vector<double>().swap(rows_[victim]);  // actually release the bytes
  bytes_in_use_ -= row_length_ * sizeof(double);
}

}  // namespace ccdb::svm
