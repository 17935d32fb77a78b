#ifndef CCDB_DB_VALUE_H_
#define CCDB_DB_VALUE_H_

#include <atomic>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ccdb::db {

/// Column data types of the crowd-enabled database.
enum class ColumnType {
  kBool,
  kInt,
  kDouble,
  kString,
};

/// A STRING value: an 8-byte handle to an immutable, reference-counted
/// block of characters. Copying a Text copies the pointer and counts one
/// more owner, so a copied cell allocates nothing and shares the source's
/// characters; the last owner frees the block. Handles of one block may be
/// copied and dropped from any number of threads at once. The empty string
/// is the null handle and owns no block; it is still a value, distinct
/// from NULL (Value's std::monostate). Texts compare and order by content.
/// A Text holds fewer than 2^32 characters (CHECKed).
class Text {
 public:
  Text() = default;
  // Implicit, so that a cell is built from any string:
  // Value(std::string("abc")) holds a Text.
  Text(std::string_view text);  // NOLINT: implicit by design
  Text(const std::string& text)  // NOLINT: implicit by design
      : Text(std::string_view(text)) {}
  Text(const char* text)  // NOLINT: implicit by design
      : Text(std::string_view(text)) {}
  Text(const Text& other) noexcept : block_(other.block_) {
    // A new owner needs no ordering: the block is already visible to the
    // thread that holds `other`.
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Text(Text&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  Text& operator=(Text other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~Text() {
    // acq_rel: every owner's reads of the characters happen before the
    // last owner frees them.
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(block_);
    }
  }

  std::string_view view() const {
    return block_ == nullptr ? std::string_view()
                             : std::string_view(block_->chars(), block_->size);
  }
  std::string str() const { return std::string(view()); }

  friend bool operator==(const Text& a, const Text& b) {
    return a.view() == b.view();
  }
  friend std::strong_ordering operator<=>(const Text& a, const Text& b) {
    return a.view() <=> b.view();
  }

 private:
  // The header of a block; its `size` characters follow it. A 32-bit
  // count cannot overflow: 2^32 owners would be 64 GiB of 16-byte cells.
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    const char* chars() const {
      return reinterpret_cast<const char*>(this + 1);
    }
  };
  static void Free(Block* block);

  Block* block_ = nullptr;
};

/// A nullable cell value. std::monostate is NULL — the state a perceptual
/// column starts in before crowd/space expansion fills it. A cell is 16
/// bytes: one 8-byte alternative and the index.
using Value = std::variant<std::monostate, bool, std::int64_t, double, Text>;
static_assert(sizeof(Value) == 16);

/// True when the value is NULL.
inline bool IsNull(const Value& value) {
  return std::holds_alternative<std::monostate>(value);
}

/// Human-readable rendering ("NULL", "true", "3.14", "abc").
std::string ToString(const Value& value);

/// The ColumnType a non-null value carries; CHECK-fails on NULL.
ColumnType TypeOf(const Value& value);

/// Whether `value` is NULL or matches `type`: an int also fits a DOUBLE
/// column (which stores it as a double), and a double must be finite.
/// Every way cells enter a table (AppendRow, AddColumn, FillColumn,
/// LoadTableCsv) checks this.
bool Conforms(const Value& value, ColumnType type);

/// Numeric view for comparisons: bool → 0/1, int → double. CHECK-fails on
/// NULL or string.
double AsNumeric(const Value& value);

/// Sign of (left − right) as -1/0/+1 for two non-NULL values (NULL
/// CHECK-fails). Strings compare lexicographically and only against strings
/// (mismatched types CHECK-fail; the planner validates types before
/// execution). Two ints compare exactly; any other numeric pair compares
/// as doubles (AsNumeric).
int CompareNonNull(const Value& left, const Value& right);

const char* ColumnTypeName(ColumnType type);

}  // namespace ccdb::db

#endif  // CCDB_DB_VALUE_H_
