#include "db/value.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <type_traits>

#include "common/check.h"

namespace ccdb::db {

Text::Text(std::string_view text) {
  if (text.empty()) return;  // '' is the null handle
  CCDB_CHECK_LE(text.size(), std::numeric_limits<std::uint32_t>::max());
  char* memory =
      static_cast<char*>(::operator new(sizeof(Block) + text.size()));
  block_ = ::new (memory) Block{{1}, static_cast<std::uint32_t>(text.size())};
  std::memcpy(memory + sizeof(Block), text.data(), text.size());
}

void Text::Free(Block* block) {
  block->~Block();
  ::operator delete(block);
}

std::string ToString(const Value& value) {
  if (IsNull(value)) return "NULL";
  if (const bool* b = std::get_if<bool>(&value)) return *b ? "true" : "false";
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&value)) {
    std::ostringstream oss;
    oss << *d;
    return oss.str();
  }
  return std::get<Text>(value).str();
}

ColumnType TypeOf(const Value& value) {
  CCDB_CHECK(!IsNull(value));
  if (std::holds_alternative<bool>(value)) return ColumnType::kBool;
  if (std::holds_alternative<std::int64_t>(value)) return ColumnType::kInt;
  if (std::holds_alternative<double>(value)) return ColumnType::kDouble;
  return ColumnType::kString;
}

bool Conforms(const Value& value, ColumnType type) {
  // One dispatch on the alternative; only a double cell pays for the
  // finiteness test.
  return std::visit(
      [type](const auto& cell) {
        using Cell = std::decay_t<decltype(cell)>;
        if constexpr (std::is_same_v<Cell, std::monostate>) {
          return true;  // NULL fits every column
        } else if constexpr (std::is_same_v<Cell, bool>) {
          return type == ColumnType::kBool;
        } else if constexpr (std::is_same_v<Cell, std::int64_t>) {
          // Ints are storable in double columns (numeric literals parse as
          // either).
          return type == ColumnType::kInt || type == ColumnType::kDouble;
        } else if constexpr (std::is_same_v<Cell, double>) {
          // NaN and ±inf are not values a DOUBLE column holds: NaN would
          // break the strict weak order ORDER BY sorts with.
          return type == ColumnType::kDouble && std::isfinite(cell);
        } else {
          return type == ColumnType::kString;
        }
      },
      value);
}

double AsNumeric(const Value& value) {
  CCDB_CHECK(!IsNull(value));
  if (const bool* b = std::get_if<bool>(&value)) return *b ? 1.0 : 0.0;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) {
    return static_cast<double>(*i);
  }
  if (const double* d = std::get_if<double>(&value)) return *d;
  CCDB_CHECK_MSG(false, "string value used in numeric context");
  return 0.0;
}

int CompareNonNull(const Value& left, const Value& right) {
  CCDB_CHECK(!IsNull(left));
  CCDB_CHECK(!IsNull(right));
  const Text* left_text = std::get_if<Text>(&left);
  const Text* right_text = std::get_if<Text>(&right);
  CCDB_CHECK_MSG((left_text == nullptr) == (right_text == nullptr),
                 "cannot compare string with non-string");
  if (left_text != nullptr) {
    const int cmp = left_text->view().compare(right_text->view());
    return (cmp > 0) - (cmp < 0);
  }
  const std::int64_t* left_int = std::get_if<std::int64_t>(&left);
  const std::int64_t* right_int = std::get_if<std::int64_t>(&right);
  if (left_int != nullptr && right_int != nullptr) {
    return (*left_int > *right_int) - (*left_int < *right_int);
  }
  const double l = AsNumeric(left);
  const double r = AsNumeric(right);
  if (l < r) return -1;
  if (l > r) return 1;
  return 0;
}

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kBool: return "BOOL";
    case ColumnType::kInt: return "INT";
    case ColumnType::kDouble: return "DOUBLE";
    case ColumnType::kString: return "STRING";
  }
  return "UNKNOWN";
}

}  // namespace ccdb::db
