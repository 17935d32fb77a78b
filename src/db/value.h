#ifndef CCDB_DB_VALUE_H_
#define CCDB_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace ccdb::db {

/// Column data types of the crowd-enabled database.
enum class ColumnType {
  kBool,
  kInt,
  kDouble,
  kString,
};

/// A nullable cell value. std::monostate is NULL — the state a perceptual
/// column starts in before crowd/space expansion fills it.
using Value = std::variant<std::monostate, bool, std::int64_t, double,
                           std::string>;

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
