#ifndef CCDB_DB_TABLE_H_
#define CCDB_DB_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/value.h"

namespace ccdb::db {

/// Definition of one column: name + type.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kString;
};

/// Ordered column list of a table. Column names are case-sensitive and
/// unique.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns);

  std::size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(std::size_t index) const;
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of a column by name, or npos.
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  std::size_t FindColumn(const std::string& name) const;

  /// Appends a column; fails if the name already exists.
  [[nodiscard]] Status AddColumn(const ColumnDef& column);

 private:
  std::vector<ColumnDef> columns_;
};

/// Column-store table with nullable cells. Supports the operation that
/// makes a schema *expandable*: AddColumn() on a populated table appends a
/// column at query time, either all NULL or with the resolver's cells.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);
  /// A table made of whole columns, one per schema column, all of one
  /// length (CHECKed). The cells are taken without a check: the caller
  /// guarantees each is NULL or conforms to its column's type, as the
  /// executor does when it gathers a result from typed columns. An int
  /// cell of a DOUBLE column is stored as a double, as AppendRow does.
  Table(std::string name, Schema schema,
        std::vector<std::vector<Value>> columns);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return num_rows_; }

  /// Appends a row; values must match the schema arity and types. Here
  /// and in AddColumn, FillColumn and the constructor above, an int cell
  /// of a DOUBLE column is stored as the double it converts to.
  [[nodiscard]] Status AppendRow(std::vector<Value> values);

  /// Cell accessor (CHECK on out-of-range indices).
  const Value& Get(std::size_t row, std::size_t column) const;

  /// Whole column view.
  const std::vector<Value>& Column(std::size_t column) const;

  /// Schema expansion: appends a new all-NULL column.
  [[nodiscard]] Status AddColumn(const ColumnDef& column);

  /// Schema expansion in one step: appends `cells` as the new column,
  /// taken without a copy. The name must be new, and there must be one
  /// cell per row, each NULL or of the column's type; otherwise the
  /// status is InvalidArgument and the table is unchanged.
  [[nodiscard]]
  Status AddColumn(const ColumnDef& column, std::vector<Value>&& cells);

  /// Bulk-fills an existing column with a copy of per-row values (sizes
  /// and types must match).
  [[nodiscard]]
  Status FillColumn(std::size_t column, const std::vector<Value>& values);

  /// Renders the first `max_rows` rows as an aligned text table.
  std::string ToText(std::size_t max_rows = 20) const;

 private:
  /// OK when `cells` holds one value per row, each NULL or of `type`.
  [[nodiscard]] Status CheckCells(ColumnType type,
                                  const std::vector<Value>& cells) const;

  std::string name_;
  Schema schema_;
  std::vector<std::vector<Value>> columns_;  // column-major storage
  std::size_t num_rows_ = 0;
};

}  // namespace ccdb::db

#endif  // CCDB_DB_TABLE_H_
