#include "db/table.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/check.h"
#include "common/table_printer.h"

namespace ccdb::db {
namespace {

/// A DOUBLE column stores doubles: an int cell bound for one is converted
/// as it is stored, so WHERE, ORDER BY and MIN/MAX all compare the one
/// value the column holds.
void StoreAs(ColumnType type, std::span<Value> cells) {
  if (type != ColumnType::kDouble) return;
  for (Value& cell : cells) {
    if (const std::int64_t* i = std::get_if<std::int64_t>(&cell)) {
      cell = static_cast<double>(*i);
    }
  }
}

}  // namespace

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    for (std::size_t j = i + 1; j < columns_.size(); ++j) {
      CCDB_CHECK_MSG(columns_[i].name != columns_[j].name,
                     "duplicate column " << columns_[i].name);
    }
  }
}

const ColumnDef& Schema::column(std::size_t index) const {
  CCDB_CHECK_LT(index, columns_.size());
  return columns_[index];
}

std::size_t Schema::FindColumn(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return kNotFound;
}

Status Schema::AddColumn(const ColumnDef& column) {
  if (FindColumn(column.name) != kNotFound) {
    return Status::InvalidArgument("column already exists: " + column.name);
  }
  columns_.push_back(column);
  return Status::Ok();
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(schema_.num_columns()) {}

Table::Table(std::string name, Schema schema,
             std::vector<std::vector<Value>> columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      num_rows_(columns_.empty() ? 0 : columns_.front().size()) {
  CCDB_CHECK_EQ(columns_.size(), schema_.num_columns());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    CCDB_CHECK_EQ(columns_[c].size(), num_rows_);
    StoreAs(schema_.column(c).type, columns_[c]);
  }
}

Status Table::AppendRow(std::vector<Value> values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (std::size_t c = 0; c < values.size(); ++c) {
    if (!Conforms(values[c], schema_.column(c).type)) {
      return Status::InvalidArgument(
          "type mismatch in column " + schema_.column(c).name + ": got " +
          ToString(values[c]));
    }
  }
  for (std::size_t c = 0; c < values.size(); ++c) {
    StoreAs(schema_.column(c).type, {&values[c], 1});
    columns_[c].push_back(std::move(values[c]));
  }
  ++num_rows_;
  return Status::Ok();
}

const Value& Table::Get(std::size_t row, std::size_t column) const {
  CCDB_CHECK_LT(row, num_rows_);
  CCDB_CHECK_LT(column, columns_.size());
  return columns_[column][row];
}

const std::vector<Value>& Table::Column(std::size_t column) const {
  CCDB_CHECK_LT(column, columns_.size());
  return columns_[column];
}

Status Table::AddColumn(const ColumnDef& column) {
  return AddColumn(column, std::vector<Value>(num_rows_));  // all NULL
}

Status Table::AddColumn(const ColumnDef& column, std::vector<Value>&& cells) {
  if (Status status = CheckCells(column.type, cells); !status.ok()) {
    return status;
  }
  if (Status status = schema_.AddColumn(column); !status.ok()) return status;
  StoreAs(column.type, cells);
  columns_.push_back(std::move(cells));
  return Status::Ok();
}

Status Table::CheckCells(ColumnType type,
                         const std::vector<Value>& cells) const {
  if (cells.size() != num_rows_) {
    return Status::InvalidArgument("column fill size mismatch");
  }
  for (const Value& value : cells) {
    if (!Conforms(value, type)) {
      return Status::InvalidArgument("type mismatch in column fill");
    }
  }
  return Status::Ok();
}

Status Table::FillColumn(std::size_t column,
                         const std::vector<Value>& values) {
  if (column >= columns_.size()) {
    return Status::OutOfRange("no such column index");
  }
  const ColumnType type = schema_.column(column).type;
  Status status = CheckCells(type, values);
  if (!status.ok()) return status;
  columns_[column] = values;
  StoreAs(type, columns_[column]);
  return status;
}

std::string Table::ToText(std::size_t max_rows) const {
  std::vector<std::string> headers;
  headers.reserve(schema_.num_columns());
  for (const ColumnDef& column : schema_.columns()) {
    headers.push_back(column.name);
  }
  TablePrinter printer(headers);
  const std::size_t rows = std::min(max_rows, num_rows_);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(schema_.num_columns());
    for (std::size_t c = 0; c < schema_.num_columns(); ++c) {
      cells.push_back(ToString(Get(r, c)));
    }
    printer.AddRow(std::move(cells));
  }
  std::ostringstream oss;
  printer.Print(oss);
  if (num_rows_ > rows) {
    oss << "… " << (num_rows_ - rows) << " more rows\n";
  }
  return oss.str();
}

}  // namespace ccdb::db
