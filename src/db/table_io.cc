#include "db/table_io.h"

#include <charconv>
#include <optional>
#include <sstream>

#include "common/csv.h"

namespace ccdb::db {
namespace {

/// Hard cap on one CSV line. A corrupt (or adversarial) file whose "line"
/// is the rest of a multi-gigabyte blob fails cleanly instead of
/// ballooning memory inside std::getline.
constexpr std::size_t kMaxLineBytes = 1 << 20;

const char* TypeTag(ColumnType type) { return ColumnTypeName(type); }

StatusOr<ColumnType> ParseTypeTag(const std::string& tag) {
  if (tag == "BOOL") return ColumnType::kBool;
  if (tag == "INT") return ColumnType::kInt;
  if (tag == "DOUBLE") return ColumnType::kDouble;
  if (tag == "STRING") return ColumnType::kString;
  return Status::InvalidArgument("unknown column type tag: " + tag);
}

// The field a cell is saved as: none for NULL, a double in its shortest
// form that reads back as the same double, anything else as ToString
// renders it.
std::optional<std::string> CellField(const Value& value) {
  if (IsNull(value)) return std::nullopt;
  if (const double* d = std::get_if<double>(&value)) {
    char text[32];
    char* end = std::to_chars(text, text + sizeof text, *d).ptr;
    return std::string(text, end);
  }
  return ToString(value);
}

// An unquoted empty field is NULL; a quoted one is the empty string.
StatusOr<Value> ParseCell(const std::string& field, bool quoted,
                          ColumnType type) {
  if (field.empty() && !quoted) return Value{};  // NULL
  switch (type) {
    case ColumnType::kBool:
      if (field == "true") return Value(true);
      if (field == "false") return Value(false);
      return Status::InvalidArgument("bad bool cell: " + field);
    case ColumnType::kInt: {
      std::int64_t parsed = 0;
      if (const char* error = ReadNumberField(field, parsed)) {
        return Status::InvalidArgument(std::string("int cell ") + error +
                                       ": " + field);
      }
      return Value(parsed);
    }
    case ColumnType::kDouble: {
      double parsed = 0.0;
      if (const char* error = ReadNumberField(field, parsed)) {
        return Status::InvalidArgument(std::string("double cell ") + error +
                                       ": " + field);
      }
      return Value(parsed);
    }
    case ColumnType::kString:
      return Value(field);
  }
  return Status::Internal("unreachable");
}

}  // namespace

Status SaveTableCsv(const Table& table, const std::string& path, Fs* fs) {
  // Serialize in memory, then hand the bytes to the Fs layer in one write:
  // fault injection and atomic replacement live below this seam.
  std::ostringstream out;
  CsvWriter csv(out);

  std::vector<std::string> header;
  header.reserve(table.schema().num_columns());
  for (const ColumnDef& column : table.schema().columns()) {
    header.push_back(column.name + ":" + TypeTag(column.type));
  }
  csv.WriteRow(header);

  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    std::vector<std::optional<std::string>> cells;
    cells.reserve(table.schema().num_columns());
    for (std::size_t column = 0; column < table.schema().num_columns();
         ++column) {
      const Value& value = table.Get(row, column);
      const Text* text = std::get_if<Text>(&value);
      if (text != nullptr && text->view().find('\n') != std::string::npos) {
        // LoadTableCsv reads one record per line.
        return Status::InvalidArgument(
            "cannot save a string cell holding a line break (row " +
            std::to_string(row) + ", column " +
            table.schema().column(column).name + ")");
      }
      cells.push_back(CellField(value));
    }
    csv.WriteNullableRow(cells);
  }
  return ResolveFs(fs).WriteFile(path, out.str());
}

StatusOr<Table> LoadTableCsv(const std::string& path,
                             const std::string& table_name, Fs* fs) {
  StatusOr<std::string> bytes = ResolveFs(fs).ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  std::istringstream in(std::move(bytes).value());

  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(path + ": missing header");
  }
  if (line.size() > kMaxLineBytes) {
    return Status::InvalidArgument(path + ": oversized header line");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  StatusOr<std::vector<std::string>> header = ParseCsvLine(line);
  if (!header.ok()) return header.status();

  std::vector<ColumnDef> columns;
  for (const std::string& field : header.value()) {
    const std::size_t colon = field.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(path + ": header field without type: " +
                                     field);
    }
    StatusOr<ColumnType> type = ParseTypeTag(field.substr(colon + 1));
    if (!type.ok()) return type.status();
    columns.push_back({field.substr(0, colon), type.value()});
  }

  Table table(table_name, Schema(columns));
  std::size_t line_number = 1;
  std::vector<bool> quoted;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.size() > kMaxLineBytes) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": oversized line");
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    StatusOr<std::vector<std::string>> fields = ParseCsvLine(line, &quoted);
    if (!fields.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) + ": " +
                                     fields.status().message());
    }
    if (fields.value().size() != columns.size()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": arity mismatch");
    }
    std::vector<Value> values;
    values.reserve(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      StatusOr<Value> value =
          ParseCell(fields.value()[c], quoted[c], columns[c].type);
      if (!value.ok()) return value.status();
      values.push_back(std::move(value).value());
    }
    if (Status status = table.AppendRow(std::move(values)); !status.ok()) {
      return status;
    }
  }
  return table;
}

}  // namespace ccdb::db
