#include "common/csv.h"

namespace ccdb {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << Escape(fields[i]);
  }
  os_ << '\n';
}

void CsvWriter::WriteNullableRow(
    const std::vector<std::optional<std::string>>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os_ << ',';
    if (!fields[i].has_value()) continue;
    os_ << (fields[i]->empty() ? "\"\"" : Escape(*fields[i]));
  }
  os_ << '\n';
}

std::string CsvWriter::Escape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

StatusOr<std::vector<std::string>> ParseCsvLine(const std::string& line,
                                                std::vector<bool>* quoted) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool current_quoted = false;
  if (quoted != nullptr) quoted->clear();
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          // A closing quote ends the field: what follows is the next
          // separator or the end of the line.
          in_quotes = false;
          if (i + 1 < line.size() && line[i + 1] != ',') {
            return Status::InvalidArgument("text after closing quote");
          }
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument("quote inside unquoted field");
      }
      in_quotes = true;
      current_quoted = true;
    } else if (c == ',') {
      fields.push_back(current);
      current.clear();
      if (quoted != nullptr) quoted->push_back(current_quoted);
      current_quoted = false;
    } else {
      current += c;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  fields.push_back(current);
  if (quoted != nullptr) quoted->push_back(current_quoted);
  return fields;
}

}  // namespace ccdb
