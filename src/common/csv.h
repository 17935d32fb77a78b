#ifndef CCDB_COMMON_CSV_H_
#define CCDB_COMMON_CSV_H_

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace ccdb {

/// Minimal CSV writer used by figure benches and examples to export data
/// series (one header row, then data rows). Fields containing commas,
/// quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Writes to the given stream (not owned; must outlive the writer).
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Writes one row of fields.
  void WriteRow(const std::vector<std::string>& fields);

  /// Writes one row in which a field may be missing: a missing field is
  /// written empty and a present empty one quoted (`""`), so ParseCsvLine's
  /// `quoted` flags tell the two apart.
  void WriteNullableRow(const std::vector<std::optional<std::string>>& fields);

 private:
  static std::string Escape(const std::string& field);

  std::ostream& os_;
};

/// Parses a single CSV line into fields (handles quoting). Returns an
/// InvalidArgument Status on malformed quoting: an unterminated quote, a
/// quote inside an unquoted field, or anything but a comma or the end of
/// the line after a closing quote. When `quoted` is given, it receives one
/// flag per field: whether the field was written in quotes.
[[nodiscard]]
StatusOr<std::vector<std::string>> ParseCsvLine(
    const std::string& line, std::vector<bool>* quoted = nullptr);

}  // namespace ccdb

#endif  // CCDB_COMMON_CSV_H_
