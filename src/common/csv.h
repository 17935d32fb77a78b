#ifndef CCDB_COMMON_CSV_H_
#define CCDB_COMMON_CSV_H_

#include <charconv>
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

/// Reads a whole CSV field as a number of type T with std::from_chars: no
/// blank before or after it, no hex, and one leading '+' allowed. Returns
/// null on success, else why it failed: "malformed" when no number starts
/// the field or text is left after it, "out of range" when the value is
/// beyond T's range (for a floating type, also a non-zero value that would
/// round to zero).
template <typename T>
const char* ReadNumberField(const std::string& field, T& out) {
  const bool plus = !field.empty() && field[0] == '+';
  if (plus && field.size() > 1 && field[1] == '-') return "malformed";
  const char* first = field.data() + (plus ? 1 : 0);
  const char* last = field.data() + field.size();
  const auto [end, error] = std::from_chars(first, last, out);
  if (error == std::errc::result_out_of_range) return "out of range";
  if (error != std::errc() || end != last) return "malformed";
  return nullptr;
}

}  // namespace ccdb

#endif  // CCDB_COMMON_CSV_H_
