#ifndef CCDB_DB_TABLE_IO_H_
#define CCDB_DB_TABLE_IO_H_

#include <string>

#include "common/io.h"
#include "common/status.h"
#include "db/table.h"

namespace ccdb::db {

/// Persists a table as CSV with a typed header row
/// (`name:STRING,year:INT,...`). NULL cells are written as empty fields
/// and an empty string as `""`; string cells are RFC-4180 quoted when
/// needed, and doubles written in the shortest form that reads back as
/// the same double. A string cell holding a line break is
/// InvalidArgument, and nothing is written. An expanded schema —
/// including the crowd/space-materialized perceptual columns — survives
/// the round trip, so an expansion paid for once can be shipped.
[[nodiscard]] Status SaveTableCsv(const Table& table, const std::string& path,
                                  Fs* fs = nullptr);

/// Loads a table written by SaveTableCsv. `table_name` names the result.
[[nodiscard]] StatusOr<Table> LoadTableCsv(const std::string& path,
                             const std::string& table_name,
                             Fs* fs = nullptr);

}  // namespace ccdb::db

#endif  // CCDB_DB_TABLE_IO_H_
