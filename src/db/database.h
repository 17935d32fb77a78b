#ifndef CCDB_DB_DATABASE_H_
#define CCDB_DB_DATABASE_H_

#include <map>
#include <string>

#include "common/status.h"
#include "db/sql_ast.h"
#include "db/table.h"

namespace ccdb::db {

/// Hook invoked when a query references a column the table does not have.
/// This is the crowd-enabled database's query-driven schema expansion
/// point: the resolver must add the column with its cells, in one
/// Table::AddColumn(def, cells) call (from the crowd, a perceptual space,
/// or any other source), and return OK, after which query execution
/// proceeds as if the column had always existed.
class MissingAttributeResolver {
 public:
  virtual ~MissingAttributeResolver() = default;

  /// Materializes `column_name` on `table`. Return a non-OK status when
  /// the attribute cannot be provided (the query then fails).
  [[nodiscard]]
  virtual Status Resolve(Table& table, const std::string& column_name) = 0;
};

/// A minimal crowd-enabled relational database: named tables, a SELECT
/// executor, and the missing-attribute hook that turns a plain SELECT into
/// a schema expansion (the paper's
/// `SELECT * FROM movies WHERE is_comedy = true` scenario).
class Database {
 public:
  Database() = default;

  /// Registers a table; fails if the name exists.
  [[nodiscard]] Status AddTable(Table table);

  /// Look up a table (nullptr if absent). The mutable variant is used by
  /// resolvers and tests.
  const Table* FindTable(const std::string& name) const;
  Table* FindMutableTable(const std::string& name);

  /// Sets the schema-expansion resolver (not owned; may be nullptr).
  void SetResolver(MissingAttributeResolver* resolver) {
    resolver_ = resolver;
  }

  /// Parses and executes a SELECT. Missing columns referenced anywhere in
  /// the statement trigger the resolver before evaluation. Returns the
  /// result as a new (anonymous) table.
  [[nodiscard]] StatusOr<Table> Execute(const std::string& sql);

  /// Executes an already parsed statement.
  [[nodiscard]] StatusOr<Table> ExecuteSelect(const SelectStatement& statement);

 private:
  [[nodiscard]]
  Status EnsureColumns(Table& table, const SelectStatement& statement);

  std::map<std::string, Table> tables_;
  MissingAttributeResolver* resolver_ = nullptr;
};

}  // namespace ccdb::db

#endif  // CCDB_DB_DATABASE_H_
