#ifndef CCDB_DB_SQL_PARSER_H_
#define CCDB_DB_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "db/sql_ast.h"

namespace ccdb::db {

/// Parses the query-driven-schema-expansion subset of SQL:
///
///   SELECT (\* | item [, item]...) FROM ident
///     [WHERE or_expr]
///     [GROUP BY col]
///     [HAVING or_expr]
///     [ORDER BY item [ASC|DESC]]
///     [LIMIT n]
///
///   item     := col | (COUNT | SUM | AVG | MIN | MAX) '(' (* | col) ')'
///
///   or_expr  := and_expr (OR and_expr)*
///   and_expr := unary (AND unary)*
///   unary    := NOT unary | '(' or_expr ')' | comparison | column
///   comparison := operand (= | != | <> | < | <= | > | >=) operand
///   operand  := column | number | 'string' | TRUE | FALSE
///
/// A bare column in a Boolean position (e.g. `WHERE is_comedy`) is
/// shorthand for `column = TRUE`. Keywords are case-insensitive;
/// identifiers are case-sensitive. A condition nests at most 1,000 levels
/// deep: at most 1,000 NOTs and parentheses open at once, and at most
/// 1,000 NOT, AND and OR levels in its tree. Returns InvalidArgument with
/// a position-annotated message on syntax errors and on deeper nesting.
[[nodiscard]] StatusOr<SelectStatement> ParseSelect(const std::string& sql);

}  // namespace ccdb::db

#endif  // CCDB_DB_SQL_PARSER_H_
