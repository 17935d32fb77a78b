#include "db/database.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/check.h"
#include "db/sql_parser.h"

namespace ccdb::db {
namespace {

// Collects every column name referenced by an expression tree.
void CollectColumns(const Expr* expr, std::vector<std::string>& out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) out.push_back(expr->column);
  CollectColumns(expr->left.get(), out);
  CollectColumns(expr->right.get(), out);
}

// ---- Binding and evaluation ------------------------------------------------

// Kleene truth values, ordered so that AND is min, OR is max and NOT is
// kTrue - x.
enum Truth : std::uint8_t { kFalse = 0, kUnknown = 1, kTrue = 2 };

// A condition is evaluated this many rows at a time: each node's truth
// values for one chunk stay in L1, and a scan can stop after the chunk
// that completes a LIMIT.
constexpr std::size_t kChunkRows = 1024;

// The cells of each column of the schema a condition is bound against.
using Columns = std::vector<const std::vector<Value>*>;

// Readers of one side of a comparison, by row of the current chunk. The
// numeric ones return false on NULL; the string ones return nullptr.
struct NumberCells {
  const Value* cells;
  bool Read(std::size_t i, double& value) const {
    const Value& cell = cells[i];
    if (const double* d = std::get_if<double>(&cell)) {
      value = *d;
    } else if (const std::int64_t* n = std::get_if<std::int64_t>(&cell)) {
      value = static_cast<double>(*n);
    } else if (const bool* b = std::get_if<bool>(&cell)) {
      value = *b ? 1.0 : 0.0;
    } else {
      value = 0.0;
      return false;
    }
    return true;
  }
};
struct NumberConstant {
  double number;
  bool Read(std::size_t, double& value) const {
    value = number;
    return true;
  }
};
// A condition used as a value: UNKNOWN is NULL, TRUE and FALSE are 1 and 0.
struct TruthNumbers {
  const Truth* truth;
  bool Read(std::size_t i, double& value) const {
    value = truth[i] == kTrue ? 1.0 : 0.0;
    return truth[i] != kUnknown;
  }
};
// INT operands: the cells of an INT column (int64 or NULL), or an integer
// literal.
struct IntCells {
  const Value* cells;
  bool Read(std::size_t i, std::int64_t& value) const {
    const std::int64_t* n = std::get_if<std::int64_t>(&cells[i]);
    value = n == nullptr ? 0 : *n;
    return n != nullptr;
  }
};
struct IntConstant {
  std::int64_t number;
  bool Read(std::size_t, std::int64_t& value) const {
    value = number;
    return true;
  }
};
struct StringCells {
  const Value* cells;
  const std::string* Read(std::size_t i) const {
    return std::get_if<std::string>(&cells[i]);
  }
};
struct StringConstant {
  const std::string* text;
  const std::string* Read(std::size_t) const { return text; }
};

// `outcome` maps the sign of (left - right), plus one, to the comparison's
// truth; a NULL side makes it UNKNOWN. Numbers compare as `Number`: two INT
// operands as int64, so exactly, any other pair as doubles, as
// CompareNonNull does.
template <typename Number, typename Left, typename Right>
void CompareNumbers(Left left, Right right, const Truth* outcome,
                    std::size_t n, Truth* out) {
  for (std::size_t i = 0; i < n; ++i) {
    Number l = 0;
    Number r = 0;
    const bool known = left.Read(i, l) & right.Read(i, r);
    out[i] = known ? outcome[(l > r) - (l < r) + 1] : kUnknown;
  }
}

template <typename Left, typename Right>
void CompareStrings(Left left, Right right, const Truth* outcome,
                    std::size_t n, Truth* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* l = left.Read(i);
    const std::string* r = right.Read(i);
    if (l == nullptr || r == nullptr) {
      out[i] = kUnknown;
      continue;
    }
    const int cmp = l->compare(*r);
    out[i] = outcome[(cmp > 0) - (cmp < 0) + 1];
  }
}

// A WHERE or HAVING condition bound to the columns of one schema: every
// column reference points at its cells and every comparison is
// type-checked, so evaluating it looks up no name, copies no cell and
// cannot fail. The errors a row-at-a-time walk raised on the first row
// that reached them are raised by Bind, whether or not a row reaches them.
class BoundCondition {
 public:
  [[nodiscard]] static StatusOr<BoundCondition> Bind(const Expr& expr,
                                                     const Schema& schema,
                                                     const Columns& columns) {
    BoundCondition condition(schema, columns);
    StatusOr<std::size_t> root = condition.BindCondition(expr);
    if (!root.ok()) return root.status();
    return condition;
  }

  // Appends the rows in [0, num_rows) for which the condition is TRUE, in
  // order, and stops after the chunk in which `rows` reaches `stop_at`.
  void Select(std::size_t num_rows, std::size_t stop_at,
              std::vector<std::size_t>& rows) {
    for (std::size_t begin = 0; begin < num_rows && rows.size() < stop_at;
         begin += kChunkRows) {
      const std::size_t end = std::min(num_rows, begin + kChunkRows);
      // Children precede their parents in nodes_, and the root is last.
      for (Node& node : nodes_) Evaluate(node, begin, end);
      const Truth* truth = nodes_.back().truth.data();
      std::size_t kept = rows.size();
      rows.resize(kept + (end - begin));
      for (std::size_t row = begin; row < end; ++row) {
        rows[kept] = row;
        kept += truth[row - begin] == kTrue;
      }
      rows.resize(kept);
    }
  }

 private:
  // One side of a comparison.
  struct Operand {
    enum class Kind { kNull, kNumber, kString, kColumn, kCondition };
    Kind kind = Kind::kNull;
    bool is_string = false;
    bool is_int = false;                         // an integer or INT column
    double number = 0.0;                         // kNumber
    std::int64_t integer = 0;                    // kNumber, when is_int
    std::string text;                            // kString
    const std::vector<Value>* column = nullptr;  // kColumn
    std::size_t node = 0;                        // kCondition
  };

  struct Node {
    enum class Kind { kConstant, kColumn, kCompare, kNot, kAnd, kOr };
    Kind kind = Kind::kConstant;
    const std::vector<Value>* column = nullptr;  // kColumn: BOOL cells
    Operand left, right;                         // kCompare
    std::array<Truth, 3> outcome{};              // kCompare
    std::size_t a = 0, b = 0;                    // kNot: a; kAnd, kOr: a, b
    std::vector<Truth> truth = std::vector<Truth>(kChunkRows);
  };

  BoundCondition(const Schema& schema, const Columns& columns)
      : schema_(&schema), columns_(&columns) {}

  std::size_t Add(Node node) {
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
  }
  std::size_t AddConstant(Truth truth) {
    Node node;
    std::fill(node.truth.begin(), node.truth.end(), truth);
    return Add(std::move(node));
  }

  StatusOr<const std::vector<Value>*> FindColumn(const std::string& name,
                                                 ColumnType* type) const {
    const std::size_t index = schema_->FindColumn(name);
    if (index == Schema::kNotFound) {
      return Status::NotFound("no such column: " + name);
    }
    *type = schema_->column(index).type;
    return (*columns_)[index];
  }

  // Binds `expr` in a Boolean position; returns its node.
  StatusOr<std::size_t> BindCondition(const Expr& expr) {
    const auto non_boolean = [] {
      return Status::InvalidArgument("non-Boolean value used as a condition");
    };
    switch (expr.kind) {
      case Expr::Kind::kNot: {
        StatusOr<std::size_t> inner = BindCondition(*expr.left);
        if (!inner.ok()) return inner;
        Node node;
        node.kind = Node::Kind::kNot;
        node.a = inner.value();
        return Add(std::move(node));
      }
      case Expr::Kind::kBinary: {
        if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
          StatusOr<std::size_t> left = BindCondition(*expr.left);
          if (!left.ok()) return left;
          StatusOr<std::size_t> right = BindCondition(*expr.right);
          if (!right.ok()) return right;
          Node node;
          node.kind = expr.op == BinaryOp::kAnd ? Node::Kind::kAnd
                                                : Node::Kind::kOr;
          node.a = left.value();
          node.b = right.value();
          return Add(std::move(node));
        }
        return BindComparison(expr);
      }
      case Expr::Kind::kColumn: {
        ColumnType type = ColumnType::kBool;
        StatusOr<const std::vector<Value>*> column =
            FindColumn(expr.column, &type);
        if (!column.ok()) return column.status();
        if (type != ColumnType::kBool) return non_boolean();
        Node node;
        node.kind = Node::Kind::kColumn;
        node.column = column.value();
        return Add(std::move(node));
      }
      case Expr::Kind::kLiteral: {
        if (IsNull(expr.literal)) return AddConstant(kUnknown);
        const bool* b = std::get_if<bool>(&expr.literal);
        if (b == nullptr) return non_boolean();
        return AddConstant(*b ? kTrue : kFalse);
      }
    }
    return Status::Internal("unreachable");
  }

  StatusOr<std::size_t> BindComparison(const Expr& expr) {
    StatusOr<Operand> left = BindOperand(*expr.left);
    if (!left.ok()) return left.status();
    StatusOr<Operand> right = BindOperand(*expr.right);
    if (!right.ok()) return right.status();
    if (left.value().kind == Operand::Kind::kNull ||
        right.value().kind == Operand::Kind::kNull) {
      return AddConstant(kUnknown);
    }
    if (left.value().is_string != right.value().is_string) {
      return Status::InvalidArgument(
          "type mismatch: cannot compare string with non-string");
    }
    Node node;
    node.kind = Node::Kind::kCompare;
    node.left = std::move(left).value();
    node.right = std::move(right).value();
    switch (expr.op) {
      case BinaryOp::kEq: node.outcome = {kFalse, kTrue, kFalse}; break;
      case BinaryOp::kNe: node.outcome = {kTrue, kFalse, kTrue}; break;
      case BinaryOp::kLt: node.outcome = {kTrue, kFalse, kFalse}; break;
      case BinaryOp::kLe: node.outcome = {kTrue, kTrue, kFalse}; break;
      case BinaryOp::kGt: node.outcome = {kFalse, kFalse, kTrue}; break;
      case BinaryOp::kGe: node.outcome = {kFalse, kTrue, kTrue}; break;
      default: return Status::Internal("unexpected operator");
    }
    return Add(std::move(node));
  }

  StatusOr<Operand> BindOperand(const Expr& expr) {
    Operand operand;
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        if (IsNull(expr.literal)) return operand;
        if (const std::string* s = std::get_if<std::string>(&expr.literal)) {
          operand.kind = Operand::Kind::kString;
          operand.is_string = true;
          operand.text = *s;
        } else {
          operand.kind = Operand::Kind::kNumber;
          operand.number = AsNumeric(expr.literal);
          const auto* integer = std::get_if<std::int64_t>(&expr.literal);
          if (integer != nullptr) {
            operand.is_int = true;
            operand.integer = *integer;
          }
        }
        return operand;
      case Expr::Kind::kColumn: {
        ColumnType type = ColumnType::kBool;
        StatusOr<const std::vector<Value>*> column =
            FindColumn(expr.column, &type);
        if (!column.ok()) return column.status();
        operand.kind = Operand::Kind::kColumn;
        operand.is_string = type == ColumnType::kString;
        operand.is_int = type == ColumnType::kInt;
        operand.column = column.value();
        return operand;
      }
      default: {
        StatusOr<std::size_t> node = BindCondition(expr);
        if (!node.ok()) return node.status();
        operand.kind = Operand::Kind::kCondition;
        operand.node = node.value();
        return operand;
      }
    }
  }

  // Calls `visit` with a reader of `side` over the chunk at `begin`.
  template <typename Visit>
  void WithNumbers(const Operand& side, std::size_t begin,
                   Visit&& visit) const {
    switch (side.kind) {
      case Operand::Kind::kColumn:
        return visit(NumberCells{side.column->data() + begin});
      case Operand::Kind::kCondition:
        return visit(TruthNumbers{nodes_[side.node].truth.data()});
      default:
        return visit(NumberConstant{side.number});
    }
  }
  template <typename Visit>
  static void WithInts(const Operand& side, std::size_t begin,
                       Visit&& visit) {
    if (side.kind == Operand::Kind::kColumn) {
      return visit(IntCells{side.column->data() + begin});
    }
    return visit(IntConstant{side.integer});
  }
  template <typename Visit>
  static void WithStrings(const Operand& side, std::size_t begin,
                          Visit&& visit) {
    if (side.kind == Operand::Kind::kColumn) {
      return visit(StringCells{side.column->data() + begin});
    }
    return visit(StringConstant{&side.text});
  }

  // Fills node.truth for the rows [begin, end).
  void Evaluate(Node& node, std::size_t begin, std::size_t end) {
    const std::size_t n = end - begin;
    Truth* out = node.truth.data();
    switch (node.kind) {
      case Node::Kind::kConstant:
        return;  // filled by AddConstant
      case Node::Kind::kColumn: {
        const Value* cells = node.column->data() + begin;
        for (std::size_t i = 0; i < n; ++i) {
          const bool* b = std::get_if<bool>(&cells[i]);
          out[i] = b == nullptr ? kUnknown : *b ? kTrue : kFalse;
        }
        return;
      }
      case Node::Kind::kNot: {
        const Truth* in = nodes_[node.a].truth.data();
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = static_cast<Truth>(kTrue - in[i]);
        }
        return;
      }
      case Node::Kind::kAnd:
      case Node::Kind::kOr: {
        const Truth* l = nodes_[node.a].truth.data();
        const Truth* r = nodes_[node.b].truth.data();
        if (node.kind == Node::Kind::kAnd) {
          for (std::size_t i = 0; i < n; ++i) out[i] = std::min(l[i], r[i]);
        } else {
          for (std::size_t i = 0; i < n; ++i) out[i] = std::max(l[i], r[i]);
        }
        return;
      }
      case Node::Kind::kCompare: {
        const Truth* outcome = node.outcome.data();
        if (node.left.is_string) {
          WithStrings(node.left, begin, [&](auto l) {
            WithStrings(node.right, begin, [&](auto r) {
              CompareStrings(l, r, outcome, n, out);
            });
          });
        } else if (node.left.is_int && node.right.is_int) {
          WithInts(node.left, begin, [&](auto l) {
            WithInts(node.right, begin, [&](auto r) {
              CompareNumbers<std::int64_t>(l, r, outcome, n, out);
            });
          });
        } else {
          WithNumbers(node.left, begin, [&](auto l) {
            WithNumbers(node.right, begin, [&](auto r) {
              CompareNumbers<double>(l, r, outcome, n, out);
            });
          });
        }
        return;
      }
    }
  }

  const Schema* schema_;
  const Columns* columns_;
  std::vector<Node> nodes_;
};

// The rows of a table of `num_rows` rows that `where` (if any) keeps, in
// order; the scan stops once it has `stop_at` of them.
std::vector<std::size_t> SelectRows(std::optional<BoundCondition>& where,
                                    std::size_t num_rows,
                                    std::size_t stop_at) {
  std::vector<std::size_t> rows;
  if (!where.has_value()) {
    rows.resize(std::min(num_rows, stop_at));
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  } else {
    where->Select(num_rows, stop_at, rows);
  }
  return rows;
}

// Orders `rows`, ascending positions into `cells`, by their cells: NULLs
// last in either direction, ties by position, which is the order a stable
// sort gives. Then keeps the first `limit`, with a top-k when that is
// fewer than all. Plain and aggregate results both order through here.
void OrderRows(const std::vector<Value>& cells, bool descending,
               std::size_t limit, std::vector<std::size_t>& rows) {
  const auto before = [&](std::size_t a, std::size_t b) {
    const Value& va = cells[a];
    const Value& vb = cells[b];
    const bool a_null = IsNull(va);
    const bool b_null = IsNull(vb);
    if (a_null || b_null) return a_null == b_null ? a < b : b_null;
    const int cmp = CompareNonNull(va, vb);
    if (cmp != 0) return descending ? cmp > 0 : cmp < 0;
    return a < b;
  };
  if (limit < rows.size()) {
    std::partial_sort(rows.begin(),
                      rows.begin() + static_cast<std::ptrdiff_t>(limit),
                      rows.end(), before);
    rows.resize(limit);
  } else {
    std::sort(rows.begin(), rows.end(), before);
  }
}

// The output columns of a select list must have distinct names.
Status CheckDistinct(const std::vector<ColumnDef>& columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (columns[i].name == columns[j].name) {
        return Status::InvalidArgument("duplicate column in select list: " +
                                       columns[i].name);
      }
    }
  }
  return Status::Ok();
}

// The result table: the cells of `rows` of each source, column by column.
Table Gather(const Columns& sources, std::vector<ColumnDef> schema,
             const std::vector<std::size_t>& rows) {
  std::vector<std::vector<Value>> columns(sources.size());
  for (std::size_t c = 0; c < sources.size(); ++c) {
    const std::vector<Value>& cells = *sources[c];
    columns[c].reserve(rows.size());
    for (std::size_t row : rows) columns[c].push_back(cells[row]);
  }
  return Table("result", Schema(std::move(schema)), std::move(columns));
}

// Running state of one aggregate within one group.
struct AggregateState {
  std::size_t count = 0;   // non-NULL inputs seen
  double sum = 0.0;
  Value min;
  Value max;

  void Accumulate(const Value& value) {
    if (IsNull(value)) return;
    ++count;
    if (!std::holds_alternative<std::string>(value)) {
      sum += AsNumeric(value);
    }
    if (IsNull(min) || CompareNonNull(value, min) < 0) min = value;
    if (IsNull(max) || CompareNonNull(value, max) > 0) max = value;
  }

  Value Finalize(AggregateFunc func) const {
    switch (func) {
      case AggregateFunc::kCount:
        return Value(static_cast<std::int64_t>(count));
      case AggregateFunc::kSum:
        return count == 0 ? Value{} : Value(sum);
      case AggregateFunc::kAvg:
        return count == 0 ? Value{}
                          : Value(sum / static_cast<double>(count));
      case AggregateFunc::kMin:
        return min;
      case AggregateFunc::kMax:
        return max;
    }
    return Value{};
  }
};

std::string AggregateName(const SelectItem& item) {
  const char* func = "count";
  switch (item.func) {
    case AggregateFunc::kCount: func = "count"; break;
    case AggregateFunc::kSum: func = "sum"; break;
    case AggregateFunc::kAvg: func = "avg"; break;
    case AggregateFunc::kMin: func = "min"; break;
    case AggregateFunc::kMax: func = "max"; break;
  }
  return std::string(func) + "(" +
         (item.column.empty() ? "*" : item.column) + ")";
}

ColumnType AggregateType(const SelectItem& item, const Table& table) {
  switch (item.func) {
    case AggregateFunc::kCount:
      return ColumnType::kInt;
    case AggregateFunc::kSum:
    case AggregateFunc::kAvg:
      return ColumnType::kDouble;
    case AggregateFunc::kMin:
    case AggregateFunc::kMax: {
      const std::size_t index = table.schema().FindColumn(item.column);
      CCDB_CHECK_NE(index, Schema::kNotFound);
      return table.schema().column(index).type;
    }
  }
  return ColumnType::kDouble;
}

// Numbers each row's group in first-seen order and records the row that
// opened each group. Groups are values, not their renderings: NULLs form
// one group, strings group by content, BOOL and INT cells by exact value,
// and DOUBLE cells by numeric value, so -0.0 and 0.0 share a group and
// 1.0000001 and 1.0000002 do not.
std::vector<std::size_t> AssignGroups(const std::vector<Value>& cells,
                                      ColumnType type,
                                      const std::vector<std::size_t>& rows,
                                      std::vector<std::size_t>& first_rows) {
  std::vector<std::size_t> group_of;
  group_of.reserve(rows.size());
  std::optional<std::size_t> null_group;
  std::unordered_map<std::uint64_t, std::size_t> numbers;
  std::unordered_map<std::string_view, std::size_t> strings;
  for (std::size_t row : rows) {
    const Value& cell = cells[row];
    const std::size_t next = first_rows.size();
    std::size_t group = next;
    if (IsNull(cell)) {
      group = null_group.value_or(next);
      null_group = group;
    } else if (const std::string* s = std::get_if<std::string>(&cell)) {
      group = strings.try_emplace(*s, next).first->second;
    } else if (type == ColumnType::kDouble) {
      // Adding +0.0 turns -0.0 into +0.0, so the two share a group.
      const double value = AsNumeric(cell) + 0.0;
      group = numbers.try_emplace(std::bit_cast<std::uint64_t>(value), next)
                  .first->second;
    } else {
      const bool* b = std::get_if<bool>(&cell);
      const std::int64_t exact =
          b != nullptr ? *b : std::get<std::int64_t>(cell);
      group = numbers.try_emplace(static_cast<std::uint64_t>(exact), next)
                  .first->second;
    }
    if (group == next) first_rows.push_back(row);
    group_of.push_back(group);
  }
  return group_of;
}

StatusOr<Table> ExecuteAggregates(
    const Table& table, const SelectStatement& statement,
    std::optional<BoundCondition>& where) {
  const bool grouped = !statement.group_by_column.empty();
  std::size_t group_column = Schema::kNotFound;
  if (grouped) {
    group_column = table.schema().FindColumn(statement.group_by_column);
    CCDB_CHECK_NE(group_column, Schema::kNotFound);
  }

  // Validate the select list: plain columns must be the GROUP BY column;
  // aggregate arguments (and SUM/AVG numeric-ness) must resolve.
  for (const SelectItem& item : statement.items) {
    if (item.kind == SelectItem::Kind::kColumn) {
      if (!grouped || item.column != statement.group_by_column) {
        return Status::InvalidArgument(
            "non-aggregate column " + item.column +
            " must appear in GROUP BY");
      }
      continue;
    }
    if (item.column.empty()) continue;  // COUNT(*)
    const std::size_t index = table.schema().FindColumn(item.column);
    if (index == Schema::kNotFound) {
      return Status::NotFound("no such column: " + item.column);
    }
    const ColumnType type = table.schema().column(index).type;
    if ((item.func == AggregateFunc::kSum ||
         item.func == AggregateFunc::kAvg) &&
        type == ColumnType::kString) {
      return Status::InvalidArgument("SUM/AVG need a numeric column");
    }
  }

  // Bind the aggregate output: HAVING and ORDER BY refer to its columns
  // by name, e.g. "count(*)".
  std::vector<ColumnDef> result_columns;
  for (const SelectItem& item : statement.items) {
    if (item.kind == SelectItem::Kind::kColumn) {
      result_columns.push_back(table.schema().column(group_column));
    } else {
      result_columns.push_back(
          {AggregateName(item), AggregateType(item, table)});
    }
  }
  if (Status status = CheckDistinct(result_columns); !status.ok()) {
    return status;
  }
  const Schema result_schema(result_columns);
  std::vector<std::vector<Value>> result(result_columns.size());
  Columns result_cells;
  for (const std::vector<Value>& column : result) {
    result_cells.push_back(&column);
  }
  std::optional<BoundCondition> having;
  if (statement.having != nullptr) {
    StatusOr<BoundCondition> bound =
        BoundCondition::Bind(*statement.having, result_schema, result_cells);
    if (!bound.ok()) return bound.status();
    having.emplace(std::move(bound).value());
  }
  std::size_t order_index = Schema::kNotFound;
  if (!statement.order_by_column.empty()) {
    order_index = result_schema.FindColumn(statement.order_by_column);
    if (order_index == Schema::kNotFound) {
      return Status::InvalidArgument(
          "ORDER BY column must appear in the aggregate select list");
    }
  }

  // Filter, then number each row's group in first-seen order.
  const std::vector<std::size_t> rows = SelectRows(
      where, table.num_rows(), std::numeric_limits<std::size_t>::max());
  // Without GROUP BY every row is in group 0, which exists even over no
  // rows.
  std::vector<std::size_t> group_of(rows.size(), 0);
  std::vector<std::size_t> first_rows;
  if (grouped) {
    group_of = AssignGroups(table.Column(group_column),
                            table.schema().column(group_column).type, rows,
                            first_rows);
  }
  const std::size_t num_groups = grouped ? first_rows.size() : 1;

  // Aggregate, one output column at a time.
  for (std::size_t i = 0; i < statement.items.size(); ++i) {
    const SelectItem& item = statement.items[i];
    std::vector<Value>& out = result[i];
    out.reserve(num_groups);
    if (item.kind == SelectItem::Kind::kColumn) {
      const std::vector<Value>& keys = table.Column(group_column);
      for (std::size_t row : first_rows) out.push_back(keys[row]);
      continue;
    }
    std::vector<AggregateState> states(num_groups);
    if (item.column.empty()) {  // COUNT(*)
      for (std::size_t group : group_of) ++states[group].count;
    } else {
      const std::vector<Value>& cells =
          table.Column(table.schema().FindColumn(item.column));
      for (std::size_t k = 0; k < rows.size(); ++k) {
        states[group_of[k]].Accumulate(cells[rows[k]]);
      }
    }
    for (const AggregateState& state : states) {
      out.push_back(state.Finalize(item.func));
    }
  }

  // HAVING, ORDER BY and LIMIT over the groups.
  std::vector<std::size_t> kept =
      SelectRows(having, num_groups, std::numeric_limits<std::size_t>::max());
  const std::size_t limit =
      statement.limit.value_or(std::numeric_limits<std::size_t>::max());
  if (order_index != Schema::kNotFound) {
    OrderRows(result[order_index], statement.order_descending, limit, kept);
  } else if (kept.size() > limit) {
    kept.resize(limit);
  }
  return Gather(result_cells, std::move(result_columns), kept);
}

}  // namespace

Status Database::AddTable(Table table) {
  const std::string name = table.name();
  if (tables_.contains(name)) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  tables_.emplace(name, std::move(table));
  return Status::Ok();
}

const Table* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::FindMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

StatusOr<Table> Database::Execute(const std::string& sql) {
  StatusOr<SelectStatement> statement = ParseSelect(sql);
  if (!statement.ok()) return statement.status();
  return ExecuteSelect(statement.value());
}

Status Database::EnsureColumns(Table& table,
                               const SelectStatement& statement) {
  std::vector<std::string> referenced;
  for (const SelectItem& item : statement.items) {
    if (!item.column.empty()) referenced.push_back(item.column);
  }
  CollectColumns(statement.where.get(), referenced);
  if (!statement.group_by_column.empty()) {
    referenced.push_back(statement.group_by_column);
  }
  // With aggregates, ORDER BY refers to an *output* column (possibly an
  // aggregate like "count(*)"), not a table column.
  if (!statement.order_by_column.empty() && !statement.HasAggregates()) {
    referenced.push_back(statement.order_by_column);
  }
  for (const std::string& column : referenced) {
    if (table.schema().FindColumn(column) != Schema::kNotFound) continue;
    if (resolver_ == nullptr) {
      return Status::NotFound("no such column: " + column +
                              " (and no schema-expansion resolver is set)");
    }
    // Query-driven schema expansion: materialize the column now.
    const Status status = resolver_->Resolve(table, column);
    if (!status.ok()) return status;
    if (table.schema().FindColumn(column) == Schema::kNotFound) {
      return Status::Internal("resolver did not materialize column " +
                              column);
    }
  }
  return Status::Ok();
}

StatusOr<Table> Database::ExecuteSelect(const SelectStatement& statement) {
  Table* table = FindMutableTable(statement.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + statement.table);
  }
  if (Status status = EnsureColumns(*table, statement); !status.ok()) {
    return status;
  }

  // Bind.
  const Schema& schema = table->schema();
  Columns columns;
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    columns.push_back(&table->Column(c));
  }
  std::optional<BoundCondition> where;
  if (statement.where != nullptr) {
    StatusOr<BoundCondition> bound =
        BoundCondition::Bind(*statement.where, schema, columns);
    if (!bound.ok()) return bound.status();
    where.emplace(std::move(bound).value());
  }
  if (statement.HasAggregates()) {
    return ExecuteAggregates(*table, statement, where);
  }
  if (statement.having != nullptr) {
    return Status::InvalidArgument("HAVING requires aggregates");
  }
  Columns projection;
  std::vector<ColumnDef> result_columns;
  if (statement.items.empty()) {
    projection = columns;
    result_columns = schema.columns();
  } else {
    for (const SelectItem& item : statement.items) {
      const std::size_t index = schema.FindColumn(item.column);
      CCDB_CHECK_NE(index, Schema::kNotFound);
      projection.push_back(columns[index]);
      result_columns.push_back(schema.column(index));
    }
  }
  if (Status status = CheckDistinct(result_columns); !status.ok()) {
    return status;
  }

  // Filter, order and limit. Without ORDER BY the scan stops once it has
  // the rows a LIMIT returns.
  const std::size_t limit =
      statement.limit.value_or(std::numeric_limits<std::size_t>::max());
  const bool ordered = !statement.order_by_column.empty();
  std::vector<std::size_t> rows = SelectRows(
      where, table->num_rows(),
      ordered ? std::numeric_limits<std::size_t>::max() : limit);
  if (ordered) {
    const std::size_t order_index =
        schema.FindColumn(statement.order_by_column);
    CCDB_CHECK_NE(order_index, Schema::kNotFound);
    OrderRows(*columns[order_index], statement.order_descending, limit, rows);
  } else if (rows.size() > limit) {
    rows.resize(limit);
  }
  return Gather(projection, std::move(result_columns), rows);
}

}  // namespace ccdb::db
