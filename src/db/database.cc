#include "db/database.h"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string_view>
#include <type_traits>
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

// The sign of (left - right): -1, 0 or 1.
template <typename T>
int Sign(const T& left, const T& right) {
  return (left > right) - (left < right);
}

// The truth a BOOL cell holds: FALSE, TRUE, or UNKNOWN for NULL. A bool b
// is the truth 2 * b, read without a branch on its value.
Truth CellTruth(const Value& cell) {
  const bool* b = std::get_if<bool>(&cell);
  return b == nullptr ? kUnknown : static_cast<Truth>(2 * *b);
}

// Readers of one side of a comparison, by row of the current chunk. A
// column's reader reads the one alternative its declared type holds
// (`Cell`); the numeric ones return false on NULL, the string ones
// nullptr.
template <typename Cell>
struct NumericCells {
  const Value* cells;
  template <typename Number>
  bool Read(std::size_t i, Number& value) const {
    const Cell* cell = std::get_if<Cell>(&cells[i]);
    value = cell == nullptr ? Number{0} : static_cast<Number>(*cell);
    return cell != nullptr;
  }
};
template <typename Number>
struct NumberConstant {
  Number number;
  bool Read(std::size_t, Number& value) const {
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
struct StringCells {
  const Value* cells;
  const Text* Read(std::size_t i) const { return std::get_if<Text>(&cells[i]); }
};
struct StringConstant {
  const Text* text;
  const Text* Read(std::size_t) const { return text; }
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
    const Text* l = left.Read(i);
    const Text* r = right.Read(i);
    if (l == nullptr || r == nullptr) {
      out[i] = kUnknown;
      continue;
    }
    const int cmp = l->view().compare(r->view());
    out[i] = outcome[(cmp > 0) - (cmp < 0) + 1];
  }
}

// A WHERE or HAVING condition bound to the columns of one schema: every
// column reference points at its cells and every comparison is
// type-checked and bound to its operands' declared types, so evaluating it
// looks up no name, probes no cell for its alternative, copies no cell and
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
  using TruthMap = std::array<Truth, 3>;
  static constexpr TruthMap kIdentity = {kFalse, kUnknown, kTrue};
  static constexpr TruthMap kNegation = {kTrue, kUnknown, kFalse};

  // One side of a comparison.
  struct Operand {
    enum class Kind { kNull, kNumber, kString, kColumn, kCondition };
    Kind kind = Kind::kNull;
    ColumnType type = ColumnType::kBool;         // kColumn
    bool is_string = false;
    bool is_int = false;                         // an integer or INT column
    double number = 0.0;                         // kNumber
    std::int64_t integer = 0;                    // kNumber, when is_int
    Text text;                                   // kString
    const std::vector<Value>* column = nullptr;  // kColumn
    std::size_t node = 0;                        // kCondition

    bool constant() const {
      return kind == Kind::kNumber || kind == Kind::kString;
    }
    // A BOOL column or a condition: its value is one of three truths.
    bool boolean() const {
      return kind == Kind::kCondition ||
             (kind == Kind::kColumn && type == ColumnType::kBool);
    }
  };

  struct Node {
    enum class Kind { kConstant, kMap, kCompare, kAnd, kOr };
    Kind kind = Kind::kConstant;
    // kMap: a row's truth is map[x], where x is the truth of the row's
    // cell of `column` (BOOL cells) or, without a column, of node a.
    const std::vector<Value>* column = nullptr;
    TruthMap map{};
    Operand left, right;                         // kCompare
    TruthMap outcome{};                          // kCompare
    std::size_t a = 0, b = 0;                    // kMap: a; kAnd, kOr: a, b
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
  std::size_t MapColumn(const std::vector<Value>* column, TruthMap map) {
    Node node;
    node.kind = Node::Kind::kMap;
    node.column = column;
    node.map = map;
    return Add(std::move(node));
  }
  // Maps the truths of node `input`, which nothing else reads, through
  // `map`. A map of a map or of a constant folds into that node, so a NOT
  // or a condition compared with a constant costs no pass of its own.
  std::size_t Map(std::size_t input, TruthMap map) {
    Node& node = nodes_[input];
    if (node.kind == Node::Kind::kMap) {
      for (Truth& truth : node.map) truth = map[truth];
      return input;
    }
    if (node.kind == Node::Kind::kConstant) {
      std::fill(node.truth.begin(), node.truth.end(), map[node.truth[0]]);
      return input;
    }
    Node mapped;
    mapped.kind = Node::Kind::kMap;
    mapped.map = map;
    mapped.a = input;
    return Add(std::move(mapped));
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
        return Map(inner.value(), kNegation);
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
        return MapColumn(column.value(), kIdentity);
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
    StatusOr<Operand> bound_left = BindOperand(*expr.left);
    if (!bound_left.ok()) return bound_left.status();
    StatusOr<Operand> bound_right = BindOperand(*expr.right);
    if (!bound_right.ok()) return bound_right.status();
    Operand& left = bound_left.value();
    Operand& right = bound_right.value();
    if (left.kind == Operand::Kind::kNull ||
        right.kind == Operand::Kind::kNull) {
      return AddConstant(kUnknown);
    }
    if (left.is_string != right.is_string) {
      return Status::InvalidArgument(
          "type mismatch: cannot compare string with non-string");
    }
    TruthMap outcome{};
    switch (expr.op) {
      case BinaryOp::kEq: outcome = {kFalse, kTrue, kFalse}; break;
      case BinaryOp::kNe: outcome = {kTrue, kFalse, kTrue}; break;
      case BinaryOp::kLt: outcome = {kTrue, kFalse, kFalse}; break;
      case BinaryOp::kLe: outcome = {kTrue, kTrue, kFalse}; break;
      case BinaryOp::kGt: outcome = {kFalse, kFalse, kTrue}; break;
      case BinaryOp::kGe: outcome = {kFalse, kTrue, kTrue}; break;
      default: return Status::Internal("unexpected operator");
    }
    // A constant goes right; swapping the sides mirrors the outcome.
    if (left.constant()) {
      std::swap(left, right);
      std::swap(outcome[0], outcome[2]);
    }
    if (left.boolean() && right.constant()) {
      // Each of the operand's three truths maps to the comparison's:
      // FALSE and TRUE compare as 0 and 1, UNKNOWN stays UNKNOWN.
      const TruthMap map = {outcome[Sign(0.0, right.number) + 1], kUnknown,
                            outcome[Sign(1.0, right.number) + 1]};
      return left.kind == Operand::Kind::kColumn ? MapColumn(left.column, map)
                                                 : Map(left.node, map);
    }
    Node node;
    node.kind = Node::Kind::kCompare;
    node.left = std::move(left);
    node.right = std::move(right);
    node.outcome = outcome;
    return Add(std::move(node));
  }

  StatusOr<Operand> BindOperand(const Expr& expr) {
    Operand operand;
    switch (expr.kind) {
      case Expr::Kind::kLiteral:
        if (IsNull(expr.literal)) return operand;
        if (const Text* s = std::get_if<Text>(&expr.literal)) {
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
        StatusOr<const std::vector<Value>*> column =
            FindColumn(expr.column, &operand.type);
        if (!column.ok()) return column.status();
        operand.kind = Operand::Kind::kColumn;
        operand.is_string = operand.type == ColumnType::kString;
        operand.is_int = operand.type == ColumnType::kInt;
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

  // Calls `visit` with a reader of `side` over the chunk at `begin`: a
  // column's reader reads the alternative of its declared type.
  template <typename Visit>
  void WithNumbers(const Operand& side, std::size_t begin,
                   Visit&& visit) const {
    switch (side.kind) {
      case Operand::Kind::kColumn: {
        const Value* cells = side.column->data() + begin;
        if (side.type == ColumnType::kBool) {
          return visit(NumericCells<bool>{cells});
        }
        if (side.type == ColumnType::kInt) {
          return visit(NumericCells<std::int64_t>{cells});
        }
        return visit(NumericCells<double>{cells});
      }
      case Operand::Kind::kCondition:
        return visit(TruthNumbers{nodes_[side.node].truth.data()});
      default:
        return visit(NumberConstant<double>{side.number});
    }
  }
  template <typename Visit>
  static void WithInts(const Operand& side, std::size_t begin,
                       Visit&& visit) {
    if (side.kind == Operand::Kind::kColumn) {
      return visit(NumericCells<std::int64_t>{side.column->data() + begin});
    }
    return visit(NumberConstant<std::int64_t>{side.integer});
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
      case Node::Kind::kMap: {
        const Truth* map = node.map.data();
        if (node.column != nullptr) {
          const Value* cells = node.column->data() + begin;
          for (std::size_t i = 0; i < n; ++i) out[i] = map[CellTruth(cells[i])];
        } else {
          const Truth* in = nodes_[node.a].truth.data();
          for (std::size_t i = 0; i < n; ++i) out[i] = map[in[i]];
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

// The key a cell sorts and groups by: a copy of the cell, or a view of a
// string's characters.
template <typename Cell>
auto KeyOf(const Cell& cell) {
  if constexpr (std::is_same_v<Cell, Text>) {
    return cell.view();
  } else {
    return cell;
  }
}

// Orders `rows`, ascending positions into `cells`, by their cells, which
// are NULL or `Cell`s: NULLs last in either direction, ties by position,
// which is the order a stable sort gives. Then keeps the first `limit`,
// with a top-k when that is fewer than all. Each row is sorted by its
// KeyOf, so a comparison reads no variant.
template <typename Cell>
void OrderRowsBy(const std::vector<Value>& cells, bool descending,
                 std::size_t limit, std::vector<std::size_t>& rows) {
  using Key = decltype(KeyOf(std::declval<const Cell&>()));
  struct Keyed {
    Key key;
    std::size_t row;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(rows.size());
  std::vector<std::size_t> nulls;
  for (std::size_t row : rows) {
    if (const Cell* cell = std::get_if<Cell>(&cells[row])) {
      keyed.push_back({KeyOf(*cell), row});
    } else {
      nulls.push_back(row);
    }
  }
  const auto before = [descending](const Keyed& a, const Keyed& b) {
    const auto order = a.key <=> b.key;
    if (order != 0) return descending ? order > 0 : order < 0;
    return a.row < b.row;
  };
  const std::size_t sorted = std::min(limit, keyed.size());
  if (sorted < keyed.size()) {
    std::partial_sort(keyed.begin(),
                      keyed.begin() + static_cast<std::ptrdiff_t>(sorted),
                      keyed.end(), before);
  } else {
    std::sort(keyed.begin(), keyed.end(), before);
  }
  rows.clear();
  for (std::size_t k = 0; k < sorted; ++k) rows.push_back(keyed[k].row);
  nulls.resize(std::min(nulls.size(), limit - sorted));
  rows.insert(rows.end(), nulls.begin(), nulls.end());
}

// OrderRowsBy over a column of `type`. Plain and aggregate results both
// order through here.
void OrderRows(const std::vector<Value>& cells, ColumnType type,
               bool descending, std::size_t limit,
               std::vector<std::size_t>& rows) {
  switch (type) {
    case ColumnType::kBool:
      return OrderRowsBy<bool>(cells, descending, limit, rows);
    case ColumnType::kInt:
      return OrderRowsBy<std::int64_t>(cells, descending, limit, rows);
    case ColumnType::kDouble:
      return OrderRowsBy<double>(cells, descending, limit, rows);
    case ColumnType::kString:
      return OrderRowsBy<Text>(cells, descending, limit, rows);
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
// A STRING cell is copied as its handle, so the result shares the source's
// characters.
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
    if (!std::holds_alternative<Text>(value)) {
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

constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

// Numbers the group of each of `rows`, whose cells are NULL or `Cell`s, in
// first-seen order, keyed by `key_of` in a hash map; appends to
// `first_rows` the row that opened each group. NULLs form one group.
template <typename Cell, typename GroupKey>
std::vector<std::size_t> HashGroups(const std::vector<Value>& cells,
                                    const std::vector<std::size_t>& rows,
                                    GroupKey key_of,
                                    std::vector<std::size_t>& first_rows) {
  using Key = std::invoke_result_t<GroupKey, const Cell&>;
  std::unordered_map<Key, std::size_t> groups;
  std::size_t null_group = kNoGroup;
  std::vector<std::size_t> group_of;
  group_of.reserve(rows.size());
  for (std::size_t row : rows) {
    const std::size_t next = first_rows.size();
    const Cell* cell = std::get_if<Cell>(&cells[row]);
    std::size_t group = null_group;
    if (cell != nullptr) {
      group = groups.try_emplace(key_of(*cell), next).first->second;
    } else if (null_group == kNoGroup) {
      group = null_group = next;
    }
    if (group == next) first_rows.push_back(row);
    group_of.push_back(group);
  }
  return group_of;
}

// Numbers each row's group in first-seen order and records the row that
// opened each group. Groups are values, not their renderings: NULLs form
// one group, strings group by content, BOOL and INT cells by exact value,
// and DOUBLE cells by numeric value, so -0.0 and 0.0 share a group and
// 1.0000001 and 1.0000002 do not. A BOOL column has at most three groups,
// FALSE, NULL and TRUE, each numbered in a slot of its own.
std::vector<std::size_t> AssignGroups(const std::vector<Value>& cells,
                                      ColumnType type,
                                      const std::vector<std::size_t>& rows,
                                      std::vector<std::size_t>& first_rows) {
  switch (type) {
    case ColumnType::kBool: {
      std::array<std::size_t, 3> slots;
      slots.fill(kNoGroup);
      std::vector<std::size_t> group_of;
      group_of.reserve(rows.size());
      for (std::size_t row : rows) {
        std::size_t& group = slots[CellTruth(cells[row])];
        if (group == kNoGroup) {
          group = first_rows.size();
          first_rows.push_back(row);
        }
        group_of.push_back(group);
      }
      return group_of;
    }
    case ColumnType::kInt:
      return HashGroups<std::int64_t>(
          cells, rows, [](std::int64_t value) { return value; }, first_rows);
    case ColumnType::kDouble:
      // Adding +0.0 turns -0.0 into +0.0, so the two share a group.
      return HashGroups<double>(
          cells, rows,
          [](double value) {
            return std::bit_cast<std::uint64_t>(value + 0.0);
          },
          first_rows);
    case ColumnType::kString:
      return HashGroups<Text>(
          cells, rows, [](const Text& value) { return value.view(); },
          first_rows);
  }
  return {};
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
    OrderRows(result[order_index], result_columns[order_index].type,
              statement.order_descending, limit, kept);
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
    OrderRows(*columns[order_index], schema.column(order_index).type,
              statement.order_descending, limit, rows);
  } else if (rows.size() > limit) {
    rows.resize(limit);
  }
  return Gather(projection, std::move(result_columns), rows);
}

}  // namespace ccdb::db
