#include "db/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>

namespace ccdb::db {
namespace {

// Reads all of `text` as a base-10 number of type T: false on text left
// over (a fraction, for an integer T; a second dot, for a double), on a
// sign T cannot hold and on a value out of T's range.
template <typename T>
bool ParseNumber(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return error == std::errc() && stop == end;
}

enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,
  kSymbol,  // punctuation / operators
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;  // raw text; for kSymbol the operator spelling
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdentifier());
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && pos_ + 1 < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        tokens.push_back(LexNumber());
        continue;
      }
      if (c == '\'') {
        StatusOr<Token> token = LexString();
        if (!token.ok()) return token.status();
        tokens.push_back(std::move(token).value());
        continue;
      }
      StatusOr<Token> token = LexSymbol();
      if (!token.ok()) return token.status();
      tokens.push_back(std::move(token).value());
    }
    tokens.push_back({TokenKind::kEnd, "", pos_});
    return tokens;
  }

 private:
  Token LexIdentifier() {
    const std::size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return {TokenKind::kIdentifier, input_.substr(start, pos_ - start), start};
  }

  Token LexNumber() {
    const std::size_t start = pos_;
    if (input_[pos_] == '-') ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.')) {
      ++pos_;
    }
    return {TokenKind::kNumber, input_.substr(start, pos_ - start), start};
  }

  StatusOr<Token> LexString() {
    const std::size_t start = pos_;
    ++pos_;  // opening quote
    std::string text;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '\'') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
          text += '\'';  // '' escapes a quote
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{TokenKind::kString, text, start};
      }
      text += c;
      ++pos_;
    }
    return Status::InvalidArgument("unterminated string literal at position " +
                                   std::to_string(start));
  }

  StatusOr<Token> LexSymbol() {
    const std::size_t start = pos_;
    const char c = input_[pos_];
    // Two-character operators first.
    if (pos_ + 1 < input_.size()) {
      const std::string two = input_.substr(pos_, 2);
      if (two == "!=" || two == "<>" || two == "<=" || two == ">=") {
        pos_ += 2;
        return Token{TokenKind::kSymbol, two == "<>" ? "!=" : two, start};
      }
    }
    if (c == '=' || c == '<' || c == '>' || c == '(' || c == ')' ||
        c == ',' || c == '*') {
      ++pos_;
      return Token{TokenKind::kSymbol, std::string(1, c), start};
    }
    return Status::InvalidArgument("unexpected character '" +
                                   std::string(1, c) + "' at position " +
                                   std::to_string(start));
  }

  const std::string& input_;
  std::size_t pos_ = 0;
};

// How deep a WHERE or HAVING condition may nest. It caps two counts: the
// NOTs and parentheses open at once while parsing, where the parser
// recurses, and the NOT, AND and OR levels of the parsed tree, where the
// binder and Expr's destructor recurse (a chain of n ANDs is n levels).
// So no input can overflow the stack.
constexpr std::size_t kMaxConditionDepth = 1000;

std::string ToUpper(const std::string& text) {
  std::string upper = text;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return upper;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<SelectStatement> Parse() {
    SelectStatement statement;
    if (Status s = ExpectKeyword("SELECT"); !s.ok()) return s;

    if (PeekSymbol("*")) {
      Advance();
    } else {
      for (;;) {
        StatusOr<SelectItem> item = ParseSelectItem();
        if (!item.ok()) return item.status();
        statement.items.push_back(std::move(item).value());
        if (!PeekSymbol(",")) break;
        Advance();
      }
    }

    if (Status s = ExpectKeyword("FROM"); !s.ok()) return s;
    if (Current().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected table name");
    }
    statement.table = Current().text;
    Advance();

    if (PeekKeyword("WHERE")) {
      Advance();
      StatusOr<Condition> where = ParseOr();
      if (!where.ok()) return where.status();
      statement.where = std::move(where).value().expr;
    }

    if (PeekKeyword("GROUP")) {
      Advance();
      if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
      if (Current().kind != TokenKind::kIdentifier) {
        return ErrorHere("expected GROUP BY column");
      }
      statement.group_by_column = Current().text;
      Advance();
    }

    if (PeekKeyword("HAVING")) {
      Advance();
      StatusOr<Condition> having = ParseOr();
      if (!having.ok()) return having.status();
      statement.having = std::move(having).value().expr;
    }

    if (PeekKeyword("ORDER")) {
      Advance();
      if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
      if (Current().kind != TokenKind::kIdentifier) {
        return ErrorHere("expected ORDER BY column");
      }
      // Accept either a plain column or an aggregate spelled like an
      // output column of the select list, e.g. `ORDER BY count(*)`.
      StatusOr<SelectItem> order_item = ParseSelectItem();
      if (!order_item.ok()) return order_item.status();
      statement.order_by_column = OutputName(order_item.value());
      if (PeekKeyword("DESC")) {
        statement.order_descending = true;
        Advance();
      } else if (PeekKeyword("ASC")) {
        Advance();
      }
    }

    if (PeekKeyword("LIMIT")) {
      Advance();
      std::size_t limit = 0;
      if (Current().kind != TokenKind::kNumber ||
          !ParseNumber(Current().text, limit)) {
        return ErrorHere("expected LIMIT count");
      }
      statement.limit = limit;
      Advance();
    }

    if (Current().kind != TokenKind::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    return statement;
  }

 private:
  const Token& Current() const { return tokens_[index_]; }
  void Advance() {
    if (index_ + 1 < tokens_.size()) ++index_;
  }

  bool PeekKeyword(const char* keyword) const {
    return Current().kind == TokenKind::kIdentifier &&
           ToUpper(Current().text) == keyword;
  }
  bool PeekSymbol(const char* symbol) const {
    return Current().kind == TokenKind::kSymbol && Current().text == symbol;
  }

  Status ExpectKeyword(const char* keyword) {
    if (!PeekKeyword(keyword)) {
      return Status::InvalidArgument(std::string("expected ") + keyword +
                                     " at position " +
                                     std::to_string(Current().position));
    }
    Advance();
    return Status::Ok();
  }

  Status ErrorHere(const std::string& message) const {
    return Status::InvalidArgument(
        message + " at position " + std::to_string(Current().position));
  }

  // Canonical output-column name of a select item (matches the result
  // schema produced by the executor for aggregates).
  static std::string OutputName(const SelectItem& item) {
    if (item.kind == SelectItem::Kind::kColumn) return item.column;
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

  // column | FUNC '(' (* | column) ')'
  StatusOr<SelectItem> ParseSelectItem() {
    if (Current().kind != TokenKind::kIdentifier) {
      return ErrorHere("expected column name or aggregate");
    }
    const std::string name = Current().text;
    const std::string upper = ToUpper(name);
    Advance();
    if (!PeekSymbol("(")) {
      return SelectItem::Column(name);
    }
    AggregateFunc func;
    if (upper == "COUNT") {
      func = AggregateFunc::kCount;
    } else if (upper == "SUM") {
      func = AggregateFunc::kSum;
    } else if (upper == "AVG") {
      func = AggregateFunc::kAvg;
    } else if (upper == "MIN") {
      func = AggregateFunc::kMin;
    } else if (upper == "MAX") {
      func = AggregateFunc::kMax;
    } else {
      return ErrorHere("unknown function " + name);
    }
    Advance();  // '('
    std::string argument;
    if (PeekSymbol("*")) {
      if (func != AggregateFunc::kCount) {
        return ErrorHere("only COUNT accepts *");
      }
      Advance();
    } else if (Current().kind == TokenKind::kIdentifier) {
      argument = Current().text;
      Advance();
    } else {
      return ErrorHere("expected aggregate argument");
    }
    if (!PeekSymbol(")")) return ErrorHere("expected ')'");
    Advance();
    if (func != AggregateFunc::kCount && argument.empty()) {
      return ErrorHere("aggregate needs a column argument");
    }
    return SelectItem::Aggregate(func, std::move(argument));
  }

  // A parsed condition and its depth: NOT, AND and OR add one level to
  // their deepest operand; a comparison has depth 0.
  struct Condition {
    std::unique_ptr<Expr> expr;
    std::size_t depth = 0;
  };

  Status TooDeep() const {
    return ErrorHere("condition nested deeper than " +
                     std::to_string(kMaxConditionDepth) + " levels");
  }

  // Joins `left` and `right` under an AND or OR node.
  StatusOr<Condition> Join(BinaryOp op, Condition left, Condition right) {
    const std::size_t depth = std::max(left.depth, right.depth) + 1;
    if (depth > kMaxConditionDepth) return TooDeep();
    return Condition{
        Expr::Binary(op, std::move(left.expr), std::move(right.expr)), depth};
  }

  StatusOr<Condition> ParseOr() {
    StatusOr<Condition> left = ParseAnd();
    if (!left.ok()) return left;
    Condition condition = std::move(left).value();
    while (PeekKeyword("OR")) {
      Advance();
      StatusOr<Condition> right = ParseAnd();
      if (!right.ok()) return right;
      StatusOr<Condition> joined = Join(BinaryOp::kOr, std::move(condition),
                                        std::move(right).value());
      if (!joined.ok()) return joined;
      condition = std::move(joined).value();
    }
    return condition;
  }

  StatusOr<Condition> ParseAnd() {
    StatusOr<Condition> left = ParseUnary();
    if (!left.ok()) return left;
    Condition condition = std::move(left).value();
    while (PeekKeyword("AND")) {
      Advance();
      StatusOr<Condition> right = ParseUnary();
      if (!right.ok()) return right;
      StatusOr<Condition> joined = Join(BinaryOp::kAnd, std::move(condition),
                                        std::move(right).value());
      if (!joined.ok()) return joined;
      condition = std::move(joined).value();
    }
    return condition;
  }

  // NOT and '(' recurse, so they are counted on the way down, before the
  // operand is parsed.
  StatusOr<Condition> ParseUnary() {
    const bool is_not = PeekKeyword("NOT");
    if (!is_not && !PeekSymbol("(")) {
      StatusOr<std::unique_ptr<Expr>> comparison = ParseComparison();
      if (!comparison.ok()) return comparison.status();
      return Condition{std::move(comparison).value(), 0};
    }
    if (++nesting_ > kMaxConditionDepth) return TooDeep();
    Advance();
    StatusOr<Condition> inner = is_not ? ParseUnary() : ParseOr();
    if (!inner.ok()) return inner;
    --nesting_;
    Condition condition = std::move(inner).value();
    if (is_not) {
      condition.expr = Expr::Not(std::move(condition.expr));
      if (++condition.depth > kMaxConditionDepth) return TooDeep();
      return condition;
    }
    if (!PeekSymbol(")")) return ErrorHere("expected ')'");
    Advance();
    return condition;
  }

  StatusOr<std::unique_ptr<Expr>> ParseOperand() {
    const Token& token = Current();
    switch (token.kind) {
      case TokenKind::kIdentifier: {
        const std::string upper = ToUpper(token.text);
        if (upper == "TRUE") {
          Advance();
          return Expr::Literal(Value(true));
        }
        if (upper == "FALSE") {
          Advance();
          return Expr::Literal(Value(false));
        }
        // `count(*)`-style references (HAVING / aggregate output columns)
        // are parsed as ordinary column refs with the canonical name.
        StatusOr<SelectItem> item = ParseSelectItem();
        if (!item.ok()) return item.status();
        return Expr::Column(OutputName(item.value()));
      }
      case TokenKind::kNumber: {
        if (token.text.find('.') != std::string::npos) {
          double value = 0.0;
          if (!ParseNumber(token.text, value)) {
            return ErrorHere("malformed or out-of-range number: " +
                             token.text);
          }
          Advance();
          return Expr::Literal(Value(value));
        }
        std::int64_t value = 0;
        if (!ParseNumber(token.text, value)) {
          return ErrorHere("integer literal out of range: " + token.text);
        }
        Advance();
        return Expr::Literal(Value(value));
      }
      case TokenKind::kString: {
        Advance();
        return Expr::Literal(Value(token.text));
      }
      default:
        return ErrorHere("expected operand");
    }
  }

  StatusOr<std::unique_ptr<Expr>> ParseComparison() {
    StatusOr<std::unique_ptr<Expr>> left = ParseOperand();
    if (!left.ok()) return left;
    std::unique_ptr<Expr> expr = std::move(left).value();

    BinaryOp op;
    if (PeekSymbol("=")) {
      op = BinaryOp::kEq;
    } else if (PeekSymbol("!=")) {
      op = BinaryOp::kNe;
    } else if (PeekSymbol("<=")) {
      op = BinaryOp::kLe;
    } else if (PeekSymbol(">=")) {
      op = BinaryOp::kGe;
    } else if (PeekSymbol("<")) {
      op = BinaryOp::kLt;
    } else if (PeekSymbol(">")) {
      op = BinaryOp::kGt;
    } else {
      // Bare column in Boolean position: `WHERE is_comedy`.
      if (expr->kind == Expr::Kind::kColumn) {
        return Expr::Binary(BinaryOp::kEq, std::move(expr),
                            Expr::Literal(Value(true)));
      }
      return ErrorHere("expected comparison operator");
    }
    Advance();
    StatusOr<std::unique_ptr<Expr>> right = ParseOperand();
    if (!right.ok()) return right;
    return Expr::Binary(op, std::move(expr), std::move(right).value());
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
  std::size_t nesting_ = 0;  // NOT and '(' levels open around Current()
};

}  // namespace

std::unique_ptr<Expr> Expr::Column(std::string name) {
  auto expr = std::make_unique<Expr>();
  expr->kind = Kind::kColumn;
  expr->column = std::move(name);
  return expr;
}

std::unique_ptr<Expr> Expr::Literal(Value value) {
  auto expr = std::make_unique<Expr>();
  expr->kind = Kind::kLiteral;
  expr->literal = std::move(value);
  return expr;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> left,
                                   std::unique_ptr<Expr> right) {
  auto expr = std::make_unique<Expr>();
  expr->kind = Kind::kBinary;
  expr->op = op;
  expr->left = std::move(left);
  expr->right = std::move(right);
  return expr;
}

std::unique_ptr<Expr> Expr::Not(std::unique_ptr<Expr> operand) {
  auto expr = std::make_unique<Expr>();
  expr->kind = Kind::kNot;
  expr->left = std::move(operand);
  return expr;
}

SelectItem SelectItem::Column(std::string name) {
  SelectItem item;
  item.kind = Kind::kColumn;
  item.column = std::move(name);
  return item;
}

SelectItem SelectItem::Aggregate(AggregateFunc func, std::string column) {
  SelectItem item;
  item.kind = Kind::kAggregate;
  item.func = func;
  item.column = std::move(column);
  return item;
}

bool SelectStatement::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.kind == SelectItem::Kind::kAggregate) return true;
  }
  return false;
}

StatusOr<SelectStatement> ParseSelect(const std::string& sql) {
  Lexer lexer(sql);
  StatusOr<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace ccdb::db
