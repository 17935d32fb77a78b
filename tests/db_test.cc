#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/thread_pool.h"
#include "db/database.h"
#include "db/sql_parser.h"
#include "db/table.h"
#include "db/table_io.h"
#include "db/value.h"

namespace ccdb::db {
namespace {

// ---------------------------------------------------------------- value

TEST(ValueTest, NullHandling) {
  Value null;
  EXPECT_TRUE(IsNull(null));
  EXPECT_EQ(ToString(null), "NULL");
  EXPECT_FALSE(IsNull(Value(true)));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(ToString(Value(true)), "true");
  EXPECT_EQ(ToString(Value(static_cast<std::int64_t>(42))), "42");
  EXPECT_EQ(ToString(Value(std::string("abc"))), "abc");
}

TEST(ValueTest, Conformance) {
  EXPECT_TRUE(Conforms(Value(true), ColumnType::kBool));
  EXPECT_FALSE(Conforms(Value(true), ColumnType::kInt));
  EXPECT_TRUE(Conforms(Value(static_cast<std::int64_t>(1)),
                       ColumnType::kDouble));  // int widens to double
  EXPECT_TRUE(Conforms(Value{}, ColumnType::kString));  // NULL fits anywhere
}

TEST(ValueTest, Comparison) {
  EXPECT_EQ(CompareNonNull(Value(1.0), Value(2.0)), -1);
  EXPECT_EQ(CompareNonNull(Value(static_cast<std::int64_t>(3)),
                           Value(3.0)), 0);
  EXPECT_EQ(CompareNonNull(Value(std::string("b")),
                           Value(std::string("a"))), 1);
  EXPECT_EQ(CompareNonNull(Value(true), Value(false)), 1);
  // Two ints compare exactly, also where their doubles are equal.
  EXPECT_EQ(CompareNonNull(Value(std::int64_t{9007199254740992}),
                           Value(std::int64_t{9007199254740993})),
            -1);
}

// ---------------------------------------------------------------- text

// The characters a STRING cell points at.
const char* CharsOf(const Value& cell) {
  return std::get<Text>(cell).view().data();
}

TEST(TextTest, CellsBuiltFromStringsHoldText) {
  static_assert(sizeof(Value) == 16);
  for (const Value& cell : {Value("abc"), Value(std::string("abc")),
                            Value(std::string_view("abc"))}) {
    ASSERT_TRUE(std::holds_alternative<Text>(cell));
    EXPECT_EQ(std::get<Text>(cell).view(), "abc");
    EXPECT_EQ(std::get<Text>(cell).str(), "abc");
  }
  EXPECT_TRUE(std::holds_alternative<Text>(Value("")));
  EXPECT_FALSE(IsNull(Value("")));
}

TEST(TextTest, ComparesAndOrdersByContent) {
  const Text a(std::string("abc"));
  const Text b("abc");
  EXPECT_NE(a.view().data(), b.view().data());  // two blocks
  EXPECT_EQ(a, b);
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
  EXPECT_LT(Text("ab"), a);
  EXPECT_LT(Text("B"), Text("a"));  // bytewise, as std::string orders
  EXPECT_GT(Text("abd"), a);
  EXPECT_EQ(Text(), Text(""));
  EXPECT_LT(Text(), Text("a"));
  EXPECT_EQ(CompareNonNull(Value(a), Value(b)), 0);

  // A copy shares the characters; the last owner to go frees them.
  auto owner = std::make_unique<Text>("shared");
  const Text copy = *owner;
  EXPECT_EQ(copy.view().data(), owner->view().data());
  owner.reset();
  EXPECT_EQ(copy.view(), "shared");
}

TEST(TextTest, CopiesAndDropsFromManyThreadsAreRaceFree) {
  constexpr std::size_t kRows = 10000;
  constexpr std::size_t kThreads = 4;
  auto source = std::make_unique<Table>(
      "names", Schema({{"name", ColumnType::kString}}));
  std::size_t characters = 0;
  for (std::size_t row = 0; row < kRows; ++row) {
    const std::string name = "name " + std::to_string(row);
    characters += name.size();
    ASSERT_TRUE(source->AppendRow({Value(name)}).ok());
  }
  // Each thread copies and drops the table's 10,000 handles 100 times, and
  // keeps one last copy.
  ThreadPool pool(kThreads);
  std::vector<Table> kept(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      for (int round = 0; round < 100; ++round) {
        const Table copy = *source;
        EXPECT_EQ(CharsOf(copy.Get(kRows - 1, 0)),
                  CharsOf(source->Get(kRows - 1, 0)));
      }
      kept[t] = *source;
    });
  }
  pool.Wait();
  // Then the kept copies own every block; each thread reads its copy's
  // characters and drops it, and whichever drops a block last frees it.
  source.reset();
  std::atomic<std::size_t> read{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      std::size_t seen = 0;
      for (std::size_t row = 0; row < kRows; ++row) {
        seen += std::get<Text>(kept[t].Get(row, 0)).view().size();
      }
      read += seen;
      kept[t] = Table();
    });
  }
  pool.Wait();
  EXPECT_EQ(read.load(), kThreads * characters);
}

// ---------------------------------------------------------------- table

Table MakeMoviesTable() {
  Schema schema({{"name", ColumnType::kString},
                 {"year", ColumnType::kInt},
                 {"rating", ColumnType::kDouble}});
  Table table("movies", schema);
  EXPECT_TRUE(table.AppendRow({Value(std::string("Rocky")),
                               Value(static_cast<std::int64_t>(1976)),
                               Value(8.1)})
                  .ok());
  EXPECT_TRUE(table.AppendRow({Value(std::string("Psycho")),
                               Value(static_cast<std::int64_t>(1960)),
                               Value(8.5)})
                  .ok());
  EXPECT_TRUE(table.AppendRow({Value(std::string("Grease")),
                               Value(static_cast<std::int64_t>(1978)),
                               Value(7.2)})
                  .ok());
  return table;
}

TEST(TableTest, AppendAndAccess) {
  Table table = MakeMoviesTable();
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(ToString(table.Get(0, 0)), "Rocky");
  EXPECT_EQ(ToString(table.Get(2, 1)), "1978");
}

TEST(TableTest, AppendRejectsArityMismatch) {
  Table table = MakeMoviesTable();
  EXPECT_FALSE(table.AppendRow({Value(std::string("X"))}).ok());
}

TEST(TableTest, AppendRejectsTypeMismatch) {
  Table table = MakeMoviesTable();
  EXPECT_FALSE(table.AppendRow({Value(1.5), Value(static_cast<std::int64_t>(2000)),
                                Value(5.0)})
                   .ok());
}

TEST(TableTest, SchemaExpansionAddsNullColumn) {
  Table table = MakeMoviesTable();
  ASSERT_TRUE(table.AddColumn({"is_comedy", ColumnType::kBool}).ok());
  EXPECT_EQ(table.schema().num_columns(), 4u);
  EXPECT_EQ(table.Column(3).size(), table.num_rows());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_TRUE(IsNull(table.Get(row, 3)));
  }
  // Duplicate column rejected.
  EXPECT_FALSE(table.AddColumn({"is_comedy", ColumnType::kBool}).ok());
}

TEST(TableTest, FillColumn) {
  Table table = MakeMoviesTable();
  ASSERT_TRUE(table.AddColumn({"is_comedy", ColumnType::kBool}).ok());
  ASSERT_TRUE(
      table.FillColumn(3, {Value(false), Value(false), Value(true)}).ok());
  EXPECT_EQ(ToString(table.Get(2, 3)), "true");
  EXPECT_FALSE(table.FillColumn(3, {Value(true)}).ok());  // size mismatch
  EXPECT_FALSE(table.FillColumn(9, {}).ok());             // bad index
}

TEST(TableTest, FillColumnCopiesAnLvalue) {
  Table table = MakeMoviesTable();
  ASSERT_TRUE(table.AddColumn({"seen", ColumnType::kBool}).ok());
  const std::vector<Value> kept = {Value(true), Value{}, Value(false)};
  ASSERT_TRUE(table.FillColumn(3, kept).ok());
  EXPECT_EQ(kept.size(), 3u);  // the caller's vector is left as it was
  EXPECT_EQ(table.Column(3), kept);
  EXPECT_NE(table.Column(3).data(), kept.data());
}

TEST(TableTest, AddColumnTakesTheCallersCells) {
  Table table = MakeMoviesTable();
  std::vector<Value> cells = {Value(false), Value(true), Value{}};
  const Value* data = cells.data();
  ASSERT_TRUE(table.AddColumn({"seen", ColumnType::kBool}, std::move(cells))
                  .ok());
  ASSERT_EQ(table.schema().num_columns(), 4u);
  EXPECT_EQ(table.schema().column(3).name, "seen");
  EXPECT_EQ(table.schema().column(3).type, ColumnType::kBool);
  EXPECT_EQ(table.Column(3).data(), data);  // taken, not copied
  EXPECT_EQ(ToString(table.Get(1, 3)), "true");
  EXPECT_TRUE(IsNull(table.Get(2, 3)));
}

TEST(TableTest, AddColumnWithBadCellsChangesNothing) {
  const Table before = MakeMoviesTable();
  Table table = MakeMoviesTable();
  const auto expect_rejected = [&](const ColumnDef& column,
                                   std::vector<Value> cells) {
    EXPECT_EQ(table.AddColumn(column, std::move(cells)).code(),
              StatusCode::kInvalidArgument)
        << column.name;
    ASSERT_EQ(table.schema().num_columns(), before.schema().num_columns());
    for (std::size_t c = 0; c < before.schema().num_columns(); ++c) {
      EXPECT_EQ(table.schema().column(c).name, before.schema().column(c).name);
      EXPECT_EQ(table.schema().column(c).type, before.schema().column(c).type);
      EXPECT_EQ(table.Column(c), before.Column(c));
    }
  };
  // One cell short, one cell too many.
  expect_rejected({"seen", ColumnType::kBool}, {Value(true), Value(false)});
  expect_rejected({"seen", ColumnType::kBool},
                  {Value(true), Value(false), Value(true), Value(true)});
  // A DOUBLE cell in a BOOL column.
  expect_rejected({"seen", ColumnType::kBool},
                  {Value(true), Value(1.0), Value(false)});
  // A name the table already has, with otherwise valid cells.
  expect_rejected({"name", ColumnType::kBool},
                  {Value(true), Value(false), Value(true)});
}

TEST(TableTest, NonFiniteDoubleCellsAreRejectedAtEveryEntryPoint) {
  // NaN compares equal to every number, so ORDER BY over a column holding
  // one would not sort; ±inf go with it. Every way a cell enters a table
  // rejects them and leaves the table as it was.
  const std::string path = ::testing::TempDir() + "/non_finite.csv";
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(ToString(Value(x)));
    EXPECT_FALSE(Conforms(Value(x), ColumnType::kDouble));
    Table table = MakeMoviesTable();
    EXPECT_EQ(table
                  .AppendRow({Value(std::string("Alien")),
                              Value(std::int64_t{1979}), Value(x)})
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table.num_rows(), 3u);
    EXPECT_EQ(table
                  .AddColumn({"score", ColumnType::kDouble},
                             {Value(1.0), Value(x), Value(2.0)})
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(table.schema().FindColumn("score"), Schema::kNotFound);
    EXPECT_EQ(table.FillColumn(2, {Value(1.0), Value(2.0), Value(x)}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ToString(table.Get(2, 2)), "7.2");
    {
      std::ofstream out(path);  // from_chars reads "nan", "inf" and "-inf"
      out << "score:DOUBLE\n1.5\n" << ToString(Value(x)) << "\n";
    }
    EXPECT_EQ(LoadTableCsv(path, "t").status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TableTest, ConstructsFromWholeColumns) {
  Table table("t",
              Schema({{"name", ColumnType::kString}, {"x", ColumnType::kDouble}}),
              {{Value(std::string("a")), Value{}},
               {Value(1.5), Value(static_cast<std::int64_t>(2))}});
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(ToString(table.Get(0, 0)), "a");
  EXPECT_TRUE(IsNull(table.Get(1, 0)));
  EXPECT_EQ(ToString(table.Get(1, 1)), "2");
  EXPECT_EQ(Table("empty", Schema(), {}).num_rows(), 0u);
}

TEST(TableTest, ToTextRendersRows) {
  Table table = MakeMoviesTable();
  const std::string text = table.ToText();
  EXPECT_NE(text.find("Rocky"), std::string::npos);
  EXPECT_NE(text.find("rating"), std::string::npos);
}

TEST(TableIoTest, SaveLoadRoundTripWithNullsAndQuotes) {
  Schema schema({{"name", ColumnType::kString},
                 {"year", ColumnType::kInt},
                 {"rating", ColumnType::kDouble},
                 {"is_comedy", ColumnType::kBool}});
  Table table("movies", schema);
  ASSERT_TRUE(table.AppendRow({Value(std::string("Weird, \"Movie\"")),
                               Value(static_cast<std::int64_t>(1999)),
                               Value(7.123456789), Value(true)})
                  .ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("Plain")), Value{},
                               Value{}, Value(false)})
                  .ok());
  // The empty string is not NULL, and every double reads back exactly.
  const double doubles[] = {0.1 + 0.2, -0.0, 1e300,
                            std::numeric_limits<double>::denorm_min()};
  for (double d : doubles) {
    ASSERT_TRUE(table.AppendRow({Value(std::string()),
                                 Value(static_cast<std::int64_t>(-7)),
                                 Value(d), Value{}})
                    .ok());
  }

  const std::string path = ::testing::TempDir() + "/table_roundtrip.csv";
  ASSERT_TRUE(SaveTableCsv(table, path).ok());
  auto loaded = LoadTableCsv(path, "movies");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& copy = loaded.value();
  ASSERT_EQ(copy.num_rows(), table.num_rows());
  ASSERT_EQ(copy.schema().num_columns(), 4u);
  EXPECT_EQ(copy.schema().column(3).type, ColumnType::kBool);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    for (std::size_t column = 0; column < 4; ++column) {
      EXPECT_EQ(copy.Get(row, column), table.Get(row, column))
          << "row " << row << ", column " << column << ": "
          << ToString(copy.Get(row, column));
    }
  }
  EXPECT_TRUE(std::signbit(std::get<double>(copy.Get(3, 2))));  // -0.0
  EXPECT_TRUE(IsNull(copy.Get(1, 1)));
  EXPECT_TRUE(IsNull(copy.Get(1, 2)));

  // A line break would split the record that LoadTableCsv reads as one
  // line, so saving it is refused and writes nothing.
  Table broken("notes", Schema({{"text", ColumnType::kString}}));
  ASSERT_TRUE(broken.AppendRow({Value(std::string("two\nlines"))}).ok());
  const std::string broken_path = ::testing::TempDir() + "/line_break.csv";
  std::remove(broken_path.c_str());
  EXPECT_EQ(SaveTableCsv(broken, broken_path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::ifstream(broken_path).good());
}

TEST(TableIoTest, LoadRejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "/bad_table.csv";
  {
    std::ofstream out(path);
    out << "name\n";  // header without type tag
  }
  EXPECT_FALSE(LoadTableCsv(path, "t").ok());
  {
    std::ofstream out(path);
    out << "name:STRING,year:INT\nonly_one_field\n";
  }
  EXPECT_FALSE(LoadTableCsv(path, "t").ok());
  {
    std::ofstream out(path);
    out << "x:WEIRD\n";
  }
  EXPECT_FALSE(LoadTableCsv(path, "t").ok());
  EXPECT_FALSE(LoadTableCsv("/no/such/table.csv", "t").ok());
}

TEST(TableIoTest, LoadRejectsTextAfterClosingQuote) {
  // The record "7"5,"x"y once loaded as 75 and `xy`.
  const std::string path = ::testing::TempDir() + "/after_quote.csv";
  for (const std::string record : {"\"7\"5,\"x\"", "\"7\",\"x\"y",
                                   "\"7\" ,x", "7,\"\"x"}) {
    SCOPED_TRACE(record);
    {
      std::ofstream out(path);
      out << "n:INT,s:STRING\n\"1\",\"a\"\n" << record << "\n";
    }
    EXPECT_EQ(LoadTableCsv(path, "t").status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TableIoTest, LoadRejectsCorruptCells) {
  const std::string path = ::testing::TempDir() + "/corrupt_cells.csv";
  // Trailing garbage after a number used to be silently swallowed by
  // strtoll/strtod; it must be a clean InvalidArgument.
  {
    std::ofstream out(path);
    out << "year:INT\n1999abc\n";
  }
  auto garbage_int = LoadTableCsv(path, "t");
  ASSERT_FALSE(garbage_int.ok());
  EXPECT_EQ(garbage_int.status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "score:DOUBLE\n7.25junk\n";
  }
  EXPECT_EQ(LoadTableCsv(path, "t").status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "score:DOUBLE\nnot_a_number\n";
  }
  EXPECT_FALSE(LoadTableCsv(path, "t").ok());
  // Out-of-range magnitudes are rejected, not clamped.
  {
    std::ofstream out(path);
    out << "year:INT\n99999999999999999999999999\n";
  }
  EXPECT_EQ(LoadTableCsv(path, "t").status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "score:DOUBLE\n1e999999\n";
  }
  EXPECT_EQ(LoadTableCsv(path, "t").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableIoTest, LoadReadsNumberCellsWhole) {
  // A number is the whole field: a blank on either side and hex text are
  // malformed, where strtoll and strtod once read " 5" as 5, " 2.5" as 2.5
  // and "0x1p3" as 8. One leading '+' is accepted, as LoadRatingsCsv does.
  const std::string path = ::testing::TempDir() + "/whole_cells.csv";
  const auto load = [&](const std::string& header, const std::string& field) {
    {
      std::ofstream out(path);
      out << header << "\n1\n" << field << "\n";
    }
    return LoadTableCsv(path, "t");
  };
  const std::pair<std::string, std::string> rejected[] = {
      {"n:INT", " 5"},       {"n:INT", "5 "},       {"n:INT", "+-5"},
      {"n:INT", "0x10"},     {"x:DOUBLE", " 2.5"},  {"x:DOUBLE", "2.5 "},
      {"x:DOUBLE", "0x1p3"}, {"x:DOUBLE", "+-2.5"}, {"x:DOUBLE", "+"}};
  for (const auto& [header, field] : rejected) {
    SCOPED_TRACE(header + " '" + field + "'");
    EXPECT_EQ(load(header, field).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const std::string field : {"1e999", "1e-400"}) {
    const StatusOr<Table> loaded = load("x:DOUBLE", field);
    ASSERT_FALSE(loaded.ok()) << field;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("out of range"),
              std::string::npos)
        << loaded.status().message();
  }
  const StatusOr<Table> plus_int = load("n:INT", "+5");
  ASSERT_TRUE(plus_int.ok()) << plus_int.status().ToString();
  EXPECT_EQ(plus_int.value().Get(1, 0), Value(std::int64_t{5}));
  const StatusOr<Table> plus_double = load("x:DOUBLE", "+2.5");
  ASSERT_TRUE(plus_double.ok()) << plus_double.status().ToString();
  EXPECT_EQ(plus_double.value().Get(1, 0), Value(2.5));
}

TEST(TableIoTest, LoadRejectsOversizedLines) {
  const std::string path = ::testing::TempDir() + "/oversized.csv";
  {
    std::ofstream out(path);
    out << "name:STRING\n" << std::string((1 << 20) + 16, 'x') << "\n";
  }
  auto loaded = LoadTableCsv(path, "t");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableIoTest, LoadTruncatedFileFailsCleanly) {
  // A file cut mid-row (e.g. a crashed writer without the atomic-rename
  // discipline) must fail with a Status, not abort or return half a table.
  Schema schema({{"name", ColumnType::kString},
                 {"year", ColumnType::kInt}});
  Table table("movies", schema);
  ASSERT_TRUE(table.AppendRow({Value(std::string("AAA")),
                               Value(static_cast<std::int64_t>(2000))})
                  .ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("BBB")),
                               Value(static_cast<std::int64_t>(2001))})
                  .ok());
  const std::string path = ::testing::TempDir() + "/truncated_table.csv";
  ASSERT_TRUE(SaveTableCsv(table, path).ok());

  auto whole = LoadTableCsv(path, "t");
  ASSERT_TRUE(whole.ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  // Cut inside the last row, leaving a dangling quoted field or arity
  // mismatch; every cut point must produce ok() or InvalidArgument,
  // never a crash.
  for (std::size_t cut = bytes.size() - 8; cut < bytes.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto loaded = LoadTableCsv(path, "t");
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, SimpleSelect) {
  const auto statement = ParseSelect("SELECT name FROM movies");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement.value().table, "movies");
  ASSERT_EQ(statement.value().items.size(), 1u);
  EXPECT_EQ(statement.value().items[0].kind, SelectItem::Kind::kColumn);
  EXPECT_EQ(statement.value().items[0].column, "name");
  EXPECT_EQ(statement.value().where, nullptr);
}

TEST(ParserTest, SelectStar) {
  const auto statement = ParseSelect("SELECT * FROM movies");
  ASSERT_TRUE(statement.ok());
  EXPECT_TRUE(statement.value().items.empty());
}

TEST(ParserTest, WhereComparison) {
  const auto statement =
      ParseSelect("SELECT * FROM movies WHERE is_comedy = true");
  ASSERT_TRUE(statement.ok());
  const Expr* where = statement.value().where.get();
  ASSERT_NE(where, nullptr);
  EXPECT_EQ(where->kind, Expr::Kind::kBinary);
  EXPECT_EQ(where->op, BinaryOp::kEq);
  EXPECT_EQ(where->left->column, "is_comedy");
  EXPECT_EQ(std::get<bool>(where->right->literal), true);
}

TEST(ParserTest, PaperQueryHumorGe8) {
  const auto statement =
      ParseSelect("SELECT name FROM movies WHERE humor >= 8");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement.value().where->op, BinaryOp::kGe);
}

TEST(ParserTest, AndOrNotPrecedence) {
  const auto statement = ParseSelect(
      "SELECT * FROM t WHERE a = 1 OR b = 2 AND NOT c = 3");
  ASSERT_TRUE(statement.ok());
  const Expr* where = statement.value().where.get();
  // OR binds loosest: top node is OR, right child is AND.
  EXPECT_EQ(where->op, BinaryOp::kOr);
  EXPECT_EQ(where->right->op, BinaryOp::kAnd);
  EXPECT_EQ(where->right->right->kind, Expr::Kind::kNot);
}

TEST(ParserTest, Parentheses) {
  const auto statement =
      ParseSelect("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement.value().where->op, BinaryOp::kAnd);
  EXPECT_EQ(statement.value().where->left->op, BinaryOp::kOr);
}

TEST(ParserTest, OrderByAndLimit) {
  const auto statement = ParseSelect(
      "SELECT name FROM movies ORDER BY humor DESC LIMIT 10");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement.value().order_by_column, "humor");
  EXPECT_TRUE(statement.value().order_descending);
  ASSERT_TRUE(statement.value().limit.has_value());
  EXPECT_EQ(*statement.value().limit, 10u);
}

TEST(ParserTest, StringLiteralsAndEscapes) {
  const auto statement =
      ParseSelect("SELECT * FROM t WHERE name = 'O''Hara'");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(std::get<Text>(statement.value().where->right->literal).view(),
            "O'Hara");
}

TEST(ParserTest, BareBooleanColumnShorthand) {
  const auto statement = ParseSelect("SELECT * FROM t WHERE is_comedy");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement.value().where->op, BinaryOp::kEq);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSelect("select * from t where a = 1").ok());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE a = 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE a = ").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t trailing junk").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE name = 'unterminated").ok());
  EXPECT_FALSE(ParseSelect("SELECT * FROM t WHERE (a = 1").ok());
}

TEST(ParserTest, AggregateSelectItems) {
  const auto statement = ParseSelect(
      "SELECT cluster, COUNT(*), AVG(rating) FROM movies GROUP BY cluster");
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  const SelectStatement& parsed = statement.value();
  ASSERT_EQ(parsed.items.size(), 3u);
  EXPECT_EQ(parsed.items[0].kind, SelectItem::Kind::kColumn);
  EXPECT_EQ(parsed.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(parsed.items[1].func, AggregateFunc::kCount);
  EXPECT_TRUE(parsed.items[1].column.empty());
  EXPECT_EQ(parsed.items[2].func, AggregateFunc::kAvg);
  EXPECT_EQ(parsed.items[2].column, "rating");
  EXPECT_EQ(parsed.group_by_column, "cluster");
  EXPECT_TRUE(parsed.HasAggregates());
}

TEST(ParserTest, AggregateSyntaxErrors) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());     // * only COUNT
  EXPECT_FALSE(ParseSelect("SELECT FOO(x) FROM t").ok());     // unknown func
  EXPECT_FALSE(ParseSelect("SELECT COUNT(x FROM t").ok());    // missing ')'
  EXPECT_FALSE(ParseSelect("SELECT AVG() FROM t").ok());      // missing arg
  EXPECT_FALSE(ParseSelect("SELECT * FROM t GROUP BY").ok()); // missing col
}

TEST(ParserTest, NegativeNumbersAndDoubles) {
  const auto statement = ParseSelect("SELECT * FROM t WHERE x < -2.5");
  ASSERT_TRUE(statement.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(statement.value().where->right->literal),
                   -2.5);
}

TEST(ParserTest, LimitTakesOnlyARowCount) {
  for (const char* sql : {"SELECT * FROM t LIMIT -1",
                          "SELECT * FROM t LIMIT -0",
                          "SELECT * FROM t LIMIT 1.5",
                          "SELECT * FROM t LIMIT 2.",
                          "SELECT * FROM t LIMIT 99999999999999999999999",
                          "SELECT * FROM t LIMIT 'a'",
                          "SELECT * FROM t LIMIT"}) {
    const auto statement = ParseSelect(sql);
    ASSERT_FALSE(statement.ok()) << sql;
    EXPECT_EQ(statement.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(statement.status().message().find("expected LIMIT count"),
              std::string::npos)
        << statement.status().ToString();
  }
  for (const auto& [sql, limit] :
       {std::pair<const char*, std::size_t>{"SELECT * FROM t LIMIT 0", 0},
        {"SELECT * FROM t LIMIT 007", 7},
        {"SELECT * FROM t LIMIT 18446744073709551615",
         std::numeric_limits<std::size_t>::max()}}) {
    const auto statement = ParseSelect(sql);
    ASSERT_TRUE(statement.ok()) << sql << ": " << statement.status().ToString();
    ASSERT_TRUE(statement.value().limit.has_value()) << sql;
    EXPECT_EQ(*statement.value().limit, limit) << sql;
  }
}

TEST(ParserTest, IntegerLiteralsOutsideInt64AreAnError) {
  for (const char* literal :
       {"9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "-99999999999999999999"}) {
    const auto statement =
        ParseSelect(std::string("SELECT * FROM t WHERE id < ") + literal);
    ASSERT_FALSE(statement.ok()) << literal;
    EXPECT_EQ(statement.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(statement.status().message().find(
                  std::string("integer literal out of range: ") + literal),
              std::string::npos)
        << statement.status().ToString();
  }
  for (const std::int64_t bound : {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max()}) {
    const auto statement = ParseSelect("SELECT * FROM t WHERE id = " +
                                       std::to_string(bound));
    ASSERT_TRUE(statement.ok()) << statement.status().ToString();
    EXPECT_EQ(std::get<std::int64_t>(statement.value().where->right->literal),
              bound);
  }
}

TEST(ParserTest, FractionalLiteralsAreReadWhole) {
  // Each of these once read as its longest numeric prefix: 1.2, 1.2, 1.
  const std::string huge = "1" + std::string(400, '0') + ".0";
  for (const std::string& literal :
       {std::string("1.2.3"), std::string("1.2.5"), std::string("1..9"),
        std::string("-0.5.1"), huge}) {
    const auto statement = ParseSelect("SELECT * FROM t WHERE x < " + literal);
    ASSERT_FALSE(statement.ok()) << literal;
    EXPECT_EQ(statement.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(statement.status().message().find(
                  "malformed or out-of-range number: " + literal),
              std::string::npos)
        << statement.status().ToString();
  }
  for (const auto& [literal, value] :
       {std::pair<const char*, double>{"1.", 1.0}, {"0.1", 0.1},
        {"00.5", 0.5}}) {
    const auto statement =
        ParseSelect(std::string("SELECT * FROM t WHERE x < ") + literal);
    ASSERT_TRUE(statement.ok()) << literal;
    EXPECT_EQ(std::get<double>(statement.value().where->right->literal),
              value)
        << literal;
  }
}

// ---------------------------------------------------------------- exec

class CountingResolver : public MissingAttributeResolver {
 public:
  Status Resolve(Table& table, const std::string& column_name) override {
    ++calls;
    if (column_name != "is_comedy") {
      return Status::NotFound("unknown attribute " + column_name);
    }
    Status status = table.AddColumn({column_name, ColumnType::kBool});
    if (!status.ok()) return status;
    std::vector<Value> values;
    for (std::size_t row = 0; row < table.num_rows(); ++row) {
      values.push_back(Value(row % 2 == 0));
    }
    return table.FillColumn(table.schema().num_columns() - 1, values);
  }

  int calls = 0;
};

TEST(DatabaseTest, BasicSelect) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result = database.Execute("SELECT name FROM movies");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 3u);
  EXPECT_EQ(result.value().schema().num_columns(), 1u);
}

TEST(DatabaseTest, WhereFilters) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result =
      database.Execute("SELECT name FROM movies WHERE year > 1970");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
}

TEST(DatabaseTest, OrderByDescWithLimit) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result = database.Execute(
      "SELECT name FROM movies ORDER BY rating DESC LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "Psycho");
  EXPECT_EQ(ToString(result.value().Get(1, 0)), "Rocky");
}

TEST(DatabaseTest, StringEquality) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result =
      database.Execute("SELECT year FROM movies WHERE name = 'Rocky'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "1976");
}

TEST(DatabaseTest, IntColumnsCompareExactly) {
  // 2^53 + 1 has no double of its own: as doubles, 2^53 and 2^53 + 1 are
  // equal.
  Table table("t", Schema({{"id", ColumnType::kInt}}));
  for (const std::int64_t id : {std::int64_t{9007199254740992},
                                std::int64_t{9007199254740993},
                                std::int64_t{1}}) {
    ASSERT_TRUE(table.AppendRow({Value(id)}).ok());
  }
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto equal =
      database.Execute("SELECT id FROM t WHERE id = 9007199254740993");
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  ASSERT_EQ(equal.value().num_rows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(equal.value().Get(0, 0)),
            9007199254740993);
  const auto greater =
      database.Execute("SELECT id FROM t WHERE id > 9007199254740992");
  ASSERT_TRUE(greater.ok()) << greater.status().ToString();
  EXPECT_EQ(greater.value().num_rows(), 1u);
  const auto ordered =
      database.Execute("SELECT id FROM t ORDER BY id DESC LIMIT 1");
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  ASSERT_EQ(ordered.value().num_rows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(ordered.value().Get(0, 0)),
            9007199254740993);
  // An INT column against a DOUBLE literal still compares as doubles.
  const auto mixed =
      database.Execute("SELECT id FROM t WHERE id = 9007199254740993.0");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().num_rows(), 2u);
}

TEST(DatabaseTest, IntCellsOfADoubleColumnAreStoredAsDoubles) {
  // A DOUBLE column holds doubles whatever its cells were bound as, so
  // 2^53 + 1 appended as an int is the double 2^53: WHERE, ORDER BY and
  // MIN/MAX all see one value where an INT column sees two.
  Table table("t",
              Schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}}));
  const std::int64_t xs[] = {9007199254740993, 9007199254740992, 1};
  for (std::int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(table.AppendRow({Value(id), Value(xs[id])}).ok());
  }
  ASSERT_TRUE(table
                  .AddColumn({"y", ColumnType::kDouble},
                             {Value(xs[0]), Value{}, Value(xs[2])})
                  .ok());
  ASSERT_TRUE(table
                  .AddColumn({"z", ColumnType::kDouble},
                             std::vector<Value>(3))
                  .ok());
  ASSERT_TRUE(table.FillColumn(3, {Value{}, Value(xs[1]), Value(xs[0])}).ok());
  for (std::size_t column = 1; column <= 3; ++column) {
    for (std::size_t row = 0; row < 3; ++row) {
      const Value& cell = table.Get(row, column);
      EXPECT_TRUE(IsNull(cell) || std::holds_alternative<double>(cell))
          << "row " << row << ", column " << column;
    }
  }
  EXPECT_EQ(table.Get(0, 1), Value(9007199254740992.0));
  const Table whole("w", Schema({{"x", ColumnType::kDouble}}),
                    {{Value(xs[0]), Value{}}});
  EXPECT_EQ(whole.Get(0, 0), Value(9007199254740992.0));

  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto equal =
      database.Execute("SELECT id FROM t WHERE x = 9007199254740993");
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  EXPECT_EQ(equal.value().num_rows(), 2u);
  // The two are a tie, which ORDER BY breaks by row position.
  const auto ordered = database.Execute("SELECT id FROM t ORDER BY x");
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  ASSERT_EQ(ordered.value().num_rows(), 3u);
  EXPECT_EQ(ToString(ordered.value().Get(0, 0)), "2");
  EXPECT_EQ(ToString(ordered.value().Get(1, 0)), "0");
  EXPECT_EQ(ToString(ordered.value().Get(2, 0)), "1");
  const auto extremes = database.Execute("SELECT MIN(x), MAX(x) FROM t");
  ASSERT_TRUE(extremes.ok()) << extremes.status().ToString();
  EXPECT_EQ(extremes.value().Get(0, 0), Value(1.0));
  EXPECT_EQ(extremes.value().Get(0, 1), Value(9007199254740992.0));
}

TEST(DatabaseTest, MissingTableError) {
  Database database;
  const auto result = database.Execute("SELECT * FROM nothing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, MissingColumnWithoutResolverFails) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result =
      database.Execute("SELECT * FROM movies WHERE is_comedy = true");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, ResolverTriggersSchemaExpansion) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  CountingResolver resolver;
  database.SetResolver(&resolver);
  const auto result =
      database.Execute("SELECT name FROM movies WHERE is_comedy = true");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(resolver.calls, 1);
  EXPECT_EQ(result.value().num_rows(), 2u);  // rows 0 and 2

  // Second query reuses the materialized column — no second resolution.
  const auto again =
      database.Execute("SELECT name FROM movies WHERE is_comedy = false");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(resolver.calls, 1);
  EXPECT_EQ(again.value().num_rows(), 1u);
}

TEST(DatabaseTest, ResolverFailurePropagates) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  CountingResolver resolver;
  database.SetResolver(&resolver);
  const auto result =
      database.Execute("SELECT * FROM movies WHERE humor >= 8");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, NullComparisonsAreUnknown) {
  Schema schema({{"x", ColumnType::kDouble}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value(1.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value{}}).ok());  // NULL
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto result = database.Execute("SELECT * FROM t WHERE x < 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);  // NULL row filtered out
  // NOT(NULL comparison) is still UNKNOWN → filtered.
  const auto negated = database.Execute("SELECT * FROM t WHERE NOT x < 5");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated.value().num_rows(), 0u);
}

TEST(DatabaseTest, TypeMismatchInComparisonIsError) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result =
      database.Execute("SELECT * FROM movies WHERE name > 5");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, AndOrEvaluation) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result = database.Execute(
      "SELECT name FROM movies WHERE year > 1970 AND rating > 8 OR "
      "name = 'Psycho'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);  // Rocky (8.1>8) and Psycho
}

TEST(DatabaseTest, AggregatesWithoutGroupBy) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result = database.Execute(
      "SELECT COUNT(*), AVG(rating), MIN(year), MAX(year), SUM(rating) "
      "FROM movies");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "3");
  EXPECT_NEAR(std::get<double>(result.value().Get(0, 1)),
              (8.1 + 8.5 + 7.2) / 3.0, 1e-9);
  EXPECT_EQ(ToString(result.value().Get(0, 2)), "1960");
  EXPECT_EQ(ToString(result.value().Get(0, 3)), "1978");
  EXPECT_NEAR(std::get<double>(result.value().Get(0, 4)), 23.8, 1e-9);
}

TEST(DatabaseTest, AggregatesRespectWhere) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result = database.Execute(
      "SELECT COUNT(*) FROM movies WHERE year > 1970");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "2");
}

TEST(DatabaseTest, GroupByAggregates) {
  Schema schema({{"genre", ColumnType::kString},
                 {"rating", ColumnType::kDouble}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(1.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("b")), Value(2.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(3.0)}).ok());
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto result = database.Execute(
      "SELECT genre, COUNT(*), AVG(rating) FROM t GROUP BY genre "
      "ORDER BY genre");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "a");
  EXPECT_EQ(ToString(result.value().Get(0, 1)), "2");
  EXPECT_NEAR(std::get<double>(result.value().Get(0, 2)), 2.0, 1e-9);
  EXPECT_EQ(ToString(result.value().Get(1, 0)), "b");
}

TEST(DatabaseTest, GroupByOrderByAggregateColumn) {
  Schema schema({{"genre", ColumnType::kString},
                 {"rating", ColumnType::kDouble}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(1.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("b")), Value(9.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(2.0)}).ok());
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto result = database.Execute(
      "SELECT genre, COUNT(*) FROM t GROUP BY genre "
      "ORDER BY count(*) DESC LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 1u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "a");
}

TEST(DatabaseTest, HavingFiltersGroups) {
  Schema schema({{"genre", ColumnType::kString},
                 {"rating", ColumnType::kDouble}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(1.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("a")), Value(2.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("b")), Value(9.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("c")), Value(4.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(std::string("c")), Value(6.0)}).ok());
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());

  const auto result = database.Execute(
      "SELECT genre, COUNT(*) FROM t GROUP BY genre HAVING COUNT(*) >= 2 "
      "ORDER BY genre");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "a");
  EXPECT_EQ(ToString(result.value().Get(1, 0)), "c");

  const auto by_avg = database.Execute(
      "SELECT genre, AVG(rating) FROM t GROUP BY genre "
      "HAVING AVG(rating) > 4.5");
  ASSERT_TRUE(by_avg.ok()) << by_avg.status().ToString();
  ASSERT_EQ(by_avg.value().num_rows(), 2u);  // b (9.0) and c (5.0)
}

TEST(DatabaseTest, HavingWithoutAggregatesIsError) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto result =
      database.Execute("SELECT name FROM movies HAVING year > 1970");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, HavingParses) {
  const auto statement = ParseSelect(
      "SELECT genre, COUNT(*) FROM t GROUP BY genre HAVING COUNT(*) > 3");
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_NE(statement.value().having, nullptr);
  EXPECT_EQ(statement.value().having->left->column, "count(*)");
}

TEST(DatabaseTest, AggregateErrors) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  // Plain column outside GROUP BY.
  EXPECT_FALSE(database.Execute("SELECT name, COUNT(*) FROM movies").ok());
  // SUM over a string column.
  EXPECT_FALSE(database.Execute("SELECT SUM(name) FROM movies").ok());
  // Aggregate over a missing column (no resolver).
  EXPECT_FALSE(database.Execute("SELECT AVG(humor) FROM movies").ok());
}

TEST(DatabaseTest, AggregateNullHandling) {
  Schema schema({{"x", ColumnType::kDouble}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value(2.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value{}}).ok());  // NULL
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto result =
      database.Execute("SELECT COUNT(*), COUNT(x), AVG(x) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToString(result.value().Get(0, 0)), "2");  // COUNT(*) counts rows
  EXPECT_EQ(ToString(result.value().Get(0, 1)), "1");  // COUNT(x) skips NULL
  EXPECT_NEAR(std::get<double>(result.value().Get(0, 2)), 2.0, 1e-9);
}

// GROUP BY groups by value, not by the value's rendering: doubles print
// with 6 significant digits and the string 'NULL' prints like NULL.
TEST(DatabaseTest, GroupByGroupsByValue) {
  Schema schema({{"x", ColumnType::kDouble}, {"s", ColumnType::kString}});
  Table table("t", schema);
  ASSERT_TRUE(
      table.AppendRow({Value(1.0000001), Value(std::string("NULL"))}).ok());
  ASSERT_TRUE(table.AppendRow({Value(1.0000002), Value{}}).ok());
  ASSERT_TRUE(
      table.AppendRow({Value(1.0000003), Value(std::string("a"))}).ok());
  ASSERT_TRUE(table.AppendRow({Value(1.0), Value(std::string("a"))}).ok());
  ASSERT_TRUE(table
                  .AppendRow({Value(static_cast<std::int64_t>(1)),
                              Value(std::string("a"))})
                  .ok());
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());

  const auto by_x = database.Execute("SELECT x, COUNT(*) FROM t GROUP BY x");
  ASSERT_TRUE(by_x.ok()) << by_x.status().ToString();
  ASSERT_EQ(by_x.value().num_rows(), 4u);
  EXPECT_EQ(std::get<double>(by_x.value().Get(1, 0)), 1.0000002);
  EXPECT_EQ(ToString(by_x.value().Get(1, 1)), "1");
  // An int 1 and a 1.0 in a DOUBLE column are one group, keyed by the
  // first one seen.
  EXPECT_EQ(std::get<double>(by_x.value().Get(3, 0)), 1.0);
  EXPECT_EQ(ToString(by_x.value().Get(3, 1)), "2");
  const auto one = database.Execute("SELECT x FROM t WHERE x = 1.0000002");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().num_rows(), 1u);

  const auto by_s = database.Execute(
      "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY count(*) DESC");
  ASSERT_TRUE(by_s.ok()) << by_s.status().ToString();
  ASSERT_EQ(by_s.value().num_rows(), 3u);
  EXPECT_EQ(ToString(by_s.value().Get(0, 0)), "a");
  EXPECT_EQ(ToString(by_s.value().Get(0, 1)), "3");
  EXPECT_EQ(std::get<Text>(by_s.value().Get(1, 0)).view(), "NULL");
  EXPECT_EQ(ToString(by_s.value().Get(1, 1)), "1");
  EXPECT_TRUE(IsNull(by_s.value().Get(2, 0)));
  EXPECT_EQ(ToString(by_s.value().Get(2, 1)), "1");
}

// Binding type-checks a statement before any row is read, so these fail
// on a table where no row reaches the ill-typed part.
TEST(DatabaseTest, TypeErrorsAreRaisedAtPlanTime) {
  Schema schema({{"name", ColumnType::kString},
                 {"year", ColumnType::kInt},
                 {"ok", ColumnType::kBool}});
  Table table("t", schema);
  ASSERT_TRUE(table.AppendRow({Value{}, Value{}, Value(true)}).ok());
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  ASSERT_TRUE(database.AddTable(Table("empty", schema)).ok());

  for (const char* sql :
       {"SELECT * FROM t WHERE name > 5",
        "SELECT * FROM empty WHERE name > 5",
        "SELECT * FROM t WHERE ok = false AND year = 'x'",
        "SELECT name FROM empty WHERE ok OR NOT 'a' < year LIMIT 0"}) {
    const auto result = database.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(result.status().message(),
              "type mismatch: cannot compare string with non-string")
        << sql;
  }
  const auto having = database.Execute(
      "SELECT name, MIN(year) FROM empty GROUP BY name HAVING min(year) > 'x'");
  ASSERT_FALSE(having.ok());
  EXPECT_EQ(having.status().code(), StatusCode::kInvalidArgument);

  const auto unknown = database.Execute(
      "SELECT name, COUNT(*) FROM empty GROUP BY name HAVING year > 1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status().message(), "no such column: year");

  // A NULL literal never mismatches: the comparison is UNKNOWN.
  SelectStatement statement;
  statement.table = "t";
  statement.where = Expr::Binary(BinaryOp::kEq, Expr::Column("name"),
                                 Expr::Literal(Value{}));
  const auto null_literal = database.ExecuteSelect(statement);
  ASSERT_TRUE(null_literal.ok()) << null_literal.status().ToString();
  EXPECT_EQ(null_literal.value().num_rows(), 0u);

  // A non-Boolean column in a Boolean position.
  statement.where = Expr::Column("year");
  const auto non_boolean = database.ExecuteSelect(statement);
  ASSERT_FALSE(non_boolean.ok());
  EXPECT_EQ(non_boolean.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(non_boolean.status().message(),
            "non-Boolean value used as a condition");
}

TEST(DatabaseTest, DuplicateOutputColumnsAreAnError) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  for (const char* sql :
       {"SELECT name, name FROM movies",
        "SELECT COUNT(*), count(*) FROM movies",
        "SELECT name, COUNT(*), name FROM movies GROUP BY name"}) {
    const auto result = database.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

// ORDER BY … LIMIT k returns the prefix of a stable sort: NULLs last in
// either direction, ties in row order.
TEST(DatabaseTest, OrderByLimitKeepsStableOrderWithNullsLast) {
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  Table table("t", schema);
  const std::vector<Value> xs = {Value{},      Value(2.0), Value(1.0),
                                 Value(2.0),   Value{},    Value(1.0),
                                 Value(static_cast<std::int64_t>(2))};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(
        table.AppendRow({Value(static_cast<std::int64_t>(i)), xs[i]}).ok());
  }
  Database database;
  ASSERT_TRUE(database.AddTable(std::move(table)).ok());
  const auto ids = [&](const std::string& sql) {
    const auto result = database.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql;
    std::string out;
    for (std::size_t row = 0; row < result.value().num_rows(); ++row) {
      out += ToString(result.value().Get(row, 0));
    }
    return out;
  };
  EXPECT_EQ(ids("SELECT id FROM t ORDER BY x"), "2513604");
  EXPECT_EQ(ids("SELECT id FROM t ORDER BY x DESC"), "1362504");
  EXPECT_EQ(ids("SELECT id FROM t ORDER BY x DESC LIMIT 2"), "13");
  EXPECT_EQ(ids("SELECT id FROM t ORDER BY x LIMIT 6"), "251360");
  EXPECT_EQ(ids("SELECT id FROM t ORDER BY x LIMIT 0"), "");
  EXPECT_EQ(ids("SELECT id FROM t WHERE x >= 1 LIMIT 3"), "123");
}

TEST(DatabaseTest, DeeplyNestedConditionsAreRejected) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const auto repeat = [](const std::string& text, std::size_t times) {
    std::string out;
    out.reserve(text.size() * times);
    for (std::size_t i = 0; i < times; ++i) out += text;
    return out;
  };
  const std::string kTooDeep[] = {
      "SELECT * FROM movies WHERE " + repeat("NOT ", 100000) + "year > 1",
      "SELECT * FROM movies WHERE " + repeat("(", 100000) + "year > 1" +
          repeat(")", 100000),
      "SELECT * FROM movies WHERE year > 1" + repeat(" AND year > 1", 100000),
      "SELECT * FROM movies WHERE year > 1" + repeat(" OR year > 1", 100000),
      "SELECT name, COUNT(*) FROM movies GROUP BY name HAVING " +
          repeat("NOT ", 1001) + "count(*) > 1",
  };
  for (const std::string& sql : kTooDeep) {
    const auto result = database.Execute(sql);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("nested deeper than 1000"),
              std::string::npos)
        << result.status().message();
  }
  // 1,000 levels are still fine.
  const auto deep = database.Execute("SELECT * FROM movies WHERE " +
                                     repeat("NOT ", 1000) + "year > 1970");
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(deep.value().num_rows(), 2u);  // an even number of NOTs
  const auto chain = database.Execute(
      "SELECT * FROM movies WHERE year > 1970" + repeat(" AND year > 1", 999));
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain.value().num_rows(), 2u);
}

TEST(DatabaseTest, EmptyStringIsNotNull) {
  // Rows k = 0..4 hold '', NULL, 'a', '', NULL.
  Table table("t", Schema({{"s", ColumnType::kString},
                           {"k", ColumnType::kInt}}));
  const Value cells[] = {Value(""), Value{}, Value("a"), Value(""), Value{}};
  for (std::size_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(
        table.AppendRow({cells[k], Value(static_cast<std::int64_t>(k))}).ok());
  }
  const std::string path = ::testing::TempDir() + "/empty_strings.csv";
  ASSERT_TRUE(SaveTableCsv(table, path).ok());
  StatusOr<Table> loaded = LoadTableCsv(path, "t");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (std::size_t k = 0; k < 5; ++k) {
    const Value& cell = loaded.value().Get(k, 0);
    EXPECT_EQ(cell.index(), cells[k].index()) << "row " << k;
    EXPECT_EQ(cell, cells[k]) << "row " << k;
  }

  Database database;
  ASSERT_TRUE(database.AddTable(std::move(loaded).value()).ok());
  const auto keys = [&](const std::string& sql) {
    StatusOr<Table> result = database.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    std::string out;
    if (!result.ok()) return out;
    for (std::size_t row = 0; row < result.value().num_rows(); ++row) {
      out += ToString(result.value().Get(row, 0));
    }
    return out;
  };
  EXPECT_EQ(keys("SELECT k FROM t WHERE s = ''"), "03");
  EXPECT_EQ(keys("SELECT k FROM t WHERE s != ''"), "2");
  EXPECT_EQ(keys("SELECT k FROM t WHERE s < 'a'"), "03");
  EXPECT_EQ(keys("SELECT k FROM t WHERE NOT s = ''"), "2");
  // '' sorts first, NULLs last in either direction.
  EXPECT_EQ(keys("SELECT k FROM t ORDER BY s"), "03214");
  EXPECT_EQ(keys("SELECT k FROM t ORDER BY s DESC"), "20314");

  const auto groups =
      database.Execute("SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups.value().num_rows(), 3u);
  EXPECT_EQ(groups.value().Get(0, 0), Value(""));
  EXPECT_EQ(ToString(groups.value().Get(0, 1)), "2");
  EXPECT_EQ(groups.value().Get(1, 0), Value("a"));
  EXPECT_EQ(ToString(groups.value().Get(1, 1)), "1");
  EXPECT_TRUE(IsNull(groups.value().Get(2, 0)));
  EXPECT_EQ(ToString(groups.value().Get(2, 1)), "2");
}

TEST(DatabaseTest, ResultsAndCopiesShareStringCharacters) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  const Table& movies = *database.FindTable("movies");
  // Rocky (row 0) and Grease (row 2), by year.
  const auto result = database.Execute(
      "SELECT name FROM movies WHERE year > 1970 ORDER BY year");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().num_rows(), 2u);
  EXPECT_EQ(CharsOf(result.value().Get(0, 0)), CharsOf(movies.Get(0, 0)));
  EXPECT_EQ(CharsOf(result.value().Get(1, 0)), CharsOf(movies.Get(2, 0)));

  const auto grouped = database.Execute(
      "SELECT name, COUNT(*) FROM movies GROUP BY name");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped.value().num_rows(), 3u);
  EXPECT_EQ(CharsOf(grouped.value().Get(1, 0)), CharsOf(movies.Get(1, 0)));

  const Table copy = movies;
  for (std::size_t row = 0; row < movies.num_rows(); ++row) {
    EXPECT_EQ(CharsOf(copy.Get(row, 0)), CharsOf(movies.Get(row, 0)));
  }
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database database;
  ASSERT_TRUE(database.AddTable(MakeMoviesTable()).ok());
  EXPECT_FALSE(database.AddTable(MakeMoviesTable()).ok());
}

}  // namespace
}  // namespace ccdb::db
