// sql_expand_paper, sql_expand_100k and sql_select_100k: one closed-loop
// client issuing SELECTs through db::Database::Execute.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "common/rng.h"
#include "core/extractor.h"
#include "core/resolver.h"
#include "crowd/aggregation.h"
#include "db/database.h"
#include "db/sql_parser.h"
#include "e2e.h"

namespace ccdb::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kSmokeOps = 4;

double ElapsedMs(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

// ---- sql_expand_* -----------------------------------------------------------

constexpr std::size_t kGoldSizes[] = {40, 80, 160};
// Every gold sample holds at least this many true positives and negatives,
// so the trusted crowd's vote cannot come back one-class and no op fails.
constexpr std::size_t kMinPerClass = 5;

// The gold sample the resolver of one op is predicted to draw: it has one
// registered attribute and samples from Rng(seed + number of registered
// attributes). The prediction lets an op be chosen so its sample is
// two-class; every op checks it against the items the resolver actually
// passes to the truth provider (README, "Coupling to the resolver").
std::vector<std::uint32_t> ResolverGoldSample(std::size_t num_items,
                                              std::size_t gold,
                                              std::uint64_t resolver_seed) {
  Rng rng(resolver_seed + 1);
  std::vector<std::uint32_t> items;
  for (std::size_t index :
       rng.SampleWithoutReplacement(num_items, std::min(gold, num_items))) {
    items.push_back(static_cast<std::uint32_t>(index));
  }
  return items;
}

struct ExpandOp {
  std::size_t genre = 0;
  std::uint64_t resolver_seed = 0;
  std::uint64_t hit_seed = 0;
  std::vector<std::uint32_t> gold_items;  // predicted, in draw order
  std::string column;
  std::string sql;
};

// Op `index` of the seeded stream: each block of (genre x gold size) cells
// visits every cell once, in an order drawn from the seed.
ExpandOp MakeExpandOp(const data::SyntheticWorld& world, std::uint64_t seed,
                      std::uint64_t index) {
  const std::size_t genres = world.num_genres();
  const std::size_t cells = genres * std::size(kGoldSizes);
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng block_rng(Mix(seed, index / cells));
  block_rng.Shuffle(order);
  const std::size_t cell = order[index % cells];

  ExpandOp op;
  op.genre = cell % genres;
  const std::size_t gold = kGoldSizes[cell / genres];
  Rng rng(Mix(~seed, index));
  op.hit_seed = rng.NextUint64();
  const std::vector<bool>& labels = world.GenreLabels(op.genre);
  for (int attempt = 0;; ++attempt) {
    CCDB_CHECK_LT(attempt, 10000);
    op.resolver_seed = rng.NextUint64();
    op.gold_items =
        ResolverGoldSample(world.num_items(), gold, op.resolver_seed);
    const auto positives = static_cast<std::size_t>(std::count_if(
        op.gold_items.begin(), op.gold_items.end(),
        [&](std::uint32_t item) { return labels[item]; }));
    if (positives >= kMinPerClass &&
        op.gold_items.size() - positives >= kMinPerClass) {
      break;
    }
  }
  op.column = GenreColumn(world, op.genre);
  op.sql = "SELECT name FROM movies WHERE " + op.column + " = true";
  return op;
}

struct ExpandOutcome {
  std::string error;  // empty on success
  double latency_ms = kInf;
  std::vector<bool> column;  // the filled column
  std::size_t rows = 0;      // rows the query returned
  double dollars = 0.0;
  double minutes = 0.0;
};

std::optional<std::vector<bool>> ReadBoolColumn(const db::Table& table,
                                                const std::string& name) {
  const std::size_t index = table.schema().FindColumn(name);
  if (index == db::Schema::kNotFound) return std::nullopt;
  std::vector<bool> values(table.num_rows());
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    const bool* value = std::get_if<bool>(&table.Get(row, index));
    if (value == nullptr) return std::nullopt;
    values[row] = *value;
  }
  return values;
}

// The measured path: SQL text in, filled column out, through
// Database::Execute and the perceptual resolver.
ExpandOutcome RunResolverOp(const Fixture& fixture, const ExpandOp& op) {
  ExpandOutcome outcome;
  db::Database database;
  if (Status status = database.AddTable(fixture.movies); !status.ok()) {
    outcome.error = status.ToString();
    return outcome;
  }
  core::PerceptualExpansionResolver resolver(fixture.space.get(),
                                             TrustedPool(),
                                             TrustedHits(op.hit_seed),
                                             op.resolver_seed);
  // The resolver asks the truth provider about exactly its gold items.
  std::vector<std::uint32_t> asked;
  asked.reserve(op.gold_items.size());
  core::PerceptualAttributeSpec spec;
  spec.type = db::ColumnType::kBool;
  spec.gold_sample_size = op.gold_items.size();
  spec.bool_truth = [world = fixture.world.get(), genre = op.genre,
                     &asked](std::uint32_t item) {
    asked.push_back(item);
    return world->GenreLabel(genre, item);
  };
  resolver.RegisterAttribute(op.column, std::move(spec));
  database.SetResolver(&resolver);

  const std::int64_t start = NowNs();
  StatusOr<db::Table> result = database.Execute(op.sql);
  const double latency_ms = ElapsedMs(start);
  if (!result.ok()) {
    outcome.error = result.status().ToString();
    return outcome;
  }
  if (asked != op.gold_items) {
    outcome.error =
        "the resolver drew another gold sample than the benchmark predicts";
    return outcome;
  }
  std::optional<std::vector<bool>> column =
      ReadBoolColumn(*database.FindTable("movies"), op.column);
  if (!column.has_value()) {
    outcome.error = "column " + op.column + " was not filled";
    return outcome;
  }
  outcome.latency_ms = latency_ms;
  outcome.column = *std::move(column);
  outcome.rows = result.value().num_rows();
  outcome.dollars = resolver.last_result().crowd_dollars;
  outcome.minutes = resolver.last_result().crowd_minutes;
  return outcome;
}

// The same op with the benchmark calling each layer's public function in
// the order the resolver does, one span per call. A change to that order
// changes this function too (README, "Coupling to the resolver").
ExpandOutcome RunReplicaOp(const Fixture& fixture, const ExpandOp& op,
                           Trace* trace, std::uint64_t request_id,
                           LayerCounts& counts) {
  ExpandOutcome outcome;
  db::Database database;
  if (Status status = database.AddTable(fixture.movies); !status.ok()) {
    outcome.error = status.ToString();
    return outcome;
  }
  db::Table& table = *database.FindMutableTable("movies");
  const core::PerceptualSpace& space = *fixture.space;
  const crowd::WorkerPool pool = TrustedPool();
  const std::vector<bool>& labels = fixture.world->GenreLabels(op.genre);

  // Declared outside the op span, like the result of Execute, so freeing
  // it is not timed.
  StatusOr<db::Table> result = Status::Internal("query not run");
  const std::int64_t start = NowNs();
  {
    ScopedSpan root(trace, "query", Trace::kRoot, request_id);
    const auto span = [&](const char* name) {
      return ScopedSpan(trace, name, root.index(), request_id);
    };
    StatusOr<db::SelectStatement> statement = [&] {
      auto parse = span("db.parse");
      return db::ParseSelect(op.sql);
    }();
    if (!statement.ok()) {
      outcome.error = statement.status().ToString();
      return outcome;
    }

    // The statement names a column the table lacks: expand it.
    const std::vector<std::uint32_t>& gold = op.gold_items;
    std::vector<bool> truth;
    for (std::uint32_t item : gold) truth.push_back(labels[item]);
    const crowd::CrowdRunResult run = [&] {
      auto post = span("crowd.post");
      return crowd::RunCrowdTask(pool, truth, TrustedHits(op.hit_seed));
    }();
    const std::vector<std::optional<bool>> votes = [&] {
      auto vote = span("crowd.vote");
      return crowd::MajorityVote(run.judgments, gold.size(),
                                 run.total_minutes);
    }();
    std::vector<std::uint32_t> items;
    std::vector<bool> item_labels;
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if (votes[i].has_value()) {
        items.push_back(gold[i]);
        item_labels.push_back(*votes[i]);
      }
    }
    core::BinaryAttributeExtractor extractor;
    const bool trained = [&] {
      auto train = span("core.extractor.train");
      return extractor.Train(space, items, item_labels);
    }();
    if (!trained) {
      outcome.error = "gold sample of " + op.column + " is one-class";
      return outcome;
    }
    const std::vector<bool> values = [&] {
      auto extract = span("core.extractor.extract");
      return extractor.ExtractAll(space);
    }();
    const Status filled = [&] {
      auto fill = span("db.fill");
      if (Status status = table.AddColumn({op.column, db::ColumnType::kBool});
          !status.ok()) {
        return status;
      }
      std::vector<db::Value> cells(table.num_rows());
      for (std::size_t row = 0; row < cells.size(); ++row) {
        cells[row] = db::Value(static_cast<bool>(values[row]));
      }
      return table.FillColumn(table.schema().num_columns() - 1, cells);
    }();
    if (!filled.ok()) {
      outcome.error = filled.ToString();
      return outcome;
    }
    result = [&] {
      auto scan = span("db.scan");
      return database.ExecuteSelect(statement.value());
    }();
    if (!result.ok()) {
      outcome.error = result.status().ToString();
      return outcome;
    }
    outcome.rows = result.value().num_rows();
    outcome.column = values;
    outcome.dollars = run.total_cost_dollars;
    outcome.minutes = run.total_minutes;

    counts.crowd_runs += 1;
    counts.judgments += static_cast<double>(run.judgments.size());
    counts.gold_posted += static_cast<double>(gold.size());
    counts.gold_classified += static_cast<double>(items.size());
    counts.trainings += 1;
    counts.support_vectors +=
        static_cast<double>(extractor.model().num_support_vectors());
    counts.items_extracted += static_cast<double>(space.num_items());
    counts.scans += 1;
    counts.rows_scanned += static_cast<double>(table.num_rows());
    counts.rows_returned += static_cast<double>(outcome.rows);
  }
  outcome.latency_ms = ElapsedMs(start);
  return outcome;
}

// ---- sql_select_100k --------------------------------------------------------

enum class SelectKind {
  kFilter,
  kAndNotLimit,
  kOrderByName,
  kGroupCount,
  kTopHumor,
};
constexpr std::size_t kSelectKinds = 5;

struct SelectOp {
  SelectKind kind = SelectKind::kFilter;
  std::size_t g1 = 0;
  std::size_t g2 = 0;
  std::string sql;
};

// Op `index` of the seeded stream: each block of (query shape x genre)
// cells visits every cell once, in an order drawn from the seed, and the
// second genre is drawn from the seed. A query's cost depends on its
// shape and on its genre's prevalence (8-45%), so a mix drawn op by op
// would move p95 from seed to seed.
SelectOp MakeSelectOp(const data::SyntheticWorld& world, std::uint64_t seed,
                      std::uint64_t index) {
  const std::size_t genres = world.num_genres();
  const std::size_t cells = kSelectKinds * genres;
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng block_rng(Mix(seed, index / cells));
  block_rng.Shuffle(order);
  const std::size_t cell = order[index % cells];
  Rng rng(Mix(~seed, index));

  SelectOp op;
  op.kind = static_cast<SelectKind>(cell / genres);
  op.g1 = cell % genres;
  op.g2 = (op.g1 + 1 + rng.UniformInt(genres - 1)) % genres;
  const std::string c1 = GenreColumn(world, op.g1);
  const std::string c2 = GenreColumn(world, op.g2);
  switch (op.kind) {
    case SelectKind::kFilter:
      op.sql = "SELECT item_id, name FROM movies WHERE " + c1 + " = true";
      break;
    case SelectKind::kAndNotLimit:
      op.sql = "SELECT item_id, name FROM movies WHERE " + c1 +
               " = true AND NOT " + c2 + " = true LIMIT 50";
      break;
    case SelectKind::kOrderByName:
      op.sql = "SELECT item_id, name FROM movies WHERE " + c1 +
               " = true ORDER BY name LIMIT 20";
      break;
    case SelectKind::kGroupCount:
      op.sql = "SELECT " + c1 + ", COUNT(*) FROM movies WHERE " + c2 +
               " = true GROUP BY " + c1;
      break;
    case SelectKind::kTopHumor:
      op.sql =
          "SELECT item_id, name, humor FROM movies WHERE humor >= 8 "
          "ORDER BY humor DESC LIMIT 10";
      break;
  }
  return op;
}

// Row count plus a fingerprint of the item ids in answer order (or of the
// (key, count) pairs of a GROUP BY).
struct Answer {
  std::size_t rows = 0;
  std::uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};

// Row-at-a-time reference evaluation over the world's own labels.
Answer OracleAnswer(const data::SyntheticWorld& world, const SelectOp& op) {
  const std::vector<bool>& l1 = world.GenreLabels(op.g1);
  const std::vector<bool>& l2 = world.GenreLabels(op.g2);
  const auto n = static_cast<std::uint32_t>(world.num_items());
  std::vector<std::int64_t> keys;
  std::vector<std::uint32_t> ids;
  switch (op.kind) {
    case SelectKind::kFilter:
      for (std::uint32_t m = 0; m < n; ++m) {
        if (l1[m]) keys.push_back(m);
      }
      return {keys.size(), HashValues(keys)};
    case SelectKind::kAndNotLimit:
      for (std::uint32_t m = 0; m < n && keys.size() < 50; ++m) {
        if (l1[m] && !l2[m]) keys.push_back(m);
      }
      return {keys.size(), HashValues(keys)};
    case SelectKind::kOrderByName:
      for (std::uint32_t m = 0; m < n; ++m) {
        if (l1[m]) ids.push_back(m);
      }
      std::stable_sort(ids.begin(), ids.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return world.ItemName(a) < world.ItemName(b);
                       });
      ids.resize(std::min<std::size_t>(ids.size(), 20));
      break;
    case SelectKind::kGroupCount: {
      std::vector<std::int64_t> group_keys;
      std::map<std::int64_t, std::int64_t> group_counts;
      for (std::uint32_t m = 0; m < n; ++m) {
        if (!l2[m]) continue;
        if (group_counts[l1[m]]++ == 0) group_keys.push_back(l1[m]);
      }
      for (std::int64_t key : group_keys) {
        keys.push_back(key);
        keys.push_back(group_counts[key]);
      }
      return {group_keys.size(), HashValues(keys)};
    }
    case SelectKind::kTopHumor:
      for (std::uint32_t m = 0; m < n; ++m) {
        if (Humor(world, m) >= 8.0) ids.push_back(m);
      }
      std::stable_sort(ids.begin(), ids.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return Humor(world, a) > Humor(world, b);
                       });
      ids.resize(std::min<std::size_t>(ids.size(), 10));
      break;
  }
  keys.assign(ids.begin(), ids.end());
  return {keys.size(), HashValues(keys)};
}

std::int64_t KeyOf(const db::Value& value) {
  if (const bool* b = std::get_if<bool>(&value)) return *b ? 1 : 0;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) return *i;
  return -1;
}

Answer ResultAnswer(const db::Table& result, SelectKind kind) {
  std::vector<std::int64_t> keys;
  for (std::size_t row = 0; row < result.num_rows(); ++row) {
    keys.push_back(KeyOf(result.Get(row, 0)));
    if (kind == SelectKind::kGroupCount) {
      keys.push_back(KeyOf(result.Get(row, 1)));
    }
  }
  return {result.num_rows(), HashValues(keys)};
}

}  // namespace

RunResult RunSqlExpand(const RunOptions& options, bool catalog_100k,
                       Trace& trace) {
  RunResult out;
  const data::WorldConfig world_config = catalog_100k
                                             ? World100k(options.smoke)
                                             : PaperWorld(options.smoke);
  const core::PerceptualSpaceOptions space_options =
      SpaceOptions(options.smoke);
  std::vector<SetupTimes> builds;
  Fixture fixture;
  while (MoreSetups(options, builds)) {
    ProbeHostSpeed(true);
    fixture = Fixture();  // release the previous build before the next
    fixture =
        BuildFixture(world_config, &space_options, TableKind::kFactual);
    builds.push_back(fixture.times);
  }
  AddSetupMetrics(builds, out);
  const data::SyntheticWorld& world = *fixture.world;
  out.Note("items", static_cast<double>(world.num_items()));
  out.Note("ratings", static_cast<double>(fixture.num_ratings));
  out.Note("dims", static_cast<double>(fixture.space->dims()));

  // The warm-up is one block of the op stream and the timed phase ends on a
  // block boundary, so every run times each cell equally often.
  const std::uint64_t block = world.num_genres() * std::size(kGoldSizes);
  const std::uint64_t warmup = options.smoke ? 1 : block;
  for (std::uint64_t index = 0; index < warmup; ++index) {
    const ExpandOutcome outcome =
        RunResolverOp(fixture, MakeExpandOp(world, options.seed, index));
    if (!outcome.error.empty()) out.Fail("warm-up: " + outcome.error);
  }
  out.Note("warmup_ops", static_cast<double>(warmup));

  std::vector<double> latencies, replica_latencies, gmeans;
  double busy_s = 0.0, dollars = 0.0, minutes = 0.0;
  LayerCounts counts;
  const double end = NowSeconds() + options.seconds;
  for (std::uint64_t k = 0;; ++k) {
    if (options.smoke ? k >= kSmokeOps
                      : NowSeconds() >= end && k % block == 0) {
      break;
    }
    ProbeHostSpeed();
    const std::uint64_t index = warmup + k;
    const ExpandOp op = MakeExpandOp(world, options.seed, index);
    ++out.attempted;
    // A traced run replays every op, alternating which path runs first;
    // an untraced run checks the replica on every 100th op.
    const bool replay = options.traced || k % 100 == 0;
    Trace* const op_trace = options.traced ? &trace : nullptr;
    std::optional<ExpandOutcome> replica;
    if (replay && k % 2 == 1) {
      replica = RunReplicaOp(fixture, op, op_trace, index, counts);
    }
    const ExpandOutcome outcome = RunResolverOp(fixture, op);
    if (replay && !replica.has_value()) {
      replica = RunReplicaOp(fixture, op, op_trace, index, counts);
    }

    latencies.push_back(outcome.latency_ms);
    if (!outcome.error.empty()) {
      ++out.failed;
      out.Fail(op.sql + ": " + outcome.error);
      continue;
    }
    busy_s += outcome.latency_ms * 1e-3;
    const auto filled = static_cast<std::size_t>(
        std::count(outcome.column.begin(), outcome.column.end(), true));
    if (outcome.rows != filled) {
      out.Fail(op.sql + ": returned " + std::to_string(outcome.rows) +
               " rows for " + std::to_string(filled) + " true cells");
    }
    if (replica.has_value()) {
      replica_latencies.push_back(replica->latency_ms);
      if (!replica->error.empty()) {
        out.Fail("replica of " + op.sql + ": " + replica->error);
      } else if (replica->column != outcome.column ||
                 replica->rows != outcome.rows) {
        out.Fail("op " + std::to_string(index) +
                 ": replica column differs from the resolver's");
      }
    }
    gmeans.push_back(GMeanOf(outcome.column, world.GenreLabels(op.genre)));
    dollars += outcome.dollars;
    minutes += outcome.minutes;
  }

  AddLatencyMetrics(latencies, busy_s, out);
  const double answered = static_cast<double>(gmeans.size());
  out.Add("gmean",
          std::accumulate(gmeans.begin(), gmeans.end(), 0.0) / answered,
          "ratio");
  out.Add("dollars_per_query", dollars / answered, "USD");
  out.Add("crowd_minutes_per_query", minutes / answered, "min");
  out.Note("replica_checks", static_cast<double>(replica_latencies.size()));
  if (options.traced) {
    AddLayerMetrics(trace, counts, Median(latencies),
                    Median(replica_latencies), out);
  }
  return out;
}

RunResult RunSqlSelect(const RunOptions& options, Trace& trace) {
  RunResult out;
  const data::WorldConfig world_config = World100k(options.smoke);
  std::vector<SetupTimes> builds;
  Fixture fixture;
  while (MoreSetups(options, builds)) {
    ProbeHostSpeed(true);
    fixture = Fixture();
    fixture =
        BuildFixture(world_config, nullptr, TableKind::kMaterialized);
    builds.push_back(fixture.times);
  }
  AddSetupMetrics(builds, out);
  const data::SyntheticWorld& world = *fixture.world;
  out.Note("items", static_cast<double>(world.num_items()));
  db::Database database;
  if (Status status = database.AddTable(std::move(fixture.movies));
      !status.ok()) {
    out.Fail(status.ToString());
    return out;
  }
  const db::Table& table = *database.FindTable("movies");

  // The columns were materialized from the reference labels; their g-mean
  // against the reference is the answer quality of a query over them.
  std::vector<double> column_gmean(world.num_genres(), 0.0);
  for (std::size_t g = 0; g < world.num_genres(); ++g) {
    const std::optional<std::vector<bool>> column =
        ReadBoolColumn(table, GenreColumn(world, g));
    if (column.has_value()) {
      column_gmean[g] = GMeanOf(*column, world.GenreLabels(g));
    }
  }

  std::map<std::string, Answer> oracle;  // by SQL text
  const auto check = [&](const SelectOp& op,
                         const StatusOr<db::Table>& result,
                         const char* path) {
    if (!result.ok()) {
      out.Fail(op.sql + ": " + result.status().ToString());
      return false;
    }
    auto [it, inserted] = oracle.try_emplace(op.sql);
    if (inserted) it->second = OracleAnswer(world, op);
    if (!(ResultAnswer(result.value(), op.kind) == it->second)) {
      out.Fail(std::string(path) + " answer differs from the reference: " +
               op.sql);
      return false;
    }
    return true;
  };

  LayerCounts counts;
  std::vector<double> replica_latencies;
  const auto replica = [&](const SelectOp& op, std::uint64_t request_id) {
    const std::int64_t start = NowNs();
    const StatusOr<db::Table> result = [&]() -> StatusOr<db::Table> {
      ScopedSpan root(&trace, "query", Trace::kRoot, request_id);
      StatusOr<db::SelectStatement> statement = [&] {
        ScopedSpan parse(&trace, "db.parse", root.index(), request_id);
        return db::ParseSelect(op.sql);
      }();
      if (!statement.ok()) return statement.status();
      ScopedSpan scan(&trace, "db.scan", root.index(), request_id);
      return database.ExecuteSelect(statement.value());
    }();
    replica_latencies.push_back(ElapsedMs(start));
    if (!check(op, result, "replica")) return;
    counts.scans += 1;
    counts.rows_scanned += static_cast<double>(table.num_rows());
    counts.rows_returned += static_cast<double>(result.value().num_rows());
  };

  // As in RunSqlExpand: one block of warm-up, whole blocks timed.
  const std::uint64_t block = kSelectKinds * world.num_genres();
  const std::uint64_t warmup = options.smoke ? 1 : block;
  for (std::uint64_t index = 0; index < warmup; ++index) {
    const SelectOp op = MakeSelectOp(world, options.seed, index);
    check(op, database.Execute(op.sql), "warm-up");
  }
  out.Note("warmup_ops", static_cast<double>(warmup));

  std::vector<double> latencies, gmeans;
  const double end = NowSeconds() + options.seconds;
  for (std::uint64_t k = 0;; ++k) {
    if (options.smoke ? k >= block : NowSeconds() >= end && k % block == 0) {
      break;
    }
    ProbeHostSpeed();
    const std::uint64_t index = warmup + k;
    const SelectOp op = MakeSelectOp(world, options.seed, index);
    ++out.attempted;
    // A traced run replays every op, alternating which path runs first.
    if (options.traced && k % 2 == 1) replica(op, index);
    const std::int64_t start = NowNs();
    const StatusOr<db::Table> result = database.Execute(op.sql);
    const double latency_ms = ElapsedMs(start);
    if (options.traced && k % 2 == 0) replica(op, index);
    if (!check(op, result, "query")) {
      ++out.failed;
      latencies.push_back(kInf);
      continue;
    }
    latencies.push_back(latency_ms);
    if (op.kind != SelectKind::kTopHumor) {
      gmeans.push_back(column_gmean[op.g1]);
    }
  }
  double busy_s = 0.0;
  for (double ms : latencies) {
    if (std::isfinite(ms)) busy_s += ms * 1e-3;
  }
  AddLatencyMetrics(latencies, busy_s, out);
  out.Add("gmean",
          std::accumulate(gmeans.begin(), gmeans.end(), 0.0) /
              static_cast<double>(gmeans.size()),
          "ratio");
  out.Add("dollars_per_query", 0.0, "USD");
  out.Add("crowd_minutes_per_query", 0.0, "min");
  if (options.traced) {
    AddLayerMetrics(trace, counts, Median(latencies),
                    Median(replica_latencies), out);
  }
  return out;
}

}  // namespace ccdb::e2e
