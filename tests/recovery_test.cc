// Kill-at-point-k recovery tests: arm a crash point, run a durable
// operation until it "dies" (a throwing trap unwinds back here instead of
// _exit'ing, so recovery runs in-process), then resume against the same
// journal and require the result to be bit-identical to an uninterrupted
// run — with every journaled judgment replayed instead of re-paid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/crash_point.h"
#include "common/deadline.h"
#include "common/journal.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/expansion_manifest.h"
#include "core/perceptual_space.h"
#include "crowd/dispatch_journal.h"
#include "crowd/dispatcher.h"
#include "crowd/platform.h"
#include "data/domains.h"
#include "data/synthetic_world.h"
#include "factorization/checkpoint.h"
#include "factorization/factor_model.h"
#include "factorization/sgd_trainer.h"

namespace ccdb {
namespace {

using crowd::DispatchResult;
using crowd::Dispatcher;
using crowd::DispatcherConfig;
using crowd::HitRunConfig;
using crowd::Judgment;
using crowd::WorkerPool;
using crowd::WorkerProfile;
using CrashPoints = ::ccdb::testing::CrashPoints;

/// What the throwing trap handler throws: unwinds out of the durable call
/// like a crash, but lets the test run recovery in the same process.
struct SimulatedCrash {
  std::string site;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CrashPoints::SetTrapHandler(
        [](const std::string& site) { throw SimulatedCrash{site}; });
  }
  void TearDown() override {
    CrashPoints::Disarm();
    CrashPoints::EnableTrace(false);
    CrashPoints::ClearTrace();
    CrashPoints::SetTrapHandler(nullptr);
  }
};

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  // The recovery ladder leaves rotated generations and forensic side files
  // (never deleted by the library) next to the base path; a fresh test must
  // clear them too, or a previous test-process run's generation would be
  // picked up as a valid resume point.
  std::remove(path.c_str());
  for (const char* suffix : {".1", ".2", ".3", ".corrupt", ".corrupt.1",
                             ".corrupt.2", ".1.corrupt", ".2.corrupt",
                             ".quarantine", ".tmp"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

std::vector<bool> MakeLabels(std::size_t n, double prevalence,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = rng.Bernoulli(prevalence);
  return labels;
}

WorkerPool HonestPool(std::size_t n) {
  WorkerPool pool;
  for (std::size_t i = 0; i < n; ++i) {
    WorkerProfile worker;
    worker.honest = true;
    worker.knowledge = 1.0;
    worker.accuracy = 0.95;
    worker.judgments_per_minute = 2.0;
    pool.workers.push_back(worker);
  }
  return pool;
}

void ExpectSameStream(const std::vector<Judgment>& a,
                      const std::vector<Judgment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "at " << i;
    EXPECT_EQ(a[i].worker, b[i].worker) << "at " << i;
    EXPECT_EQ(a[i].answer, b[i].answer) << "at " << i;
    EXPECT_EQ(a[i].timestamp_minutes, b[i].timestamp_minutes) << "at " << i;
    EXPECT_EQ(a[i].cost_dollars, b[i].cost_dollars) << "at " << i;
    EXPECT_EQ(a[i].is_gold, b[i].is_gold) << "at " << i;
  }
}

void ExpectSameDispatch(const DispatchResult& a, const DispatchResult& b) {
  ExpectSameStream(a.judgments, b.judgments);
  EXPECT_EQ(a.total_minutes, b.total_minutes);
  EXPECT_EQ(a.total_cost_dollars, b.total_cost_dollars);
  EXPECT_EQ(a.stats.repost_rounds, b.stats.repost_rounds);
  EXPECT_EQ(a.stats.reposted_items, b.stats.reposted_items);
  EXPECT_EQ(a.stats.duplicates_dropped, b.stats.duplicates_dropped);
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted);
}

// ----------------------------------------------------- dispatch recovery

/// A dispatch with enough faults to need repost rounds — the journal then
/// holds several postings, which is the interesting recovery surface.
struct DispatchScenario {
  std::vector<bool> labels = MakeLabels(60, 0.3, 17);
  WorkerPool pool = HonestPool(20);
  HitRunConfig hit;
  DispatcherConfig policy;

  DispatchScenario() {
    hit.judgments_per_item = 5;
    hit.seed = 18;
    hit.fault.abandonment_prob = 0.4;
    policy.deadline_minutes = 200.0;
    policy.max_reposts = 5;
    policy.backoff_initial_minutes = 2.0;
  }

  DispatchResult Baseline() const {
    auto result = Dispatcher(pool, policy).Run(labels, hit);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  }

  StatusOr<DispatchResult> RunDurable(const std::string& path) const {
    JournalOptions journal;
    journal.path = path;
    return Dispatcher(pool, policy).Run(labels, hit, &journal);
  }

  std::uint64_t Fingerprint() const {
    return crowd::DispatchFingerprint(pool, labels, hit, policy);
  }
};

/// The run frame of the journal at `path`, replayed against `fingerprint`.
StatusOr<RunFrame> ReadRunFrame(const std::string& path,
                                std::uint64_t fingerprint) {
  StatusOr<JournalContents> contents = ReadJournal(path);
  if (!contents.ok()) return contents.status();
  return ReplayRunFrame(contents.value().records, fingerprint);
}

/// The postings of the dispatch journal at `path`.
StatusOr<crowd::DispatchJournalState> ReadDispatchJournal(
    const std::string& path, const DispatchScenario& scenario) {
  StatusOr<RunFrame> frame = ReadRunFrame(path, scenario.Fingerprint());
  if (!frame.ok()) return frame.status();
  return crowd::ReplayDispatchJournal(frame.value().records);
}

/// Writes a run journal at `path` for the run `fingerprint` names, holding
/// `records` as the run's own records and, when `finished`, a finish
/// record: a journal whose CRCs hold, whatever its records say.
void WriteRunJournal(const std::string& path, std::uint64_t fingerprint,
                     const std::vector<std::string>& records, bool finished) {
  JournalOptions options;
  options.path = path;
  StatusOr<RunJournal> journal = RunJournal::Open(options, fingerprint);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  for (const std::string& record : records) {
    ASSERT_TRUE(journal.value().Append(record).ok());
  }
  if (finished) {
    ASSERT_TRUE(journal.value().Finish().ok());
  }
  ASSERT_TRUE(journal.value().Close().ok());
}

/// Writes `records` verbatim as the journal at `path`.
void WriteRawJournal(const std::string& path,
                     const std::vector<std::string>& records) {
  StatusOr<JournalWriter> writer = JournalWriter::Open(path, SyncPolicy::kNone);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::string& record : records) {
    ASSERT_TRUE(writer.value().Append(record).ok());
  }
  ASSERT_TRUE(writer.value().Close().ok());
}

TEST_F(RecoveryTest, FreshDurableDispatchMatchesPlainDispatcher) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();
  const std::string journal = FreshPath("fresh_dispatch.jnl");
  auto durable = scenario.RunDurable(journal);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ExpectSameDispatch(baseline, durable.value());
  // A run with no crash replays nothing.
  EXPECT_EQ(durable.value().stats.replayed_postings, 0u);
  EXPECT_EQ(durable.value().stats.replayed_judgments, 0u);
  EXPECT_EQ(durable.value().stats.replayed_dollars, 0.0);

  // The journal records a complete dispatch.
  auto frame = ReadRunFrame(journal, scenario.Fingerprint());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame.value().finished);
  auto state = ReadDispatchJournal(journal, scenario);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_GT(state.value().paid_judgments(), 0u);
}

TEST_F(RecoveryTest, ResumeOfCompletedDispatchReplaysEverything) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();
  const std::string journal = FreshPath("completed_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(journal).ok());

  auto state = ReadDispatchJournal(journal, scenario);
  ASSERT_TRUE(state.ok());

  auto resumed = scenario.RunDurable(journal);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameDispatch(baseline, resumed.value());
  EXPECT_GT(resumed.value().stats.replayed_postings, 0u);
  EXPECT_EQ(resumed.value().stats.replayed_judgments,
            state.value().paid_judgments());
  EXPECT_DOUBLE_EQ(resumed.value().stats.replayed_dollars,
                   state.value().paid_dollars());
}

TEST_F(RecoveryTest, KillAtEveryCrashPointThenResumeIsBitIdentical) {
  const DispatchScenario scenario;
  const DispatchResult baseline = scenario.Baseline();

  // Enumerate the crash surface of an uninterrupted durable run.
  CrashPoints::EnableTrace(true);
  ASSERT_TRUE(scenario.RunDurable(FreshPath("trace_dispatch.jnl")).ok());
  const std::vector<std::string> trace = CrashPoints::Trace();
  CrashPoints::EnableTrace(false);
  CrashPoints::ClearTrace();
  ASSERT_FALSE(trace.empty());

  std::map<std::string, std::uint64_t> site_counts;
  for (const std::string& site : trace) ++site_counts[site];
  ASSERT_TRUE(site_counts.count("dispatch.begin"));
  ASSERT_TRUE(site_counts.count("dispatch.judgment"));
  ASSERT_TRUE(site_counts.count("dispatch.posting_end"));
  ASSERT_TRUE(site_counts.count("dispatch.end"));

  int scenario_index = 0;
  for (const auto& [site, count] : site_counts) {
    // Killing at every single judgment append would run the dispatch
    // hundreds of times; first, middle and last occurrence cover the
    // empty-prefix, partial-posting and complete-posting cases.
    std::set<std::uint64_t> hits = {1, (count + 1) / 2, count};
    for (std::uint64_t hit : hits) {
      SCOPED_TRACE(site + ":" + std::to_string(hit));
      const std::string journal = FreshPath(
          "kill_" + std::to_string(scenario_index++) + ".jnl");

      CrashPoints::Arm(site, hit);
      bool crashed = false;
      try {
        auto result = scenario.RunDurable(journal);
        // ccdb-lint: allow(status-nodiscard) — the run is expected to die at
        // the armed crash point; the result is unreachable on the crash path.
        (void)result;
      } catch (const SimulatedCrash& crash) {
        crashed = true;
        EXPECT_EQ(crash.site, site);
      }
      CrashPoints::Disarm();
      ASSERT_TRUE(crashed);

      // What the journal says was paid before the crash is exactly what
      // the resume must replay instead of buying again.
      auto state = ReadDispatchJournal(journal, scenario);
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      const double paid_before = state.value().paid_dollars();
      const std::size_t judged_before = state.value().paid_judgments();

      auto resumed = scenario.RunDurable(journal);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectSameDispatch(baseline, resumed.value());
      EXPECT_EQ(resumed.value().stats.replayed_judgments, judged_before);
      EXPECT_DOUBLE_EQ(resumed.value().stats.replayed_dollars, paid_before);
    }
  }
}

TEST_F(RecoveryTest, DispatchJournalOfDifferentRunIsRejected) {
  const DispatchScenario scenario;
  const std::string journal = FreshPath("mismatch_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(journal).ok());

  DispatchScenario other = scenario;
  other.hit.seed = 9999;  // different dispatch, same journal
  auto resumed = other.RunDurable(journal);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

/// Splices the begin record of run A's complete journal and the finish
/// record of run B's into one journal, in both orders, and expects
/// `resume_a` to refuse each: the journal holds two runs either way.
template <typename Resume>
void ExpectSplicedFrameRefused(const std::string& journal_a,
                               const std::string& journal_b,
                               const Resume& resume_a) {
  const StatusOr<JournalContents> a = ReadJournal(journal_a);
  const StatusOr<JournalContents> b = ReadJournal(journal_b);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string& begin_a = a.value().records.front();
  const std::string& finish_b = b.value().records.back();
  for (const bool finish_first : {false, true}) {
    SCOPED_TRACE(finish_first ? "[finish B, begin A]" : "[begin A, finish B]");
    const std::string spliced = FreshPath("spliced.jnl");
    WriteRawJournal(spliced, finish_first
                                 ? std::vector<std::string>{finish_b, begin_a}
                                 : std::vector<std::string>{begin_a, finish_b});
    EXPECT_EQ(resume_a(spliced).code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(RecoveryTest, DispatchFrameOfTwoRunsIsRejectedInEitherOrder) {
  const DispatchScenario a;
  DispatchScenario b = a;
  b.hit.seed = 9999;
  const std::string journal_a = FreshPath("frame_a_dispatch.jnl");
  const std::string journal_b = FreshPath("frame_b_dispatch.jnl");
  ASSERT_TRUE(a.RunDurable(journal_a).ok());
  ASSERT_TRUE(b.RunDurable(journal_b).ok());
  ExpectSplicedFrameRefused(journal_a, journal_b, [&](const std::string& path) {
    return a.RunDurable(path).status();
  });
}

// A dispatch's run records open with their type byte; offsets into a
// journaled judgment, [u8 type 2][u64 round][u64 seq] followed by
// PutJudgment's fields.
constexpr char kPostingBeginRecord = 1;
constexpr char kJudgmentRecord = 2;
constexpr std::size_t kItemAt = 1 + 8 + 8;
constexpr std::size_t kWorkerAt = kItemAt + 4;
constexpr std::size_t kAnswerAt = kWorkerAt + 4;
constexpr std::size_t kGoldAt = kAnswerAt + 1 + 8 + 8;

void PutU32At(std::string& bytes, std::size_t at, std::uint32_t value) {
  ByteWriter w;
  w.PutU32(value);
  bytes.replace(at, 4, w.bytes());
}

TEST_F(RecoveryTest, ResumeRefusesJournaledJudgmentsOutsideTheirPosting) {
  // A complete journal whose first judgment is patched and whose records
  // are rewritten, so every CRC holds. Replayed verbatim, such a judgment
  // indexed the dispatcher's per-item state past its end, or came back as
  // a paid judgment that never was. The dispatch waits forever, so its
  // one posting is replayed whole and no repost depends on the patch.
  DispatchScenario scenario;
  scenario.policy = DispatcherConfig{};
  const std::string source = FreshPath("patch_source_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(source).ok());
  const StatusOr<RunFrame> frame =
      ReadRunFrame(source, scenario.Fingerprint());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const std::vector<std::string>& records = frame.value().records;
  const auto first_judgment =
      std::find_if(records.begin(), records.end(), [](const std::string& r) {
        return r[0] == kJudgmentRecord;
      });
  ASSERT_NE(first_judgment, records.end());
  ASSERT_EQ(first_judgment->at(kGoldAt), 0);

  const auto n = static_cast<std::uint32_t>(scenario.labels.size());
  const auto golds =
      static_cast<std::uint32_t>(scenario.hit.num_gold_questions);
  const struct {
    const char* what;
    std::function<void(std::string&)> patch;
  } kPatches[] = {
      {"item n of an n-item sample",
       [&](std::string& r) { PutU32At(r, kItemAt, n); }},
      {"gold probe past the sample and its gold questions",
       [&](std::string& r) {
         PutU32At(r, kItemAt, n + golds);
         r[kGoldAt] = 1;
       }},
      {"answer byte that is no Answer",
       [](std::string& r) { r[kAnswerAt] = 3; }},
  };
  for (const auto& patch : kPatches) {
    SCOPED_TRACE(patch.what);
    std::vector<std::string> patched = records;
    patch.patch(patched[first_judgment - records.begin()]);
    const std::string path = FreshPath("patched_dispatch.jnl");
    WriteRunJournal(path, scenario.Fingerprint(), patched, /*finished=*/true);
    EXPECT_EQ(scenario.RunDurable(path).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(RecoveryTest, ResumeRefusesAPartialPostingTheRerunDoesNotDeliver) {
  // A crash mid-posting leaves its posting-begin and a prefix of its
  // judgments; a resume counts that prefix as replayed and re-runs the
  // posting. Here the prefix's first judgment names another worker, with
  // every CRC intact: the re-run does not deliver it, so the resume must
  // refuse the journal. Otherwise it returned the re-run's judgment while
  // the journal kept the patched one, which the next resume replayed.
  DispatchScenario scenario;
  scenario.policy = DispatcherConfig{};
  const std::string source = FreshPath("partial_source_dispatch.jnl");
  ASSERT_TRUE(scenario.RunDurable(source).ok());
  const StatusOr<RunFrame> frame =
      ReadRunFrame(source, scenario.Fingerprint());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  std::vector<std::string> partial;
  for (const std::string& record : frame.value().records) {
    const bool judgment = record[0] == kJudgmentRecord;
    if (record[0] == kPostingBeginRecord || (judgment && partial.size() < 6)) {
      partial.push_back(record);
    }
  }
  ASSERT_EQ(partial.size(), 6u);
  ASSERT_EQ(partial[1][0], kJudgmentRecord);
  ByteReader worker(std::string_view(partial[1]).substr(kWorkerAt));
  PutU32At(partial[1], kWorkerAt,
           (worker.GetU32() + 1) % scenario.pool.workers.size());
  const std::string path = FreshPath("partial_dispatch.jnl");
  WriteRunJournal(path, scenario.Fingerprint(), partial, /*finished=*/false);
  EXPECT_EQ(scenario.RunDurable(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, DispatchJournalOfTheOlderLayoutIsRefused) {
  // What a crash right after the begin record left in the layout before
  // the run frame was shared: [u8 1][u64 fingerprint][u64 items]. It holds
  // no record of the current layout, so it must be refused, not resumed as
  // an empty journal.
  const DispatchScenario scenario;
  ByteWriter begin;
  begin.PutU8(1);
  begin.PutU64(scenario.Fingerprint());
  begin.PutU64(scenario.labels.size());
  const std::string path = FreshPath("older_layout_dispatch.jnl");
  WriteRawJournal(path, {begin.Take()});
  EXPECT_EQ(scenario.RunDurable(path).status().code(),
            StatusCode::kInvalidArgument);
}

// A field missing from a fingerprint would let a resume splice a journal
// written for other inputs into this run, so changing any identity field
// must change it. The caller-side stop signal is not an input and must not.
TEST_F(RecoveryTest, DispatchFingerprintCoversEveryIdentityField) {
  using S = DispatchScenario;
  const S base;
  const auto fingerprint = [](const S& s) {
    return crowd::DispatchFingerprint(s.pool, s.labels, s.hit, s.policy);
  };
  S stopped = base;
  stopped.policy.stop = StopCondition(Deadline::AfterSeconds(0.0));
  EXPECT_EQ(fingerprint(stopped), fingerprint(base));

  const struct {
    const char* field;
    void (*mutate)(S&);
  } kChanges[] = {
      {"label", [](S& s) { s.labels[3] = !s.labels[3]; }},
      {"worker", [](S& s) { s.pool.workers[2].accuracy = 0.5; }},
      {"hit.judgments_per_item", [](S& s) { ++s.hit.judgments_per_item; }},
      {"hit.items_per_hit", [](S& s) { ++s.hit.items_per_hit; }},
      {"hit.payment_per_hit", [](S& s) { s.hit.payment_per_hit = 0.05; }},
      {"hit.allow_dont_know",
       [](S& s) { s.hit.allow_dont_know = !s.hit.allow_dont_know; }},
      {"hit.lookup_mode", [](S& s) { s.hit.lookup_mode = !s.hit.lookup_mode; }},
      {"hit.lookup_consensus_flip_rate",
       [](S& s) { s.hit.lookup_consensus_flip_rate = 0.2; }},
      {"hit.lookup_contested_rate",
       [](S& s) { s.hit.lookup_contested_rate = 0.2; }},
      {"hit.perception_flip_rate",
       [](S& s) { s.hit.perception_flip_rate = 0.2; }},
      {"hit.num_gold_questions", [](S& s) { ++s.hit.num_gold_questions; }},
      {"hit.gold_exclusion_threshold",
       [](S& s) { s.hit.gold_exclusion_threshold = 0.5; }},
      {"hit.gold_min_probes", [](S& s) { ++s.hit.gold_min_probes; }},
      {"hit.seed", [](S& s) { ++s.hit.seed; }},
      {"fault.abandonment_prob",
       [](S& s) { s.hit.fault.abandonment_prob = 0.1; }},
      {"fault.abandon_time_fraction",
       [](S& s) { s.hit.fault.abandon_time_fraction = 0.9; }},
      {"fault.straggler_fraction",
       [](S& s) { s.hit.fault.straggler_fraction = 0.1; }},
      {"fault.straggler_pareto_alpha",
       [](S& s) { s.hit.fault.straggler_pareto_alpha = 2.5; }},
      {"fault.churn_prob", [](S& s) { s.hit.fault.churn_prob = 0.1; }},
      {"fault.churn_window_minutes",
       [](S& s) { s.hit.fault.churn_window_minutes = 60.0; }},
      {"fault.duplicate_prob", [](S& s) { s.hit.fault.duplicate_prob = 0.1; }},
      {"fault.duplicate_delay_minutes",
       [](S& s) { s.hit.fault.duplicate_delay_minutes = 5.0; }},
      {"fault.late_prob", [](S& s) { s.hit.fault.late_prob = 0.1; }},
      {"fault.late_mean_delay_minutes",
       [](S& s) { s.hit.fault.late_mean_delay_minutes = 5.0; }},
      {"fault.spam_burst_prob",
       [](S& s) { s.hit.fault.spam_burst_prob = 0.1; }},
      {"fault.spam_burst_window_minutes",
       [](S& s) { s.hit.fault.spam_burst_window_minutes = 60.0; }},
      {"fault.spam_burst_duration_minutes",
       [](S& s) { s.hit.fault.spam_burst_duration_minutes = 5.0; }},
      {"fault.spam_burst_intensity",
       [](S& s) { s.hit.fault.spam_burst_intensity = 0.5; }},
      {"fault.spam_burst_positive_bias",
       [](S& s) { s.hit.fault.spam_burst_positive_bias = 0.5; }},
      {"fault.seed", [](S& s) { ++s.hit.fault.seed; }},
      {"policy.deadline_minutes",
       [](S& s) { s.policy.deadline_minutes = 100.0; }},
      {"policy.max_reposts", [](S& s) { ++s.policy.max_reposts; }},
      {"policy.backoff_initial_minutes",
       [](S& s) { s.policy.backoff_initial_minutes = 1.0; }},
      {"policy.max_dollars", [](S& s) { s.policy.max_dollars = 5.0; }},
  };
  for (const auto& change : kChanges) {
    S changed = base;
    change.mutate(changed);
    EXPECT_NE(fingerprint(changed), fingerprint(base)) << change.field;
  }
}

TEST(ExpansionFingerprintTest, CoversEveryIdentityField) {
  struct Inputs {
    std::vector<std::uint32_t> items = {4, 8, 15};
    std::vector<Judgment> judgments = {
        {0, 1, crowd::Answer::kPositive, 1.5, 0.002, false},
        {2, 3, crowd::Answer::kNegative, 2.5, 0.002, false}};
    double total_minutes = 30.0;
    core::IncrementalExpansionOptions options;
  };
  const auto fingerprint = [](const Inputs& in) {
    return core::ExpansionFingerprint(in.items, in.judgments,
                                      in.total_minutes, in.options);
  };
  const Inputs base;
  Inputs stopped;
  stopped.options.stop = StopCondition(Deadline::AfterSeconds(0.0));
  stopped.options.extractor.smo.stop = stopped.options.stop;
  EXPECT_EQ(fingerprint(stopped), fingerprint(base));

  const struct {
    const char* field;
    void (*mutate)(Inputs&);
  } kChanges[] = {
      {"item", [](Inputs& in) { ++in.items[1]; }},
      {"judgment.item", [](Inputs& in) { ++in.judgments[1].item; }},
      {"judgment.worker", [](Inputs& in) { ++in.judgments[1].worker; }},
      {"judgment.answer",
       [](Inputs& in) { in.judgments[1].answer = crowd::Answer::kDontKnow; }},
      {"judgment.timestamp_minutes",
       [](Inputs& in) { in.judgments[1].timestamp_minutes = 3.0; }},
      {"judgment.cost_dollars",
       [](Inputs& in) { in.judgments[1].cost_dollars = 0.003; }},
      {"judgment.is_gold", [](Inputs& in) { in.judgments[1].is_gold = true; }},
      {"total_minutes", [](Inputs& in) { in.total_minutes = 25.0; }},
      {"checkpoint_interval_minutes",
       [](Inputs& in) { in.options.checkpoint_interval_minutes = 2.0; }},
      {"max_dollars", [](Inputs& in) { in.options.max_dollars = 1.0; }},
      {"extractor.kernel.gamma",
       [](Inputs& in) { in.options.extractor.kernel.gamma = 0.5; }},
      {"extractor.gamma_scale",
       [](Inputs& in) { in.options.extractor.gamma_scale = 0.5; }},
      {"extractor.cost", [](Inputs& in) { in.options.extractor.cost = 1.0; }},
      {"extractor.balance_class_costs",
       [](Inputs& in) { in.options.extractor.balance_class_costs = true; }},
      {"extractor.epsilon",
       [](Inputs& in) { in.options.extractor.epsilon = 0.2; }},
      {"extractor.smo.max_iterations",
       [](Inputs& in) { ++in.options.extractor.smo.max_iterations; }},
  };
  for (const auto& change : kChanges) {
    Inputs changed;
    change.mutate(changed);
    EXPECT_NE(fingerprint(changed), fingerprint(base)) << change.field;
  }
}

// ---------------------------------------------------- expansion recovery

class ExpansionRecoveryTest : public RecoveryTest {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::SyntheticWorld(data::TinyConfig());
    const RatingDataset ratings = world_->SampleRatings();
    core::PerceptualSpaceOptions options;
    options.model.dims = 16;
    options.trainer.max_epochs = 12;
    options.trainer.learning_rate = 0.02;
    space_ = new core::PerceptualSpace(
        core::PerceptualSpace::Build(ratings, options));

    Rng rng(29);
    for (std::size_t index :
         rng.SampleWithoutReplacement(world_->num_items(), 120)) {
      sample_.push_back(static_cast<std::uint32_t>(index));
    }
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      for (int vote = 0; vote < 3; ++vote) {
        Judgment judgment;
        judgment.item = static_cast<std::uint32_t>(i);
        judgment.answer = world_->GenreLabel(0, sample_[i])
                              ? crowd::Answer::kPositive
                              : crowd::Answer::kNegative;
        judgment.timestamp_minutes = rng.Uniform(0.0, 30.0);
        judgment.cost_dollars = 0.002;
        judgments_.push_back(judgment);
      }
    }
    std::sort(judgments_.begin(), judgments_.end(),
              [](const Judgment& a, const Judgment& b) {
                return a.timestamp_minutes < b.timestamp_minutes;
              });
  }
  static void TearDownTestSuite() {
    delete space_;
    delete world_;
    space_ = nullptr;
    world_ = nullptr;
    sample_.clear();
    judgments_.clear();
  }

  static core::IncrementalExpansionOptions Options() {
    core::IncrementalExpansionOptions options;
    options.checkpoint_interval_minutes = 5.0;
    return options;
  }

  static StatusOr<std::vector<core::ExpansionCheckpoint>> RunDurable(
      const std::string& path, double total_minutes = 30.0) {
    JournalOptions journal;
    journal.path = path;
    return core::RunIncrementalExpansion(*space_, sample_, judgments_,
                                         total_minutes, Options(), &journal);
  }

  static std::uint64_t Fingerprint() {
    return core::ExpansionFingerprint(sample_, judgments_, 30.0, Options());
  }

  /// The journal-free run every durable run must reproduce.
  static std::vector<core::ExpansionCheckpoint> Baseline() {
    auto baseline =
        RunIncrementalExpansion(*space_, sample_, judgments_, 30.0, Options());
    EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
    return baseline.ok() ? baseline.value()
                         : std::vector<core::ExpansionCheckpoint>{};
  }

  static void ExpectSameCheckpoints(
      const std::vector<core::ExpansionCheckpoint>& a,
      const std::vector<core::ExpansionCheckpoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].minutes, b[i].minutes) << "checkpoint " << i;
      EXPECT_EQ(a[i].dollars_spent, b[i].dollars_spent) << "checkpoint " << i;
      EXPECT_EQ(a[i].training_size, b[i].training_size) << "checkpoint " << i;
      EXPECT_EQ(a[i].crowd_classification, b[i].crowd_classification)
          << "checkpoint " << i;
      EXPECT_EQ(a[i].extracted, b[i].extracted) << "checkpoint " << i;
      EXPECT_EQ(a[i].extractor_trained, b[i].extractor_trained)
          << "checkpoint " << i;
    }
  }

  static data::SyntheticWorld* world_;
  static core::PerceptualSpace* space_;
  static std::vector<std::uint32_t> sample_;
  static std::vector<Judgment> judgments_;
};

data::SyntheticWorld* ExpansionRecoveryTest::world_ = nullptr;
core::PerceptualSpace* ExpansionRecoveryTest::space_ = nullptr;
std::vector<std::uint32_t> ExpansionRecoveryTest::sample_;
std::vector<Judgment> ExpansionRecoveryTest::judgments_;

TEST_F(ExpansionRecoveryTest, DurableRunMatchesPlainExpansion) {
  const auto baseline = Baseline();
  const std::string path = FreshPath("fresh_expansion.jnl");
  auto result = RunDurable(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameCheckpoints(baseline, result.value());

  auto frame = ReadRunFrame(path, Fingerprint());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame.value().finished);
  auto checkpoints =
      core::ReplayExpansionManifest(frame.value().records, sample_.size());
  ASSERT_TRUE(checkpoints.ok()) << checkpoints.status().ToString();
  ExpectSameCheckpoints(baseline, checkpoints.value());
}

TEST_F(ExpansionRecoveryTest, KillAtEveryCheckpointThenResumeIsBitIdentical) {
  const auto baseline = Baseline();
  ASSERT_EQ(baseline.size(), 6u);

  for (const std::string& site :
       {std::string("expansion.begin"), std::string("expansion.checkpoint"),
        std::string("expansion.finish")}) {
    const std::uint64_t occurrences =
        site == "expansion.checkpoint" ? baseline.size() : 1;
    for (std::uint64_t hit = 1; hit <= occurrences; ++hit) {
      SCOPED_TRACE(site + ":" + std::to_string(hit));
      const std::string path =
          FreshPath("kill_expansion_" + site + std::to_string(hit) + ".jnl");

      CrashPoints::Arm(site, hit);
      bool crashed = false;
      try {
        auto result = RunDurable(path);
        // ccdb-lint: allow(status-nodiscard) — the run is expected to die at
        // the armed crash point; the result is unreachable on the crash path.
        (void)result;
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      CrashPoints::Disarm();
      ASSERT_TRUE(crashed);

      auto resumed = RunDurable(path);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectSameCheckpoints(baseline, resumed.value());
    }
  }
}

TEST_F(ExpansionRecoveryTest, ManifestOfDifferentExpansionIsRejected) {
  const std::string path = FreshPath("mismatch_expansion.jnl");
  ASSERT_TRUE(RunDurable(path).ok());
  // Same manifest, shorter run: different fingerprint.
  EXPECT_EQ(RunDurable(path, 25.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExpansionRecoveryTest, ManifestFrameOfTwoRunsIsRejectedInEitherOrder) {
  const std::string journal_a = FreshPath("frame_a_expansion.jnl");
  const std::string journal_b = FreshPath("frame_b_expansion.jnl");
  ASSERT_TRUE(RunDurable(journal_a).ok());
  ASSERT_TRUE(RunDurable(journal_b, 25.0).ok());
  ExpectSplicedFrameRefused(journal_a, journal_b, [](const std::string& path) {
    return RunDurable(path).status();
  });
}

TEST_F(ExpansionRecoveryTest, ResumeRefusesCheckpointsThatDoNotFitTheSample) {
  // A manifest whose first checkpoint, written through the run journal so
  // every CRC holds, does not fit the sample. Loaded verbatim, it handed
  // the benches vectors they index by sample position.
  const auto baseline = Baseline();
  const auto trained = std::find_if(
      baseline.begin(), baseline.end(),
      [](const core::ExpansionCheckpoint& c) { return c.extractor_trained; });
  ASSERT_NE(trained, baseline.end());
  const struct {
    const char* what;
    void (*patch)(core::ExpansionCheckpoint&);
  } kPatches[] = {
      {"one crowd classification short",
       [](core::ExpansionCheckpoint& c) { c.crowd_classification.pop_back(); }},
      {"one extracted label short",
       [](core::ExpansionCheckpoint& c) { c.extracted.pop_back(); }},
      {"labels without a trained extractor",
       [](core::ExpansionCheckpoint& c) { c.extractor_trained = false; }},
  };
  for (const auto& patch : kPatches) {
    SCOPED_TRACE(patch.what);
    core::ExpansionCheckpoint misfit = *trained;
    patch.patch(misfit);
    const std::string path = FreshPath("misfit_expansion.jnl");
    WriteRunJournal(path, Fingerprint(),
                    {core::EncodeManifestRecord(0, misfit)},
                    /*finished=*/false);
    EXPECT_EQ(RunDurable(path).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ExpansionRecoveryTest, ManifestOfTheOlderLayoutIsRefused) {
  // A complete manifest in the layout before the run frame was shared:
  // [u8 1][u64 fingerprint] begin, [u8 2][u64 index][bytes checkpoint]
  // per checkpoint, [u8 3][u64 fingerprint] finish. It must be refused,
  // not replayed.
  std::vector<std::string> records;
  ByteWriter begin;
  begin.PutU8(1);
  begin.PutU64(Fingerprint());
  records.push_back(begin.Take());
  const auto baseline = Baseline();
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ByteWriter checkpoint;
    checkpoint.PutU8(2);
    checkpoint.PutU64(i);
    checkpoint.PutBytes(core::EncodeExpansionCheckpoint(baseline[i]));
    records.push_back(checkpoint.Take());
  }
  ByteWriter finish;
  finish.PutU8(3);
  finish.PutU64(Fingerprint());
  records.push_back(finish.Take());
  const std::string path = FreshPath("older_layout_expansion.jnl");
  WriteRawJournal(path, records);
  EXPECT_EQ(RunDurable(path).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ replay properties

/// What a replayed journal claims is durable, one string per unit: each
/// journaled judgment and each complete posting of a dispatch, or each
/// checkpoint of a manifest.
struct Claims {
  bool begun = false;
  bool finished = false;
  std::set<std::string> units;
};

void ExpectSameClaims(const Claims& a, const Claims& b) {
  EXPECT_EQ(a.begun, b.begun);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.units, b.units);
}

/// One journal kind under the replay properties: the records of a real,
/// complete journal of it, and what a replay of any records claims.
struct JournalKind {
  std::string name;
  std::vector<std::string> records;
  std::function<StatusOr<Claims>(const std::vector<std::string>&)> replay;
};

std::vector<std::string> JournalRecords(const std::string& path) {
  const StatusOr<JournalContents> contents = ReadJournal(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value().records : std::vector<std::string>();
}

/// A dispatch with repost rounds, so its journal holds several postings.
JournalKind DispatchKind(std::uint64_t seed) {
  DispatchScenario scenario;
  scenario.hit.seed = seed;
  const std::string path = FreshPath("replay_property_dispatch.jnl");
  EXPECT_TRUE(scenario.RunDurable(path).ok());
  const auto replay =
      [scenario](const std::vector<std::string>& records) -> StatusOr<Claims> {
    const StatusOr<RunFrame> frame =
        ReplayRunFrame(records, scenario.Fingerprint());
    if (!frame.ok()) return frame.status();
    const StatusOr<crowd::DispatchJournalState> state =
        crowd::ReplayDispatchJournal(frame.value().records);
    if (!state.ok()) return state.status();
    Claims claims{frame.value().begun, frame.value().finished, {}};
    for (const auto& [round, posting] : state.value().postings) {
      const std::vector<Judgment>& judgments = posting.run.judgments;
      for (std::size_t seq = 0; seq < judgments.size(); ++seq) {
        ByteWriter unit;
        unit.PutU64(round);
        unit.PutU64(seq);
        crowd::PutJudgment(unit, judgments[seq]);
        claims.units.insert(unit.Take());
      }
      if (posting.complete) {
        claims.units.insert("posting " + std::to_string(round) + " of " +
                            std::to_string(judgments.size()));
      }
    }
    return claims;
  };
  return {"dispatch", JournalRecords(path), replay};
}

class JournalReplayProperty
    : public ExpansionRecoveryTest,
      public ::testing::WithParamInterface<std::uint64_t> {
 protected:
  static JournalKind ManifestKind() {
    const std::string path = FreshPath("replay_property_expansion.jnl");
    EXPECT_TRUE(RunDurable(path).ok());
    const auto replay =
        [](const std::vector<std::string>& records) -> StatusOr<Claims> {
      const StatusOr<RunFrame> frame = ReplayRunFrame(records, Fingerprint());
      if (!frame.ok()) return frame.status();
      const StatusOr<std::vector<core::ExpansionCheckpoint>> checkpoints =
          core::ReplayExpansionManifest(frame.value().records, sample_.size());
      if (!checkpoints.ok()) return checkpoints.status();
      Claims claims{frame.value().begun, frame.value().finished, {}};
      for (std::size_t i = 0; i < checkpoints.value().size(); ++i) {
        claims.units.insert(
            core::EncodeManifestRecord(i, checkpoints.value()[i]));
      }
      return claims;
    };
    return {"manifest", JournalRecords(path), replay};
  }

  std::vector<JournalKind> Kinds() const {
    return {DispatchKind(GetParam()), ManifestKind()};
  }
};

TEST_P(JournalReplayProperty, ReplayIsIdempotentUnderDuplication) {
  for (const JournalKind& kind : Kinds()) {
    SCOPED_TRACE(kind.name);
    ASSERT_FALSE(kind.records.empty());
    const auto once = kind.replay(kind.records);
    ASSERT_TRUE(once.ok()) << once.status().ToString();

    // A doubly-delivered log (every record appears twice, in order) must
    // rebuild the identical state.
    std::vector<std::string> doubled = kind.records;
    doubled.insert(doubled.end(), kind.records.begin(), kind.records.end());
    const auto twice = kind.replay(doubled);
    ASSERT_TRUE(twice.ok()) << twice.status().ToString();
    ExpectSameClaims(once.value(), twice.value());
  }
}

TEST_P(JournalReplayProperty, ReplayIsInsensitiveToReordering) {
  Rng rng(GetParam() * 31 + 7);
  for (const JournalKind& kind : Kinds()) {
    SCOPED_TRACE(kind.name);
    const auto in_order = kind.replay(kind.records);
    ASSERT_TRUE(in_order.ok()) << in_order.status().ToString();
    for (int trial = 0; trial < 10; ++trial) {
      // Shuffle the whole log: every record carries its identity, so even
      // a fully reordered (late-delivered) log rebuilds the same state.
      std::vector<std::string> shuffled = kind.records;
      rng.Shuffle(shuffled);
      const auto replayed = kind.replay(shuffled);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      ExpectSameClaims(in_order.value(), replayed.value());
    }
  }
}

TEST_P(JournalReplayProperty, DuplicatedAndReorderedAndLateDeliveries) {
  Rng rng(GetParam() * 17 + 3);
  for (const JournalKind& kind : Kinds()) {
    SCOPED_TRACE(kind.name);
    const auto reference = kind.replay(kind.records);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int trial = 0; trial < 10; ++trial) {
      // Adversarial delivery: random subset duplicated (some records
      // appear 2-3 times), then the whole log shuffled — duplication,
      // reordering and late delivery at once.
      std::vector<std::string> mangled = kind.records;
      for (const std::string& record : kind.records) {
        const std::size_t copies = rng.UniformInt(3);  // 0, 1 or 2 extras
        for (std::size_t c = 0; c < copies; ++c) mangled.push_back(record);
      }
      rng.Shuffle(mangled);
      const auto replayed = kind.replay(mangled);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      ExpectSameClaims(reference.value(), replayed.value());
    }
  }
}

TEST_P(JournalReplayProperty, TruncatedPrefixNeverOverclaims) {
  // Replaying only a prefix of the log (what a crash leaves behind) must
  // claim a subset of what the full log claims: no judgment, complete
  // posting or checkpoint the full log does not hold, and no finish.
  for (const JournalKind& kind : Kinds()) {
    SCOPED_TRACE(kind.name);
    const auto full = kind.replay(kind.records);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    for (std::size_t len = 0; len <= kind.records.size(); ++len) {
      const std::vector<std::string> prefix(kind.records.begin(),
                                            kind.records.begin() + len);
      const auto replayed = kind.replay(prefix);
      ASSERT_TRUE(replayed.ok()) << "prefix " << len;
      EXPECT_TRUE(std::includes(full.value().units.begin(),
                                full.value().units.end(),
                                replayed.value().units.begin(),
                                replayed.value().units.end()))
          << "prefix " << len;
      EXPECT_EQ(replayed.value().finished, len == kind.records.size())
          << "prefix " << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalReplayProperty,
                         ::testing::Values(11u, 77u, 4242u));

// ------------------------------------------------------ trainer recovery

class TrainerRecoveryTest : public RecoveryTest {
 protected:
  static RatingDataset MakeData(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Rating> ratings;
    for (std::uint32_t m = 0; m < 30; ++m) {
      for (std::uint32_t u = 0; u < 40; ++u) {
        if (!rng.Bernoulli(0.4)) continue;
        ratings.push_back(
            {m, u, static_cast<float>(rng.Uniform(1.0, 5.0))});
      }
    }
    return RatingDataset(30, 40, std::move(ratings));
  }

  static void ExpectSameModel(const factorization::FactorModel& a,
                              const factorization::FactorModel& b) {
    // Bitwise equality of the full trainable state.
    EXPECT_EQ(factorization::EncodeFactorModel(a),
              factorization::EncodeFactorModel(b));
  }
};

TEST_F(TrainerRecoveryTest, SgdCrashAtCheckpointThenResumeIsBitIdentical) {
  const RatingDataset data = MakeData(41);
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 8;
  trainer.learning_rate = 0.02;
  trainer.validation_fraction = 0.2;
  trainer.patience = 4;

  // Both model kinds: the Euclidean embedding the paper's space uses and
  // the SVD dot-product model ablation_space compares it against.
  for (const auto& [kind, kind_name] :
       {std::pair{factorization::ModelKind::kEuclideanEmbedding, "euclid"},
        std::pair{factorization::ModelKind::kSvdDotProduct, "svd"}}) {
    SCOPED_TRACE(kind_name);
    factorization::FactorModelConfig model_config;
    model_config.kind = kind;
    model_config.dims = 8;

    factorization::FactorModel reference(model_config, data);
    const auto trained = TrainSgd(trainer, data, reference);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    const factorization::TrainingReport& baseline = trained.value();

    // One snapshot per completed epoch; early stopping may end the run
    // before max_epochs, so derive the crash surface from the baseline.
    const auto last_epoch = static_cast<std::uint64_t>(baseline.epochs_run);
    ASSERT_GE(last_epoch, 2u);
    for (std::uint64_t crash_epoch :
         std::set<std::uint64_t>{1, (last_epoch + 1) / 2, last_epoch}) {
      SCOPED_TRACE("crash at epoch " + std::to_string(crash_epoch));
      factorization::TrainerCheckpointOptions checkpoint;
      checkpoint.path = FreshPath(std::string("sgd_crash_") + kind_name +
                                  "_" + std::to_string(crash_epoch) +
                                  ".ckpt");

      factorization::FactorModel crashed(model_config, data);
      CrashPoints::Arm("sgd.checkpoint", crash_epoch);
      EXPECT_THROW(
          { auto r = TrainSgd(trainer, data, crashed, &checkpoint); },
          SimulatedCrash);
      CrashPoints::Disarm();

      factorization::FactorModel resumed(model_config, data);
      auto report = TrainSgd(trainer, data, resumed, &checkpoint);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ExpectSameModel(reference, resumed);
      EXPECT_EQ(report.value().validation_rmse, baseline.validation_rmse);
      EXPECT_EQ(report.value().epochs_run, baseline.epochs_run);
      EXPECT_EQ(report.value().early_stopped, baseline.early_stopped);

      // The final snapshot short-circuits a third run entirely.
      factorization::FactorModel restored(model_config, data);
      auto again = TrainSgd(trainer, data, restored, &checkpoint);
      ASSERT_TRUE(again.ok());
      ExpectSameModel(reference, restored);
    }
  }
}

TEST_F(TrainerRecoveryTest, SgdCheckpointOfDifferentRunIsRejected) {
  const RatingDataset data = MakeData(43);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 3;

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_mismatch.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  trainer.seed = 12345;  // different schedule, same snapshot file
  factorization::FactorModel other(model_config, data);
  auto resumed = TrainSgd(trainer, data, other, &checkpoint);
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

// The schedule bytes TrainSgd fingerprints a run by: its config's
// max_epochs, learning_rate, lr_decay, validation_fraction, patience and
// seed. A snapshot written with them belongs to that run.
std::string SgdSchedule(const factorization::SgdTrainerConfig& config) {
  ByteWriter w;
  w.PutU64(static_cast<std::uint64_t>(config.max_epochs));
  w.PutF64(config.learning_rate);
  w.PutF64(config.lr_decay);
  w.PutF64(config.validation_fraction);
  w.PutU64(static_cast<std::uint64_t>(config.patience));
  w.PutU64(config.seed);
  return w.Take();
}

TEST_F(TrainerRecoveryTest, SgdSnapshotWithTrainRmseSeriesIsRejected) {
  // The snapshot after the first epoch of a run without a holdout, written
  // by hand twice: in the current loop-state layout, and in the older one
  // that also kept a train-RMSE series ahead of the validation series. The
  // first resumes the run bit for bit; the second must be rejected, not
  // misread.
  const RatingDataset data = MakeData(47);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 3;

  factorization::FactorModel reference(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, reference).ok());
  factorization::SgdTrainerConfig first_epoch = trainer;
  first_epoch.max_epochs = 1;
  factorization::FactorModel after_one(model_config, data);
  ASSERT_TRUE(TrainSgd(first_epoch, data, after_one).ok());

  const auto write_snapshot = [&](bool older_layout) {
    ByteWriter w;
    w.PutU64(1);                                         // epochs run
    w.PutF64(trainer.learning_rate * trainer.lr_decay);  // next rate
    w.PutF64(std::numeric_limits<double>::infinity());   // best validation
    w.PutU64(0);       // epochs without improvement
    w.PutBool(false);  // early stopped
    if (older_layout) {
      factorization::PutDoubles(w, {after_one.EvaluateRmse(data)});
    }
    factorization::PutDoubles(w, {});  // the validation series
    factorization::TrainerCheckpointOptions checkpoint;
    checkpoint.path = FreshPath(older_layout ? "sgd_older_layout.ckpt"
                                             : "sgd_layout.ckpt");
    EXPECT_TRUE(factorization::WriteTrainerSnapshot(
                    checkpoint, SgdSchedule(trainer), data, w.Take(),
                    after_one)
                    .ok());
    return checkpoint;
  };

  const factorization::TrainerCheckpointOptions current =
      write_snapshot(false);
  factorization::FactorModel resumed(model_config, data);
  const auto report = TrainSgd(trainer, data, resumed, &current);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().epochs_run, trainer.max_epochs);
  ExpectSameModel(reference, resumed);

  const factorization::TrainerCheckpointOptions older = write_snapshot(true);
  factorization::FactorModel misread(model_config, data);
  EXPECT_EQ(TrainSgd(trainer, data, misread, &older).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainerSnapshotCodecTest, GetDoublesChecksItsLengthAgainstTheBytesLeft) {
  // A series length is checked against the bytes left before the series
  // is allocated: 3 doubles where 2 remain, and 2^61 of them, are both
  // InvalidArgument; a series that fits reads back whole.
  ByteWriter short_series;
  short_series.PutU64(3);
  short_series.PutF64(1.0);
  short_series.PutF64(2.0);
  ByteWriter huge_series;
  huge_series.PutU64(1ull << 61);
  for (const ByteWriter* w : {&short_series, &huge_series}) {
    ByteReader r(w->bytes());
    std::vector<double> values;
    EXPECT_EQ(factorization::GetDoubles(r, values, "series").code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(values.empty());
  }
  ByteWriter fits;
  factorization::PutDoubles(fits, {1.0, -0.0, 2.5});
  ByteReader r(fits.bytes());
  std::vector<double> values;
  ASSERT_TRUE(factorization::GetDoubles(r, values, "series").ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(values, (std::vector<double>{1.0, -0.0, 2.5}));
}

TEST_F(TrainerRecoveryTest, SnapshotFileIsMagicThenCrcThenPayload) {
  // The snapshot file layout, pinned byte for byte so that snapshots
  // written by earlier builds still resume: the magic CCDBCKP1, the
  // little-endian CRC-32 of the payload, then the payload, which is the
  // run's u64 fingerprint, the loop state and the encoded model, each
  // length-prefixed. A file assembled by hand in that layout resumes.
  const RatingDataset data = MakeData(61);
  factorization::FactorModelConfig model_config;
  model_config.dims = 4;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 1;
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model).ok());

  factorization::TrainerCheckpointOptions written;
  written.path = FreshPath("sgd_layout_pinned.ckpt");
  const std::string loop_state = "loop state bytes";
  ASSERT_TRUE(factorization::WriteTrainerSnapshot(
                  written, SgdSchedule(trainer), data, loop_state, model)
                  .ok());
  const StatusOr<std::string> file = Fs::Posix().ReadFile(written.path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::string& bytes = file.value();
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes.substr(0, 8), "CCDBCKP1");
  const std::string payload = bytes.substr(12);
  const std::uint32_t crc = Crc32(payload);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[8 + k]),
              (crc >> (8 * k)) & 0xFF)
        << "CRC byte " << k;
  }
  ByteReader r(payload);
  const std::uint64_t fingerprint = r.GetU64();
  EXPECT_EQ(r.GetBytes(), loop_state);
  EXPECT_EQ(r.GetBytes(), factorization::EncodeFactorModel(model));
  EXPECT_TRUE(r.AtEnd());

  ByteWriter by_hand;
  by_hand.PutU64(fingerprint);
  by_hand.PutBytes(loop_state);
  by_hand.PutBytes(factorization::EncodeFactorModel(model));
  const std::uint32_t by_hand_crc = Crc32(by_hand.bytes());
  std::string assembled = "CCDBCKP1";
  for (int k = 0; k < 4; ++k) {
    assembled.push_back(static_cast<char>((by_hand_crc >> (8 * k)) & 0xFF));
  }
  assembled += by_hand.bytes();
  EXPECT_EQ(assembled, bytes);
  factorization::TrainerCheckpointOptions assembled_file;
  assembled_file.path = FreshPath("sgd_layout_by_hand.ckpt");
  ASSERT_TRUE(
      Fs::Posix().WriteFileAtomic(assembled_file.path, assembled).ok());
  factorization::FactorModel resumed(model_config, data);
  const StatusOr<std::string> state = factorization::ReadTrainerSnapshot(
      assembled_file, SgdSchedule(trainer), data, resumed);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state.value(), loop_state);
  ExpectSameModel(model, resumed);
}

// Flips one payload bit in the snapshot file at `path`.
void CorruptSnapshotFile(const std::string& path) {
  auto bytes = Fs::Posix().ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string corrupted = bytes.value();
  corrupted[corrupted.size() / 2] ^= 0x01;
  ASSERT_TRUE(Fs::Posix().WriteFileAtomic(path, corrupted).ok());
}

TEST_F(TrainerRecoveryTest, CorruptSnapshotFallsBackToOlderGeneration) {
  const RatingDataset data = MakeData(53);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 2;

  factorization::FactorModel reference(model_config, data);
  const auto baseline = TrainSgd(trainer, data, reference);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_corrupt.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  // Corrupt the live snapshot (epoch 2). Recovery must not trust it: the
  // ladder renames it aside and resumes from the epoch-1 generation,
  // retraining the lost epoch to the bit-identical final state.
  CorruptSnapshotFile(checkpoint.path);

  factorization::FactorModel resumed(model_config, data);
  auto report = TrainSgd(trainer, data, resumed, &checkpoint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().epochs_run, baseline.value().epochs_run);
  ExpectSameModel(reference, resumed);

  // The corrupt file was quarantined for forensics, never deleted.
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".corrupt").ok());
}

TEST_F(TrainerRecoveryTest, AllGenerationsCorruptMeansFreshStart) {
  const RatingDataset data = MakeData(59);
  factorization::FactorModelConfig model_config;
  model_config.dims = 6;
  factorization::SgdTrainerConfig trainer;
  trainer.max_epochs = 2;

  factorization::FactorModel reference(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, reference).ok());

  factorization::TrainerCheckpointOptions checkpoint;
  checkpoint.path = FreshPath("sgd_corrupt_all.ckpt");
  factorization::FactorModel model(model_config, data);
  ASSERT_TRUE(TrainSgd(trainer, data, model, &checkpoint).ok());

  CorruptSnapshotFile(checkpoint.path);
  CorruptSnapshotFile(checkpoint.path + ".1");

  // Every generation is invalid: the run restarts from scratch instead of
  // failing — and still converges to the bit-identical final state.
  factorization::FactorModel resumed(model_config, data);
  auto report = TrainSgd(trainer, data, resumed, &checkpoint);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSameModel(reference, resumed);
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".corrupt").ok());
  EXPECT_TRUE(Fs::Posix().ReadFile(checkpoint.path + ".1.corrupt").ok());
}

}  // namespace
}  // namespace ccdb
