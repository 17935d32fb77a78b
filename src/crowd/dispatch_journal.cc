#include "crowd/dispatch_journal.h"

#include <algorithm>
#include <utility>

#include "common/crash_point.h"

namespace ccdb::crowd {

void PutHitRunConfig(ByteWriter& w, const HitRunConfig& config) {
  w.PutU64(config.judgments_per_item);
  w.PutU64(config.items_per_hit);
  w.PutF64(config.payment_per_hit);
  w.PutBool(config.allow_dont_know);
  w.PutBool(config.lookup_mode);
  w.PutF64(config.lookup_consensus_flip_rate);
  w.PutF64(config.lookup_contested_rate);
  w.PutF64(config.perception_flip_rate);
  w.PutU64(config.num_gold_questions);
  w.PutF64(config.gold_exclusion_threshold);
  w.PutU64(config.gold_min_probes);
  w.PutU64(config.seed);
  const FaultModel& fault = config.fault;
  w.PutF64(fault.abandonment_prob);
  w.PutF64(fault.abandon_time_fraction);
  w.PutF64(fault.straggler_fraction);
  w.PutF64(fault.straggler_pareto_alpha);
  w.PutF64(fault.churn_prob);
  w.PutF64(fault.churn_window_minutes);
  w.PutF64(fault.duplicate_prob);
  w.PutF64(fault.duplicate_delay_minutes);
  w.PutF64(fault.late_prob);
  w.PutF64(fault.late_mean_delay_minutes);
  w.PutF64(fault.spam_burst_prob);
  w.PutF64(fault.spam_burst_window_minutes);
  w.PutF64(fault.spam_burst_duration_minutes);
  w.PutF64(fault.spam_burst_intensity);
  w.PutF64(fault.spam_burst_positive_bias);
  w.PutU64(fault.seed);
}

void PutJudgment(ByteWriter& w, const Judgment& judgment) {
  w.PutU32(judgment.item);
  w.PutU32(judgment.worker);
  w.PutU8(static_cast<std::uint8_t>(judgment.answer));
  w.PutF64(judgment.timestamp_minutes);
  w.PutF64(judgment.cost_dollars);
  w.PutBool(judgment.is_gold);
}

void PutDispatcherConfig(ByteWriter& w, const DispatcherConfig& config) {
  w.PutF64(config.deadline_minutes);
  w.PutU64(config.max_reposts);
  w.PutF64(config.backoff_initial_minutes);
  w.PutF64(config.max_dollars);
}

namespace {

/// The dispatch's own record types, inside the run frame. The payload
/// layout after the type byte is fixed per type; every record carries its
/// full identity (round, sequence number) so replay is idempotent under
/// duplication and reordering.
enum class RecordType : std::uint8_t {
  kPostingBegin = 1,  // u64 round, u64 posting fingerprint
  kJudgment = 2,      // u64 round, u64 seq, judgment fields
  kPostingEnd = 3,    // u64 round, u64 num_judgments, posting totals
};

/// Fingerprint of one posting's full specification: everything RunCrowdTask
/// sees, plus the dispatch-wide item mapping. A journaled posting is only
/// replayed when its stored fingerprint matches the posting the dispatcher
/// is about to issue.
std::uint64_t PostingSpecFingerprint(const PostingSpec& spec) {
  ByteWriter w;
  w.PutU64(spec.round);
  w.PutU64(spec.truth.size());
  for (bool label : spec.truth) w.PutBool(label);
  PutHitRunConfig(w, spec.config);
  w.PutU64(spec.item_map.size());
  for (std::uint32_t id : spec.item_map) w.PutU32(id);
  return HashBytes(w.bytes());
}

/// Reads a PutJudgment layout; false when the answer byte is no Answer.
bool GetJudgment(ByteReader& r, Judgment& judgment) {
  judgment.item = r.GetU32();
  judgment.worker = r.GetU32();
  const std::uint8_t answer = r.GetU8();
  judgment.answer = static_cast<Answer>(answer);
  judgment.timestamp_minutes = r.GetF64();
  judgment.cost_dollars = r.GetF64();
  judgment.is_gold = r.GetBool();
  return answer <= static_cast<std::uint8_t>(Answer::kDontKnow);
}

/// The totals of a posting's run (all but its judgments), as its
/// posting-end record carries them.
void PutRunTotals(ByteWriter& w, const CrowdRunResult& run) {
  w.PutF64(run.total_minutes);
  w.PutF64(run.total_cost_dollars);
  w.PutU64(run.num_participating_workers);
  w.PutU64(run.num_excluded_workers);
  w.PutU64(run.num_abandoned_hits);
  w.PutU64(run.num_churned_workers);
  w.PutU64(run.num_duplicate_judgments);
  w.PutU64(run.num_spam_burst_judgments);
}

void GetRunTotals(ByteReader& r, CrowdRunResult& run) {
  run.total_minutes = r.GetF64();
  run.total_cost_dollars = r.GetF64();
  run.num_participating_workers = r.GetU64();
  run.num_excluded_workers = r.GetU64();
  run.num_abandoned_hits = r.GetU64();
  run.num_churned_workers = r.GetU64();
  run.num_duplicate_judgments = r.GetU64();
  run.num_spam_burst_judgments = r.GetU64();
}

std::string EncodePostingBegin(std::uint64_t round,
                               std::uint64_t fingerprint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kPostingBegin));
  w.PutU64(round);
  w.PutU64(fingerprint);
  return w.Take();
}

std::string EncodeJudgment(std::uint64_t round, std::uint64_t seq,
                           const Judgment& judgment) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kJudgment));
  w.PutU64(round);
  w.PutU64(seq);
  PutJudgment(w, judgment);
  return w.Take();
}

std::string EncodePostingEnd(std::uint64_t round, const CrowdRunResult& run) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kPostingEnd));
  w.PutU64(round);
  w.PutU64(run.judgments.size());
  PutRunTotals(w, run);
  return w.Take();
}

/// Replay-time accumulator for one posting: judgments keyed by sequence
/// number so duplicated and reordered deliveries collapse to one copy.
struct PostingAccumulator {
  std::uint64_t fingerprint = 0;
  bool started = false;
  bool end_seen = false;
  std::uint64_t expected_judgments = 0;
  CrowdRunResult totals;  // judgments stay empty
  std::map<std::uint64_t, Judgment> by_seq;
};

Status MalformedRecord(const char* what) {
  return Status::InvalidArgument(
      std::string("malformed dispatch journal record: ") + what);
}

/// InvalidArgument unless every judgment of a journaled posting lies in
/// the posting `spec` describes: a judgment on a sampled item indexes
/// `item_map`, a gold probe lies within the sample plus its gold
/// questions.
Status CheckReplayedJudgments(const PostingSpec& spec,
                              const std::vector<Judgment>& judgments) {
  const std::size_t gold_end =
      spec.truth.size() + spec.config.num_gold_questions;
  for (const Judgment& judgment : judgments) {
    if (judgment.item >= (judgment.is_gold ? gold_end : spec.item_map.size())) {
      return Status::InvalidArgument(
          "journaled judgment on item " + std::to_string(judgment.item) +
          " lies outside posting round " + std::to_string(spec.round));
    }
  }
  return Status::Ok();
}

}  // namespace

double DispatchJournalState::paid_dollars() const {
  double total = 0.0;
  for (const auto& [round, posting] : postings) {
    for (const Judgment& judgment : posting.run.judgments) {
      total += judgment.cost_dollars;
    }
  }
  return total;
}

std::size_t DispatchJournalState::paid_judgments() const {
  std::size_t total = 0;
  for (const auto& [round, posting] : postings) {
    total += posting.run.judgments.size();
  }
  return total;
}

StatusOr<DispatchJournalState> ReplayDispatchJournal(
    const std::vector<std::string>& records) {
  std::map<std::uint64_t, PostingAccumulator> accumulators;
  for (const std::string& record : records) {
    ByteReader r(record);
    const auto type = static_cast<RecordType>(r.GetU8());
    const std::uint64_t round = r.GetU64();
    switch (type) {
      case RecordType::kPostingBegin: {
        const std::uint64_t fingerprint = r.GetU64();
        if (!r.AtEnd()) return MalformedRecord("posting-begin");
        PostingAccumulator& acc = accumulators[round];
        if (acc.started && acc.fingerprint != fingerprint) {
          return Status::InvalidArgument(
              "journal holds two different postings for round " +
              std::to_string(round));
        }
        acc.started = true;
        acc.fingerprint = fingerprint;
        break;
      }
      case RecordType::kJudgment: {
        const std::uint64_t seq = r.GetU64();
        Judgment judgment;
        if (!GetJudgment(r, judgment)) {
          return MalformedRecord("judgment answer is no Answer");
        }
        if (!r.AtEnd()) return MalformedRecord("judgment");
        accumulators[round].by_seq.emplace(seq, judgment);
        break;
      }
      case RecordType::kPostingEnd: {
        PostingAccumulator& acc = accumulators[round];
        const std::uint64_t expected = r.GetU64();
        CrowdRunResult totals;
        GetRunTotals(r, totals);
        if (!r.AtEnd()) return MalformedRecord("posting-end");
        if (acc.end_seen) break;
        acc.end_seen = true;
        acc.expected_judgments = expected;
        acc.totals = std::move(totals);
        break;
      }
      default:
        return MalformedRecord("unknown record type");
    }
  }

  // Materialize each accumulator: the gap-free sequence prefix is the
  // usable judgment stream; a posting is complete when its end record
  // arrived and promised exactly that many judgments.
  DispatchJournalState state;
  for (auto& [round, acc] : accumulators) {
    ReplayedPosting posting;
    posting.fingerprint = acc.fingerprint;
    posting.started = acc.started;
    std::uint64_t next = 0;
    for (const auto& [seq, judgment] : acc.by_seq) {
      if (seq != next) break;  // gap: the rest never made it to disk
      posting.run.judgments.push_back(judgment);
      ++next;
    }
    if (acc.end_seen && next >= acc.expected_judgments) {
      posting.complete = true;
      acc.totals.judgments = std::move(posting.run.judgments);
      acc.totals.judgments.resize(acc.expected_judgments);
      posting.run = std::move(acc.totals);
    }
    state.postings.emplace(round, std::move(posting));
  }
  return state;
}

std::uint64_t DispatchFingerprint(const WorkerPool& pool,
                                  const std::vector<bool>& true_labels,
                                  const HitRunConfig& hit_config,
                                  const DispatcherConfig& dispatcher_config) {
  ByteWriter w;
  w.PutU64(pool.workers.size());
  for (const WorkerProfile& worker : pool.workers) {
    w.PutBytes(worker.country);
    w.PutF64(worker.knowledge);
    w.PutF64(worker.accuracy);
    w.PutF64(worker.positive_bias);
    w.PutBool(worker.honest);
    w.PutF64(worker.judgments_per_minute);
    w.PutF64(worker.lookup_diligence);
  }
  w.PutU64(true_labels.size());
  for (bool label : true_labels) w.PutBool(label);
  PutHitRunConfig(w, hit_config);
  PutDispatcherConfig(w, dispatcher_config);
  return HashBytes(w.bytes());
}

StatusOr<DispatchResult> Dispatcher::RunJournaled(
    const std::vector<bool>& true_labels, const HitRunConfig& hit_config,
    const JournalOptions& options) const {
  StatusOr<RunJournal> opened = RunJournal::Open(
      options, DispatchFingerprint(pool_, true_labels, hit_config, config_));
  if (!opened.ok()) return opened.status();
  RunJournal journal = std::move(opened).value();
  StatusOr<DispatchJournalState> replayed =
      ReplayDispatchJournal(journal.replayed().records);
  if (!replayed.ok()) return replayed.status();
  const DispatchJournalState state = std::move(replayed).value();
  CCDB_CRASH_POINT("dispatch.begin");

  // Durability accounting patched into the final stats: judgments pulled
  // from the journal were paid for by the crashed run, not this one.
  std::size_t replayed_postings = 0;
  std::size_t replayed_judgments = 0;
  double replayed_dollars = 0.0;

  const PostingProvider provider =
      [&](const PostingSpec& spec) -> StatusOr<CrowdRunResult> {
    const std::uint64_t spec_fingerprint = PostingSpecFingerprint(spec);
    const auto it = state.postings.find(spec.round);
    const ReplayedPosting* journaled =
        it != state.postings.end() ? &it->second : nullptr;
    if (journaled != nullptr && journaled->started &&
        journaled->fingerprint != spec_fingerprint) {
      return Status::InvalidArgument(
          "journaled posting for round " + std::to_string(spec.round) +
          " does not match the posting being dispatched");
    }

    // Fully journaled posting: replay it — zero fresh spend.
    if (journaled != nullptr && journaled->complete) {
      if (Status status =
              CheckReplayedJudgments(spec, journaled->run.judgments);
          !status.ok()) {
        return status;
      }
      ++replayed_postings;
      replayed_judgments += journaled->run.judgments.size();
      for (const Judgment& judgment : journaled->run.judgments) {
        replayed_dollars += judgment.cost_dollars;
      }
      return journaled->run;
    }

    // Absent or partially journaled: the platform simulation is
    // deterministic per spec, so re-running reproduces the judgment stream
    // exactly; only the un-journaled suffix is appended (and, in a real
    // deployment, paid for).
    const std::size_t have =
        journaled != nullptr ? journaled->run.judgments.size() : 0;
    if (journaled == nullptr || !journaled->started) {
      if (Status status =
              journal.Append(EncodePostingBegin(spec.round, spec_fingerprint));
          !status.ok()) {
        return status;
      }
    }
    CCDB_CRASH_POINT("dispatch.posting_begin");
    CrowdRunResult run = RunCrowdTask(pool_, spec.truth, spec.config);
    // The journaled prefix was paid for and is counted as replayed, so the
    // re-run must deliver exactly it.
    if (have > 0 && (have > run.judgments.size() ||
                     !std::equal(run.judgments.begin(),
                                 run.judgments.begin() + have,
                                 journaled->run.judgments.begin()))) {
      return Status::InvalidArgument(
          "journaled judgments of round " + std::to_string(spec.round) +
          " are not the ones the deterministic re-run delivers — journal "
          "and inputs disagree");
    }
    for (std::size_t seq = have; seq < run.judgments.size(); ++seq) {
      if (Status status = journal.Append(
              EncodeJudgment(spec.round, seq, run.judgments[seq]));
          !status.ok()) {
        return status;
      }
      CCDB_CRASH_POINT("dispatch.judgment");
    }
    if (Status status = journal.Append(EncodePostingEnd(spec.round, run));
        !status.ok()) {
      return status;
    }
    if (Status status = journal.Sync(); !status.ok()) return status;
    CCDB_CRASH_POINT("dispatch.posting_end");
    replayed_judgments += have;
    for (std::size_t seq = 0; seq < have; ++seq) {
      replayed_dollars += run.judgments[seq].cost_dollars;
    }
    if (have > 0) ++replayed_postings;  // partial replay still saved money
    return run;
  };

  StatusOr<DispatchResult> result = RunWith(true_labels, hit_config, provider);
  if (!result.ok()) return result.status();
  if (Status status = journal.Finish(); !status.ok()) return status;
  CCDB_CRASH_POINT("dispatch.end");
  if (Status status = journal.Close(); !status.ok()) return status;

  result.value().stats.replayed_postings = replayed_postings;
  result.value().stats.replayed_judgments = replayed_judgments;
  result.value().stats.replayed_dollars = replayed_dollars;
  return result;
}

}  // namespace ccdb::crowd
