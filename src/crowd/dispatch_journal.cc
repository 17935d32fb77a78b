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

/// Journal record types. The payload layout after the type byte is fixed
/// per type; every record carries its full identity (round, sequence
/// number) so replay is idempotent under duplication and reordering.
enum class RecordType : std::uint8_t {
  kDispatchBegin = 1,  // u64 fingerprint, u64 num_items
  kPostingBegin = 2,   // u64 round, u64 posting fingerprint
  kJudgment = 3,       // u64 round, u64 seq, judgment fields
  kPostingEnd = 4,     // u64 round, u64 num_judgments, posting totals
  kDispatchEnd = 5,    // u64 fingerprint
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

Judgment GetJudgment(ByteReader& r) {
  Judgment judgment;
  judgment.item = r.GetU32();
  judgment.worker = r.GetU32();
  judgment.answer = static_cast<Answer>(r.GetU8());
  judgment.timestamp_minutes = r.GetF64();
  judgment.cost_dollars = r.GetF64();
  judgment.is_gold = r.GetBool();
  return judgment;
}

std::string EncodeDispatchBegin(std::uint64_t fingerprint,
                                std::uint64_t num_items) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kDispatchBegin));
  w.PutU64(fingerprint);
  w.PutU64(num_items);
  return w.Take();
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
  w.PutF64(run.total_minutes);
  w.PutF64(run.total_cost_dollars);
  w.PutU64(run.num_participating_workers);
  w.PutU64(run.num_excluded_workers);
  w.PutU64(run.num_abandoned_hits);
  w.PutU64(run.num_churned_workers);
  w.PutU64(run.num_duplicate_judgments);
  w.PutU64(run.num_spam_burst_judgments);
  return w.Take();
}

std::string EncodeDispatchEnd(std::uint64_t fingerprint) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kDispatchEnd));
  w.PutU64(fingerprint);
  return w.Take();
}

/// Replay-time accumulator for one posting: judgments keyed by sequence
/// number so duplicated and reordered deliveries collapse to one copy.
struct PostingAccumulator {
  std::uint64_t fingerprint = 0;
  bool started = false;
  bool end_seen = false;
  std::uint64_t expected_judgments = 0;
  double total_minutes = 0.0;
  double total_cost_dollars = 0.0;
  std::uint64_t participating = 0;
  std::uint64_t excluded = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t churned = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t spam = 0;
  std::map<std::uint64_t, Judgment> by_seq;
};

Status MalformedRecord(const char* what) {
  return Status::InvalidArgument(
      std::string("malformed dispatch journal record: ") + what);
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
  DispatchJournalState state;
  std::map<std::uint64_t, PostingAccumulator> accumulators;

  for (const std::string& record : records) {
    ByteReader r(record);
    const auto type = static_cast<RecordType>(r.GetU8());
    switch (type) {
      case RecordType::kDispatchBegin: {
        const std::uint64_t fingerprint = r.GetU64();
        r.GetU64();  // num_items (informational)
        if (!r.AtEnd()) return MalformedRecord("dispatch-begin");
        if (state.begun) {
          if (state.fingerprint != fingerprint) {
            return Status::InvalidArgument(
                "dispatch journal holds two different dispatches");
          }
          ++state.duplicate_records;
          break;
        }
        state.begun = true;
        state.fingerprint = fingerprint;
        break;
      }
      case RecordType::kPostingBegin: {
        const std::uint64_t round = r.GetU64();
        const std::uint64_t fingerprint = r.GetU64();
        if (!r.AtEnd()) return MalformedRecord("posting-begin");
        PostingAccumulator& acc = accumulators[round];
        if (acc.started) {
          if (acc.fingerprint != fingerprint) {
            return Status::InvalidArgument(
                "journal holds two different postings for round " +
                std::to_string(round));
          }
          ++state.duplicate_records;
          break;
        }
        acc.started = true;
        acc.fingerprint = fingerprint;
        break;
      }
      case RecordType::kJudgment: {
        const std::uint64_t round = r.GetU64();
        const std::uint64_t seq = r.GetU64();
        const Judgment judgment = GetJudgment(r);
        if (!r.AtEnd()) return MalformedRecord("judgment");
        PostingAccumulator& acc = accumulators[round];
        if (!acc.by_seq.emplace(seq, judgment).second) {
          ++state.duplicate_records;  // idempotence: late duplicate copy
        }
        break;
      }
      case RecordType::kPostingEnd: {
        const std::uint64_t round = r.GetU64();
        PostingAccumulator& acc = accumulators[round];
        const std::uint64_t expected = r.GetU64();
        const double minutes = r.GetF64();
        const double dollars = r.GetF64();
        const std::uint64_t participating = r.GetU64();
        const std::uint64_t excluded = r.GetU64();
        const std::uint64_t abandoned = r.GetU64();
        const std::uint64_t churned = r.GetU64();
        const std::uint64_t duplicates = r.GetU64();
        const std::uint64_t spam = r.GetU64();
        if (!r.AtEnd()) return MalformedRecord("posting-end");
        if (acc.end_seen) {
          ++state.duplicate_records;
          break;
        }
        acc.end_seen = true;
        acc.expected_judgments = expected;
        acc.total_minutes = minutes;
        acc.total_cost_dollars = dollars;
        acc.participating = participating;
        acc.excluded = excluded;
        acc.abandoned = abandoned;
        acc.churned = churned;
        acc.duplicates = duplicates;
        acc.spam = spam;
        break;
      }
      case RecordType::kDispatchEnd: {
        const std::uint64_t fingerprint = r.GetU64();
        if (!r.AtEnd()) return MalformedRecord("dispatch-end");
        if (state.begun && state.fingerprint != fingerprint) {
          return Status::InvalidArgument(
              "dispatch-end fingerprint does not match dispatch-begin");
        }
        if (state.complete) ++state.duplicate_records;
        state.complete = true;
        break;
      }
      default:
        return MalformedRecord("unknown record type");
    }
  }

  // Materialize each accumulator: the gap-free sequence prefix is the
  // usable judgment stream; a posting is complete when its end record
  // arrived and promised exactly that many judgments.
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
      posting.expected_judgments = acc.expected_judgments;
      posting.run.judgments.resize(acc.expected_judgments);
      posting.run.total_minutes = acc.total_minutes;
      posting.run.total_cost_dollars = acc.total_cost_dollars;
      posting.run.num_participating_workers = acc.participating;
      posting.run.num_excluded_workers = acc.excluded;
      posting.run.num_abandoned_hits = acc.abandoned;
      posting.run.num_churned_workers = acc.churned;
      posting.run.num_duplicate_judgments = acc.duplicates;
      posting.run.num_spam_burst_judgments = acc.spam;
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

DurableDispatcher::DurableDispatcher(WorkerPool pool, DispatcherConfig config,
                                     DurabilityOptions durability)
    : dispatcher_(std::move(pool), std::move(config)),
      durability_(std::move(durability)) {}

StatusOr<DispatchResult> DurableDispatcher::Run(
    const std::vector<bool>& true_labels,
    const HitRunConfig& hit_config) const {
  if (durability_.journal_path.empty()) {
    return Status::InvalidArgument("DurabilityOptions.journal_path is empty");
  }
  const std::uint64_t fingerprint = DispatchFingerprint(
      dispatcher_.pool(), true_labels, hit_config, dispatcher_.config());

  JournalContents recovered;
  StatusOr<JournalWriter> opened =
      JournalWriter::Open(durability_.journal_path, durability_.sync,
                          &recovered, durability_.fs);
  if (!opened.ok()) return opened.status();
  JournalWriter writer = std::move(opened).value();

  StatusOr<DispatchJournalState> replayed =
      ReplayDispatchJournal(recovered.records);
  if (!replayed.ok()) return replayed.status();
  DispatchJournalState state = std::move(replayed).value();
  if (state.begun && state.fingerprint != fingerprint) {
    return Status::InvalidArgument(
        "journal " + durability_.journal_path +
        " belongs to a different dispatch (fingerprint mismatch); refusing "
        "to splice two runs");
  }
  if (!state.begun) {
    if (Status status = writer.Append(
            EncodeDispatchBegin(fingerprint, true_labels.size()));
        !status.ok()) {
      return status;
    }
    if (Status status = writer.Sync(); !status.ok()) return status;
  }
  CCDB_CRASH_POINT("dispatch.begin");

  // Durability accounting patched into the final stats: judgments pulled
  // from the journal were paid for by the crashed run, not this one.
  std::size_t replayed_postings = 0;
  std::size_t replayed_judgments = 0;
  double replayed_dollars = 0.0;
  Status journal_error;  // first append/sync failure inside the provider

  const PostingProvider provider =
      [&](const PostingSpec& spec) -> StatusOr<CrowdRunResult> {
    const std::uint64_t spec_fingerprint = PostingSpecFingerprint(spec);
    const auto it = state.postings.find(spec.round);
    if (it != state.postings.end() && it->second.started &&
        it->second.fingerprint != spec_fingerprint) {
      return Status::InvalidArgument(
          "journaled posting for round " + std::to_string(spec.round) +
          " does not match the posting being dispatched");
    }

    // Fully journaled posting: replay it — zero fresh spend.
    if (it != state.postings.end() && it->second.complete) {
      ++replayed_postings;
      replayed_judgments += it->second.run.judgments.size();
      for (const Judgment& judgment : it->second.run.judgments) {
        replayed_dollars += judgment.cost_dollars;
      }
      return it->second.run;
    }

    // Absent or partially journaled: the platform simulation is
    // deterministic per spec, so re-running reproduces the judgment stream
    // exactly; only the un-journaled suffix is appended (and, in a real
    // deployment, paid for).
    const std::size_t have =
        it != state.postings.end() ? it->second.run.judgments.size() : 0;
    if (it == state.postings.end() || !it->second.started) {
      if (Status status = writer.Append(
              EncodePostingBegin(spec.round, spec_fingerprint));
          !status.ok()) {
        journal_error = status;
        return status;
      }
    }
    CCDB_CRASH_POINT("dispatch.posting_begin");
    CrowdRunResult run = RunCrowdTask(dispatcher_.pool(), spec.truth,
                                      spec.config);
    if (have > run.judgments.size()) {
      return Status::Internal(
          "journal holds more judgments than the deterministic re-run "
          "produced — journal and inputs disagree");
    }
    for (std::size_t seq = have; seq < run.judgments.size(); ++seq) {
      if (Status status = writer.Append(
              EncodeJudgment(spec.round, seq, run.judgments[seq]));
          !status.ok()) {
        journal_error = status;
        return status;
      }
      CCDB_CRASH_POINT("dispatch.judgment");
    }
    if (Status status = writer.Append(EncodePostingEnd(spec.round, run));
        !status.ok()) {
      journal_error = status;
      return status;
    }
    if (Status status = writer.Sync(); !status.ok()) {
      journal_error = status;
      return status;
    }
    CCDB_CRASH_POINT("dispatch.posting_end");
    replayed_judgments += have;
    for (std::size_t seq = 0; seq < have; ++seq) {
      replayed_dollars += run.judgments[seq].cost_dollars;
    }
    if (have > 0) ++replayed_postings;  // partial replay still saved money
    return run;
  };

  StatusOr<DispatchResult> result =
      dispatcher_.RunWith(true_labels, hit_config, provider);
  if (!result.ok()) return result.status();
  if (!journal_error.ok()) return journal_error;

  if (!state.complete) {
    if (Status status = writer.Append(EncodeDispatchEnd(fingerprint));
        !status.ok()) {
      return status;
    }
    if (Status status = writer.Sync(); !status.ok()) return status;
  }
  CCDB_CRASH_POINT("dispatch.end");
  if (Status status = writer.Close(); !status.ok()) return status;

  result.value().stats.replayed_postings = replayed_postings;
  result.value().stats.replayed_judgments = replayed_judgments;
  result.value().stats.replayed_dollars = replayed_dollars;
  return result;
}

}  // namespace ccdb::crowd
