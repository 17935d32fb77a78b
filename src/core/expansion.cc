#include "core/expansion.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/crash_point.h"
#include "core/expansion_manifest.h"

namespace ccdb::core {
namespace {

/// Builds the majority-vote training set over `sample_items` from a
/// judgment stream, returning items/labels plus the per-item classification.
struct TrainingSet {
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  std::vector<std::optional<bool>> classification;
  bool has_positive = false;
  bool has_negative = false;
};

TrainingSet BuildTrainingSet(const std::vector<crowd::Judgment>& judgments,
                             const std::vector<std::uint32_t>& sample_items,
                             double up_to_minutes) {
  TrainingSet set;
  set.classification =
      crowd::MajorityVote(judgments, sample_items.size(), up_to_minutes);
  for (std::size_t i = 0; i < sample_items.size(); ++i) {
    if (set.classification[i].has_value()) {
      set.items.push_back(sample_items[i]);
      set.labels.push_back(*set.classification[i]);
      (*set.classification[i] ? set.has_positive : set.has_negative) = true;
    }
  }
  return set;
}

Status ValidateIncrementalExpansion(
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options) {
  if (!(options.checkpoint_interval_minutes > 0.0)) {
    return Status::InvalidArgument(
        "checkpoint_interval_minutes must be > 0");
  }
  if (sample_items.empty()) {
    return Status::InvalidArgument("sample_items is empty");
  }
  if (!(total_minutes >= 0.0)) {
    return Status::InvalidArgument("total_minutes must be >= 0");
  }
  for (const crowd::Judgment& judgment : judgments) {
    if (!judgment.is_gold && judgment.item >= sample_items.size()) {
      return Status::OutOfRange(
          "judgment references item " + std::to_string(judgment.item) +
          " outside the sample of " + std::to_string(sample_items.size()));
    }
  }
  return Status::Ok();
}

/// The single-checkpoint kernel: the majority vote over judgments up to
/// `now`, the training set it induces, and the retrained extraction over
/// the sample (the experiment's universe) in one batched sweep. nullopt
/// when `stop` fired inside the sweep — a partial checkpoint is never
/// published.
std::optional<ExpansionCheckpoint> ComputeExpansionCheckpoint(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double now,
    const ExtractorOptions& extractor_options, const StopCondition& stop) {
  TrainingSet training = BuildTrainingSet(judgments, sample_items, now);
  ExpansionCheckpoint checkpoint;
  checkpoint.minutes = now;
  checkpoint.dollars_spent = crowd::CostUpTo(judgments, now);
  checkpoint.training_size = training.items.size();
  BinaryAttributeExtractor extractor(extractor_options);
  if (extractor.Train(space, training.items, training.labels)) {
    checkpoint.extractor_trained = true;
    std::optional<std::vector<bool>> extracted =
        extractor.ExtractItems(space, sample_items, stop);
    if (!extracted.has_value()) return std::nullopt;
    checkpoint.extracted = *std::move(extracted);
  }
  checkpoint.crowd_classification = std::move(training.classification);
  return checkpoint;
}

}  // namespace

StatusOr<std::vector<ExpansionCheckpoint>> RunIncrementalExpansion(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options,
    const JournalOptions* journal_options) {
  if (Status status = ValidateIncrementalExpansion(sample_items, judgments,
                                                   total_minutes, options);
      !status.ok()) {
    return status;
  }

  // With a journal, recover the checkpoints an earlier attempt made
  // durable; a journal of other inputs is rejected instead of spliced in.
  std::optional<RunJournal> journal;
  std::vector<ExpansionCheckpoint> recovered;
  if (journal_options != nullptr) {
    StatusOr<RunJournal> opened = RunJournal::Open(
        *journal_options,
        ExpansionFingerprint(sample_items, judgments, total_minutes, options));
    if (!opened.ok()) return opened.status();
    journal.emplace(std::move(opened).value());
    StatusOr<std::vector<ExpansionCheckpoint>> replayed =
        ReplayExpansionManifest(journal->replayed().records,
                                sample_items.size());
    if (!replayed.ok()) return replayed.status();
    recovered = std::move(replayed).value();
    CCDB_CRASH_POINT("expansion.begin");
  }

  // `t` advances by repeated addition, so fresh and resumed runs walk the
  // identical floating-point time grid. Journaled checkpoints are consumed
  // verbatim; the first missing index is computed, journaled, then used.
  std::vector<ExpansionCheckpoint> checkpoints;
  std::size_t index = 0;
  for (double t = options.checkpoint_interval_minutes;;
       t += options.checkpoint_interval_minutes, ++index) {
    const double now = std::min(t, total_minutes);
    ExpansionCheckpoint checkpoint;
    if (index < recovered.size()) {
      checkpoint = std::move(recovered[index]);
    } else {
      // Cooperative stop at the checkpoint boundary or inside the sweep.
      // Checkpoints already journaled stay on disk; a later run with the
      // same inputs picks up exactly here — cancellation leaves the same
      // durable state as a crash would, minus the torn tail.
      std::optional<ExpansionCheckpoint> computed;
      if (!options.stop.ShouldStop()) {
        computed = ComputeExpansionCheckpoint(space, sample_items, judgments,
                                              now, options.extractor,
                                              options.stop);
      }
      if (!computed.has_value()) {
        if (journal.has_value()) {
          if (Status status = journal->Close(); !status.ok()) return status;
        }
        return options.stop.ToStatus("incremental expansion");
      }
      checkpoint = *std::move(computed);
      if (journal.has_value()) {
        if (Status status =
                journal->Append(EncodeManifestRecord(index, checkpoint));
            !status.ok()) {
          return status;
        }
        if (Status status = journal->Sync(); !status.ok()) return status;
        CCDB_CRASH_POINT("expansion.checkpoint");
      }
    }
    // Budget cap: keep the checkpoint that crossed the cap (it reflects
    // the last money actually spent), then stop — partial results beat
    // none when the crowd run outlives its budget.
    const bool over_budget = checkpoint.dollars_spent > options.max_dollars;
    checkpoints.push_back(std::move(checkpoint));
    if (now >= total_minutes || over_budget) break;
  }

  if (journal.has_value()) {
    if (Status status = journal->Finish(); !status.ok()) return status;
    CCDB_CRASH_POINT("expansion.finish");
    if (Status status = journal->Close(); !status.ok()) return status;
  }
  return checkpoints;
}

SchemaExpansionResult Expand(const PerceptualSpace& space,
                             const SchemaExpansionRequest& request,
                             const crowd::WorkerPool& pool,
                             const crowd::HitRunConfig& hit_config,
                             const std::vector<bool>& sample_truth,
                             const ExpansionOptions& options) {
  SchemaExpansionResult result;
  if (request.gold_sample_items.size() != sample_truth.size()) {
    result.status = Status::InvalidArgument(
        "gold_sample_items and sample_truth sizes differ (" +
        std::to_string(request.gold_sample_items.size()) + " vs " +
        std::to_string(sample_truth.size()) + ")");
    return result;
  }
  if (request.gold_sample_items.empty()) {
    result.status = Status::InvalidArgument("gold sample is empty");
    return result;
  }
  if (options.topup_judgments_per_item == 0 && options.max_topups > 0) {
    result.status =
        Status::InvalidArgument("topup_judgments_per_item must be > 0");
    return result;
  }

  const crowd::Dispatcher dispatcher(pool, options.dispatcher);
  auto dispatched = dispatcher.Run(sample_truth, hit_config);
  if (!dispatched.ok()) {
    result.status = dispatched.status();
    return result;
  }
  // The accumulated judgment stream. Top-up rounds must not double-count
  // a vote, so the (worker, item) pairs already judged are indexed the
  // first time a top-up needs them — the common two-class path skips it.
  std::vector<crowd::Judgment> judgments =
      std::move(dispatched.value().judgments);
  std::unordered_set<std::uint64_t> voted;
  const auto vote_key = [](const crowd::Judgment& judgment) {
    return (static_cast<std::uint64_t>(judgment.worker) << 32) |
           judgment.item;
  };
  result.crowd_minutes = dispatched.value().total_minutes;
  result.crowd_dollars = dispatched.value().total_cost_dollars;
  result.dispatch = dispatched.value().stats;

  // Between-stage stop check. A fired *crowd-stage* signal
  // (dispatcher.stop) is not fatal — the dispatcher already returned
  // best-effort judgments and training may still fit the remaining
  // budget. A fired *expansion-level* signal is: nobody is waiting for
  // the answer (cancel) or there is no time left to compute it
  // (deadline), so spending more crowd money or CPU would be waste.
  if (options.stop.ShouldStop()) {
    result.status = options.stop.ToStatus("schema expansion of '" +
                                          request.attribute_name + "'");
    return result;
  }

  TrainingSet training =
      BuildTrainingSet(judgments, request.gold_sample_items,
                       std::numeric_limits<double>::infinity());

  // One-class (or empty) gold sample: instead of failing, issue a targeted
  // top-up for the items the crowd left unclassified — ties and no-vote
  // items are exactly where the missing class is most likely hiding.
  for (std::size_t round = 1;
       round <= options.max_topups &&
       !(training.has_positive && training.has_negative);
       ++round) {
    if (options.stop.ShouldStop()) {
      result.status = options.stop.ToStatus("schema expansion of '" +
                                            request.attribute_name + "'");
      return result;
    }
    std::vector<std::uint32_t> unresolved;  // sample-local indices
    for (std::size_t i = 0; i < request.gold_sample_items.size(); ++i) {
      if (!training.classification[i].has_value()) {
        unresolved.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (unresolved.empty()) break;  // unanimously one class: nothing to probe

    const double remaining_dollars =
        options.dispatcher.max_dollars - result.crowd_dollars;
    if (remaining_dollars <= 0.0) {
      result.dispatch.budget_exhausted = true;
      break;
    }
    crowd::DispatcherConfig topup_config = options.dispatcher;
    topup_config.max_dollars = remaining_dollars;

    crowd::HitRunConfig topup = hit_config;
    topup.judgments_per_item = options.topup_judgments_per_item;
    topup.num_gold_questions = 0;
    topup.seed = hit_config.seed + 0xC2B2AE35ull * round;
    topup.fault.seed = hit_config.fault.seed + 0x27D4EB2Full * round;

    std::vector<bool> topup_truth(unresolved.size());
    for (std::size_t i = 0; i < unresolved.size(); ++i) {
      topup_truth[i] = sample_truth[unresolved[i]];
    }
    const crowd::Dispatcher topup_dispatcher(pool, topup_config);
    auto extra = topup_dispatcher.Run(topup_truth, topup);
    if (!extra.ok()) {
      result.status = extra.status();
      return result;
    }
    ++result.topup_rounds;
    if (voted.empty()) {
      for (const crowd::Judgment& judgment : judgments) {
        if (!judgment.is_gold) voted.insert(vote_key(judgment));
      }
    }
    const double offset = result.crowd_minutes;
    for (crowd::Judgment judgment : extra.value().judgments) {
      if (judgment.is_gold) continue;
      judgment.item = unresolved[judgment.item];
      judgment.timestamp_minutes += offset;
      if (!voted.insert(vote_key(judgment)).second) {
        continue;  // this worker already voted on this item earlier
      }
      judgments.push_back(judgment);
    }
    result.crowd_minutes += extra.value().total_minutes;
    result.crowd_dollars += extra.value().total_cost_dollars;
    result.dispatch.MergeFrom(extra.value().stats);

    training = BuildTrainingSet(judgments, request.gold_sample_items,
                                std::numeric_limits<double>::infinity());
  }

  result.gold_sample_classified = training.items.size();
  if (options.stop.ShouldStop()) {
    result.status = options.stop.ToStatus("schema expansion of '" +
                                          request.attribute_name + "'");
    return result;
  }
  BinaryAttributeExtractor extractor(request.extractor);
  if (!extractor.Train(space, training.items, training.labels)) {
    // A stop that fired inside SMO (extractor smo.stop shares the request
    // budget) leaves no support vector; that is the stop's outcome, not a
    // verdict on the gold sample.
    if (request.extractor.smo.stop.ShouldStop()) {
      result.status = request.extractor.smo.stop.ToStatus(
          "training the extractor for '" + request.attribute_name + "'");
    } else if (result.dispatch.budget_exhausted) {
      result.status = Status::OutOfRange(
          "budget exhausted before the gold sample for '" +
          request.attribute_name + "' yielded two classes");
    } else {
      result.status = Status::FailedPrecondition(
          "crowd gold sample for '" + request.attribute_name +
          "' did not yield two classes after " +
          std::to_string(result.topup_rounds) + " top-up round(s)");
    }
    return result;
  }
  // Training may itself have been cut short (extractor smo.stop shares
  // the request budget); extracting the full space with a half-solved
  // model past the deadline helps nobody.
  if (options.stop.ShouldStop()) {
    result.status = options.stop.ToStatus("schema expansion of '" +
                                          request.attribute_name + "'");
    return result;
  }
  // The whole-database sweep probes the stop per block, so a deadline
  // landing mid-extraction aborts within one block instead of after the
  // last item.
  std::optional<std::vector<bool>> values =
      extractor.ExtractAll(space, options.stop);
  if (!values.has_value()) {
    result.status = options.stop.ToStatus("schema expansion of '" +
                                          request.attribute_name + "'");
    return result;
  }
  result.values = *std::move(values);
  result.status = Status::Ok();
  return result;
}

}  // namespace ccdb::core
