#ifndef CCDB_CORE_EXPANSION_H_
#define CCDB_CORE_EXPANSION_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/journal.h"
#include "common/status.h"
#include "core/extractor.h"
#include "core/perceptual_space.h"
#include "crowd/aggregation.h"
#include "crowd/dispatcher.h"
#include "crowd/platform.h"

namespace ccdb::core {

/// One checkpoint of the incremental boosting loop (Experiments 4–6 /
/// Figures 3–4): the state of the expansion at a point in crowd time.
struct ExpansionCheckpoint {
  double minutes = 0.0;
  double dollars_spent = 0.0;
  /// Items with a clear crowd majority at this time (the training set).
  std::size_t training_size = 0;
  /// Crowd-only classification at this time (nullopt = unclassified).
  std::vector<std::optional<bool>> crowd_classification;
  /// Perceptual-space extraction for *all* items at this time; empty until
  /// the training set contains both classes.
  std::vector<bool> extracted;
  bool extractor_trained = false;
};

/// Options for the incremental loop.
struct IncrementalExpansionOptions {
  /// Retrain cadence: "every 5 minutes, all movies currently classified by
  /// the crowd-workers are added to [the training set]" (Experiment 4).
  double checkpoint_interval_minutes = 5.0;
  ExtractorOptions extractor;
  /// Hard budget cap (graceful degradation): checkpointing stops at the
  /// first checkpoint that crosses it, keeping every checkpoint produced
  /// so far — best-effort partial results instead of a crash or an empty
  /// answer. Infinity (the default) disables the cap; `total_minutes`
  /// bounds the crowd time.
  double max_dollars = std::numeric_limits<double>::infinity();
  /// Cooperative stop signal, probed at every checkpoint boundary and per
  /// block inside each checkpoint's extraction sweep. When it fires the
  /// loop returns Cancelled / DeadlineExceeded; the partial state is the
  /// checkpoint prefix already journaled (if any), which a later run with
  /// the same inputs resumes from. The default never fires.
  StopCondition stop;
};

/// Replays a crowd judgment stream over the sample `sample_items` (crowd
/// item id i corresponds to space item sample_items[i]), re-training the
/// extractor at every checkpoint on the currently majority-classified
/// items and extracting labels for the entire sample. The benches score
/// each checkpoint against reference labels to draw Figures 3 and 4.
/// Fresh, resumed and journal-free runs share one checkpoint kernel, so
/// they produce bit-identical checkpoints.
///
/// Invalid inputs (empty sample, non-positive interval, negative total
/// time, judgments outside the sample) return InvalidArgument / OutOfRange.
/// With a `journal` (the manifest; core/expansion_manifest.h has its
/// records), every checkpoint is appended and synced per its policy
/// before the loop advances, so a crashed or cancelled run resumes from
/// the last checkpoint that reached the disk instead of re-paying the
/// whole loop: checkpoints an interrupted run with the same inputs
/// journaled are loaded verbatim and the loop continues after them, so
/// the result is bit-identical to an uninterrupted run's. A manifest of
/// different inputs, or one whose checkpoints do not match the sample's
/// size, is rejected with InvalidArgument. A fired `options.stop` returns
/// Cancelled / DeadlineExceeded.
[[nodiscard]]
StatusOr<std::vector<ExpansionCheckpoint>> RunIncrementalExpansion(
    const PerceptualSpace& space,
    const std::vector<std::uint32_t>& sample_items,
    const std::vector<crowd::Judgment>& judgments, double total_minutes,
    const IncrementalExpansionOptions& options,
    const JournalOptions* journal = nullptr);

/// End-to-end schema expansion (the Figure 2 workflow): crowd-source a
/// gold sample for the new attribute, train the extractor, and return
/// values for every item of the space.
struct SchemaExpansionRequest {
  /// Name of the new attribute (for reporting only).
  std::string attribute_name;
  /// Items to crowd-source as the gold sample.
  std::vector<std::uint32_t> gold_sample_items;
  ExtractorOptions extractor;
};

struct SchemaExpansionResult {
  /// Extracted Boolean attribute for every item in the space.
  std::vector<bool> values;
  /// Crowd statistics of the gold-sample acquisition.
  double crowd_minutes = 0.0;
  double crowd_dollars = 0.0;
  std::size_t gold_sample_classified = 0;
  /// Ok when `values` holds the filled attribute; otherwise why not.
  Status status = Status::FailedPrecondition("expansion not run");
  /// Dispatch accounting, top-up rounds included.
  crowd::DispatchStats dispatch;
  /// One-class recovery rounds issued by the pipeline.
  std::size_t topup_rounds = 0;
};

/// Policy of the expansion pipeline. With the defaults (wait-forever
/// dispatch, no caps, no stop) and a fault-free crowd, a gold sample that
/// votes two classes expands bit for bit like the plain crowd → vote →
/// train → fill pipeline.
struct ExpansionOptions {
  /// Dispatcher policy (deadlines, reposts, budget cap). The dollar cap
  /// bounds the *whole* expansion including top-up rounds.
  crowd::DispatcherConfig dispatcher;
  /// One-class gold-sample recovery: when the crowd returns a single
  /// class, re-dispatch the still-unclassified items (a targeted top-up)
  /// with this many judgments each instead of failing outright.
  std::size_t topup_judgments_per_item = 7;
  std::size_t max_topups = 1;
  /// Stop signal for the *whole* expansion (probed between pipeline
  /// stages: after dispatch, before each top-up, before training and
  /// extraction). Stage-level signals nest inside it: `dispatcher.stop`
  /// may carry an earlier deadline so the crowd stage returns best-effort
  /// judgments while training still has budget left. The default never
  /// fires.
  StopCondition stop;
};

/// The expansion pipeline, the one entry point of the SQL resolver and the
/// expansion service: acquires the gold sample through the Dispatcher
/// (deadlines, reposts, dedup, budget caps), majority-votes, trains the
/// extractor and fills every item of the space. It degrades gracefully —
/// on a one-class sample it re-dispatches a targeted top-up of the
/// unclassified items; when the budget runs out it trains on whatever
/// arrived. The returned `status` explains any failure (InvalidArgument
/// for malformed requests, OutOfRange when the budget died first,
/// FailedPrecondition when the sample never yielded two classes,
/// Cancelled / DeadlineExceeded when `options.stop` fired); crowd spend
/// and dispatch stats are reported either way.
SchemaExpansionResult Expand(const PerceptualSpace& space,
                             const SchemaExpansionRequest& request,
                             const crowd::WorkerPool& pool,
                             const crowd::HitRunConfig& hit_config,
                             const std::vector<bool>& sample_truth,
                             const ExpansionOptions& options);

}  // namespace ccdb::core

#endif  // CCDB_CORE_EXPANSION_H_
