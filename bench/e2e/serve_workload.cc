// serve_paper: four closed-loop clients calling ExpansionService.
// Clients 0 and 1 replay one job stream and clients 2 and 3 another, so
// every request has a concurrent twin for single-flight dedup to absorb.

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/expansion_service.h"
#include "crowd/aggregation.h"
#include "crowd/dispatcher.h"
#include "e2e.h"

namespace ccdb::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kClients = 4;
constexpr std::size_t kStreams = kClients / 2;
// The gold size the paper's Experiments 4-6 send to the crowd.
constexpr std::size_t kGold = 1000;
constexpr std::size_t kSmokeGold = 100;
// The measured phase runs as this many segments (see RunServe).
constexpr std::size_t kSegments = 8;
// Each phase and segment numbers its jobs from its own base, so twins stay
// aligned however many jobs the previous one completed.
constexpr std::uint64_t kWarmupBase = 0;
constexpr std::uint64_t kTimedBase = 1u << 20;
constexpr std::uint64_t kSegmentJobs = 1u << 16;
constexpr std::uint64_t kTracedBase = 2u << 20;

struct ServeJob {
  core::ExpansionJob job;
  std::size_t genre = 0;
};

// Job `job` of a phase starting at `base`, on stream `stream`: each block
// of jobs visits every genre once in a seeded order (a flight's cost
// depends on the genre's prevalence), the gold sample and HIT seed are
// drawn from the seed.
ServeJob MakeServeJob(const Fixture& fixture, std::uint64_t seed,
                      std::size_t stream, std::uint64_t base,
                      std::uint64_t job_number, std::size_t gold) {
  const data::SyntheticWorld& world = *fixture.world;
  const std::size_t genres = world.num_genres();
  std::vector<std::size_t> order(genres);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng block_rng(Mix(Mix(seed, stream), base + job_number / genres));
  block_rng.Shuffle(order);

  ServeJob serve;
  serve.genre = order[job_number % genres];
  Rng rng(Mix(Mix(~seed, stream), base + job_number));
  core::ExpansionJob& job = serve.job;
  job.table = "movies";
  job.request.attribute_name = GenreColumn(world, serve.genre);
  for (std::size_t item : rng.SampleWithoutReplacement(
           world.num_items(), std::min(gold, world.num_items()))) {
    job.request.gold_sample_items.push_back(static_cast<std::uint32_t>(item));
    job.sample_truth.push_back(
        world.GenreLabel(serve.genre, static_cast<std::uint32_t>(item)));
  }
  job.hit_config = TrustedHits(rng.NextUint64());
  return serve;
}

struct ServeRecord {
  std::uint64_t base = 0;  // of its phase
  std::uint64_t job = 0;   // within its phase
  std::size_t genre = 0;
  double latency_ms = kInf;
  std::string error;  // empty on success
  std::vector<bool> values;
  double minutes = 0.0;
};

struct Phase {
  std::uint64_t base = 0;
  std::size_t max_jobs = 0;  // per client
  double end_seconds = kInf;
  bool traced = false;
};

std::string JobName(const ServeRecord& record) {
  return std::to_string(record.base) + "+" + std::to_string(record.job);
}

// One closed-loop client: submit, wait, repeat until the phase ends, and
// then until the current block of genres is complete.
void RunClient(core::ExpansionService& service, const Fixture& fixture,
               std::uint64_t seed, std::size_t gold, std::size_t client,
               const Phase& phase, std::vector<ServeRecord>& records,
               Trace& trace) {
  Trace* const client_trace = phase.traced ? &trace : nullptr;
  const std::size_t stream = client / 2;
  const std::size_t block = fixture.world->num_genres();
  for (std::size_t j = 0;
       j < phase.max_jobs &&
       (NowSeconds() < phase.end_seconds || j % block != 0);
       ++j) {
    ServeRecord record;
    record.base = phase.base;
    record.job = j;
    ServeJob serve = MakeServeJob(fixture, seed, stream, phase.base, j, gold);
    record.genre = serve.genre;
    const std::uint64_t request_id = (client << 32) | j;

    const std::int64_t start = NowNs();
    std::optional<core::SchemaExpansionResult> result;
    {
      ScopedSpan root(client_trace, "request", Trace::kRoot, request_id);
      StatusOr<core::ExpansionService::Ticket> ticket = [&] {
        ScopedSpan admit(client_trace, "core.service.admit", root.index(),
                         request_id);
        return service.ExpandAttribute(std::move(serve.job));
      }();
      if (ticket.ok()) {
        ScopedSpan wait(client_trace, "core.service.wait", root.index(),
                        request_id);
        result = ticket.value().Wait();
      } else {
        record.error = ticket.status().ToString();
      }
    }
    const double latency_ms = static_cast<double>(NowNs() - start) * 1e-6;
    if (result.has_value()) {
      if (result->status.ok()) {
        record.latency_ms = latency_ms;
        record.values = std::move(result->values);
        record.minutes = result->crowd_minutes;
      } else {
        record.error = result->status.ToString();
      }
    }
    records.push_back(std::move(record));
  }
}

struct PhaseResult {
  std::vector<std::vector<ServeRecord>> records;  // per client
  std::vector<Trace> traces;                      // per client
  core::ServiceStats before;
  core::ServiceStats after;
  double wall_seconds = 0.0;
};

PhaseResult RunPhase(core::ExpansionService& service, const Fixture& fixture,
                     std::uint64_t seed, std::size_t gold,
                     const Phase& phase) {
  PhaseResult result;
  result.records.resize(kClients);
  result.traces.resize(kClients);
  result.before = service.stats();
  const double start = NowSeconds();
  {
    ThreadPool clients(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.Submit([&, c] {
        RunClient(service, fixture, seed, gold, c, phase, result.records[c],
                  result.traces[c]);
      });
    }
    clients.Wait();
  }
  result.wall_seconds = NowSeconds() - start;
  service.Drain();
  result.after = service.stats();
  return result;
}

// The flight a job becomes, replayed serially through the stages
// ExpandSchemaResilient runs: Dispatcher::Run, MajorityVote, Train and
// ExtractAll, one span per call. A change to those stages changes this
// function too (README, "Coupling to the resolver").
std::optional<std::vector<bool>> ReplayFlight(const Fixture& fixture,
                                              const core::ExpansionJob& job,
                                              Trace* trace,
                                              std::uint64_t request_id,
                                              LayerCounts& counts,
                                              std::string& error) {
  const core::PerceptualSpace& space = *fixture.space;
  const crowd::Dispatcher dispatcher(TrustedPool(), job.expansion.dispatcher);
  ScopedSpan root(trace, "flight", Trace::kRoot, request_id);
  const auto span = [&](const char* name) {
    return ScopedSpan(trace, name, root.index(), request_id);
  };
  StatusOr<crowd::DispatchResult> dispatched = [&] {
    auto post = span("crowd.post");
    return dispatcher.Run(job.sample_truth, job.hit_config);
  }();
  if (!dispatched.ok()) {
    error = dispatched.status().ToString();
    return std::nullopt;
  }
  const crowd::DispatchResult& run = dispatched.value();
  const std::vector<std::uint32_t>& gold = job.request.gold_sample_items;
  const std::vector<std::optional<bool>> votes = [&] {
    auto vote = span("crowd.vote");
    return crowd::MajorityVote(run.judgments, gold.size(), kInf);
  }();
  std::vector<std::uint32_t> items;
  std::vector<bool> labels;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    if (votes[i].has_value()) {
      items.push_back(gold[i]);
      labels.push_back(*votes[i]);
    }
  }
  core::BinaryAttributeExtractor extractor(job.request.extractor);
  const bool trained = [&] {
    auto train = span("core.extractor.train");
    return extractor.Train(space, items, labels);
  }();
  if (!trained) {
    error = "gold sample is one-class";
    return std::nullopt;
  }
  std::vector<bool> values = [&] {
    auto extract = span("core.extractor.extract");
    return extractor.ExtractAll(space);
  }();
  counts.crowd_runs += 1;
  counts.judgments += static_cast<double>(run.judgments.size());
  counts.gold_posted += static_cast<double>(gold.size());
  counts.gold_classified += static_cast<double>(items.size());
  counts.repost_rounds += static_cast<double>(run.stats.repost_rounds);
  counts.wasted_dollars += run.stats.wasted_dollars;
  counts.trainings += 1;
  counts.support_vectors +=
      static_cast<double>(extractor.model().num_support_vectors());
  counts.items_extracted += static_cast<double>(space.num_items());
  return values;
}

// Replays every `stride`-th distinct job of `phases` (one client of each
// twin pair) until `end_seconds`, checking each against the service's
// answer.
void ReplayAndCheck(const Fixture& fixture, std::uint64_t seed,
                    std::size_t gold, const std::vector<PhaseResult>& phases,
                    std::size_t stride, double end_seconds, Trace* trace,
                    LayerCounts& counts, RunResult& out) {
  std::size_t ordinal = 0;
  std::size_t replayed = 0;
  for (const PhaseResult& phase : phases) {
    std::size_t jobs = 0;
    for (std::size_t stream = 0; stream < kStreams; ++stream) {
      jobs = std::max(jobs, phase.records[2 * stream].size());
    }
    for (std::size_t j = 0; j < jobs; ++j) {
      for (std::size_t stream = 0; stream < kStreams; ++stream) {
        const std::vector<ServeRecord>& records = phase.records[2 * stream];
        if (j >= records.size() || ordinal++ % stride != 0) continue;
        if (NowSeconds() >= end_seconds) break;
        const ServeRecord& record = records[j];
        if (!record.error.empty()) continue;
        const ServeJob serve = MakeServeJob(fixture, seed, stream,
                                            record.base, record.job, gold);
        std::string error;
        const std::optional<std::vector<bool>> values = ReplayFlight(
            fixture, serve.job, trace,
            Mix(stream, record.base + record.job), counts, error);
        ++replayed;
        if (!values.has_value()) {
          out.Fail("replay of job " + JobName(record) + ": " + error);
        } else if (*values != record.values) {
          out.Fail("serial replay of job " + JobName(record) +
                   " differs from the service's answer");
        }
      }
    }
  }
  out.Note("replay_checks", static_cast<double>(replayed));
}

// Twins (clients 2s and 2s+1) submitted identical jobs and must have
// received identical columns.
void CheckTwins(const PhaseResult& phase, RunResult& out) {
  for (std::size_t stream = 0; stream < kStreams; ++stream) {
    const std::vector<ServeRecord>& a = phase.records[2 * stream];
    const std::vector<ServeRecord>& b = phase.records[2 * stream + 1];
    for (std::size_t j = 0; j < std::min(a.size(), b.size()); ++j) {
      if (a[j].error.empty() && b[j].error.empty() &&
          a[j].values != b[j].values) {
        out.Fail("twins disagree on job " + JobName(a[j]));
      }
    }
  }
}

void CheckStatsIdentities(const core::ServiceStats& s, RunResult& out) {
  if (s.submitted != s.admitted + s.deduped + s.shed + s.breaker_rejected) {
    out.Fail("ServiceStats: submitted != admitted + deduped + shed + "
             "breaker_rejected");
  }
  if (s.admitted !=
      s.completed + s.failed + s.cancelled + s.deadline_exceeded) {
    out.Fail("ServiceStats: admitted != completed + failed + cancelled + "
             "deadline_exceeded");
  }
}

}  // namespace

RunResult RunServe(const RunOptions& options, Trace& trace) {
  RunResult out;
  const data::WorldConfig world_config = PaperWorld(options.smoke);
  const core::PerceptualSpaceOptions space_options =
      SpaceOptions(options.smoke);
  const std::size_t gold = options.smoke ? kSmokeGold : kGold;
  std::vector<SetupTimes> builds;
  Fixture fixture;
  std::unique_ptr<core::ExpansionService> service;
  while (MoreSetups(options, builds)) {
    ProbeHostSpeed(true);
    service.reset();  // the service borrows the fixture's space
    fixture = Fixture();
    fixture = BuildFixture(world_config, &space_options, TableKind::kNone);
    const double start = NowSeconds();
    service = std::make_unique<core::ExpansionService>(*fixture.space,
                                                       TrustedPool());
    fixture.times.service_s = NowSeconds() - start;
    builds.push_back(fixture.times);
  }
  AddSetupMetrics(builds, out);
  out.Note("items", static_cast<double>(fixture.world->num_items()));
  out.Note("ratings", static_cast<double>(fixture.num_ratings));
  out.Note("dims", static_cast<double>(fixture.space->dims()));
  out.Note("clients", static_cast<double>(kClients));
  out.Note("gold", static_cast<double>(gold));

  const std::size_t warmup = options.smoke ? 1 : 2;
  const PhaseResult warm = RunPhase(*service, fixture, options.seed, gold,
                                    {kWarmupBase, warmup, kInf, false});
  for (const std::vector<ServeRecord>& records : warm.records) {
    for (const ServeRecord& record : records) {
      if (!record.error.empty()) out.Fail("warm-up: " + record.error);
    }
  }
  out.Note("warmup_jobs_per_client", static_cast<double>(warmup));
  ProbeHostSpeed(true);

  // An untraced run measures for the whole --seconds; a traced run splits
  // them between an untraced baseline, the traced phase and the serial
  // stage replay. Smoke runs stop on job counts instead. The measured
  // phase runs as segments that start and end with no request in flight,
  // so the host probe samples between them.
  const std::size_t max_jobs =
      options.smoke ? 2 : std::numeric_limits<std::size_t>::max();
  const double share = options.smoke    ? kInf
                       : options.traced ? options.seconds / 3.0
                                        : options.seconds;
  const std::size_t segments = options.smoke ? 1 : kSegments;
  std::vector<PhaseResult> timed;
  for (std::size_t s = 0; s < segments; ++s) {
    timed.push_back(RunPhase(
        *service, fixture, options.seed, gold,
        {kTimedBase + s * kSegmentJobs, max_jobs,
         NowSeconds() + share / static_cast<double>(segments), false}));
    ProbeHostSpeed(true);
  }

  const auto tally = [&](const PhaseResult& phase) {
    for (const std::vector<ServeRecord>& records : phase.records) {
      for (const ServeRecord& record : records) {
        ++out.attempted;
        if (!record.error.empty()) {
          ++out.failed;
          out.Fail("job " + JobName(record) + ": " + record.error);
        }
      }
    }
    CheckTwins(phase, out);
    CheckStatsIdentities(phase.after, out);
  };
  std::vector<double> latencies, gmeans;
  double wall_seconds = 0.0, dollars = 0.0, minutes = 0.0;
  for (const PhaseResult& phase : timed) {
    tally(phase);
    wall_seconds += phase.wall_seconds;
    dollars +=
        phase.after.crowd_dollars_spent - phase.before.crowd_dollars_spent;
    for (const std::vector<ServeRecord>& records : phase.records) {
      for (const ServeRecord& record : records) {
        latencies.push_back(record.latency_ms);
        if (!record.error.empty()) continue;
        gmeans.push_back(GMeanOf(
            record.values, fixture.world->GenreLabels(record.genre)));
        minutes += record.minutes;
      }
    }
  }
  AddLatencyMetrics(latencies, wall_seconds, out);
  const double answered = static_cast<double>(gmeans.size());
  out.Add("gmean",
          std::accumulate(gmeans.begin(), gmeans.end(), 0.0) / answered,
          "ratio");
  out.Add("dollars_per_query", dollars / answered, "USD");
  out.Add("crowd_minutes_per_query", minutes / answered, "min");

  LayerCounts counts;
  if (!options.traced) {
    ReplayAndCheck(fixture, options.seed, gold, timed, 100, kInf, nullptr,
                   counts, out);
    return out;
  }
  std::vector<PhaseResult> traced;
  traced.push_back(RunPhase(*service, fixture, options.seed, gold,
                            {kTracedBase, max_jobs, NowSeconds() + share,
                             true}));
  const PhaseResult& phase = traced.front();
  tally(phase);
  for (const Trace& client_trace : phase.traces) trace.Append(client_trace);
  counts.service_submitted =
      static_cast<double>(phase.after.submitted - phase.before.submitted);
  counts.service_deduped =
      static_cast<double>(phase.after.deduped - phase.before.deduped);
  counts.service_shed =
      static_cast<double>(phase.after.shed - phase.before.shed);
  counts.service_expansions = static_cast<double>(
      phase.after.expansions_run - phase.before.expansions_run);
  const double traced_p50 = Median(SpanDurationsMs(trace, "request"));
  ReplayAndCheck(fixture, options.seed, gold, traced, 1,
                 NowSeconds() + share, &trace, counts, out);
  AddLayerMetrics(trace, counts, Median(latencies), traced_p50, out);
  return out;
}

}  // namespace ccdb::e2e
