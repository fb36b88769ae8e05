#include "workloads.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/controller.h"
#include "core/policy.h"
#include "core/server_delay_model.h"
#include "layers.h"
#include "qoe/sigmoid_model.h"
#include "stats/bucketizer.h"
#include "testbed/broker_experiment.h"
#include "testbed/db_experiment.h"
#include "testbed/sharded_replay.h"
#include "testbed/workloads.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "trace/windows.h"
#include "util/thread_pool.h"

namespace e2e::perfbench {
namespace {

constexpr double kWindowMs = 10000.0;  // The paper's analysis window.
constexpr int kSetupRepeats = 3;       // setup_s is the median of these.
constexpr std::size_t kMinPasses = 3;  // Timed passes per run, at least.
constexpr double kBrokerSpeedup = 20.0;
constexpr double kDbSpeedup = 24.0;
constexpr double kDrainMs = 30000.0;   // Ticks run this far past the last
                                       // arrival, as in the testbeds.
constexpr std::uint64_t kPrimarySalt = 0x51;  // db testbed primary's seed.
// A controller pass is ~4,300 ticks; calibrating every 256 keeps its
// segments short against the host's speed changes.
constexpr std::uint64_t kTicksPerSegment = 256;

// The replay fans out to at most four shards: enough to show the pool's
// scaling, few enough to leave headroom on a small shared machine.
int Workers() { return std::min(4, ThreadPool::DefaultWorkers()); }

double Since(double start) { return WallSeconds() - start; }

// ---------------------------------------------------------------------------
// Inputs shared by the workloads.

Trace GenerateDay(std::uint64_t seed) {
  TraceGenParams params;
  params.seed = seed;
  params.scale = 1.0;  // The paper's whole day.
  return TraceGenerator(params).Generate();
}

// The per-page QoE models the evaluation scores with (§7.2): time-on-site
// for page types 1 and 2, the MTurk grade curve rescaled to [0, 1] for 3.
struct PageModels {
  QoeModelPtr type12 = std::make_shared<const SigmoidQoeModel>(
      SigmoidQoeModel::TraceTimeOnSite());
  QoeModelPtr type3 = std::make_shared<const NormalizedQoeModel>(
      NormalizedQoeModel::FromGradeScale(
          std::make_shared<const SigmoidQoeModel>(
              SigmoidQoeModel::MTurkMicrosoftPage())));

  const QoeModelPtr& For(PageType page) const {
    return page == PageType::kType3 ? type3 : type12;
  }
  QoeModelSelector Selector() const {
    return [this](PageType page) -> const QoeModel& { return *For(page); };
  }
};

// PageModels seen through the timing decorators.
struct TracedPageModels {
  TracedPageModels(const PageModels& base, CallLedger& ledger)
      : type12(base.type12, ledger), type3(base.type3, ledger) {}

  TracedQoeModel type12;
  TracedQoeModel type3;

  QoeModelSelector Selector() const {
    return [this](PageType page) -> const QoeModel& {
      return page == PageType::kType3 ? type3 : type12;
    };
  }
};

// The 3-replica G(.) of the full-volume scale replay: capacity sized so the
// whole day spreads load without saturating.
ProfiledReplicaModel ScaleServerModel() {
  LoadProfile profile;
  profile.max_rps = 120.0;
  for (int level = 1; level <= 8; ++level) {
    const double rps = 120.0 * static_cast<double>(level) / 8.0;
    profile.level_rps.push_back(rps);
    const double base = 40.0 + 12.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 105.0;
  return ProfiledReplicaModel(3, profile);
}

ShardedReplayConfig ReplayConfig(std::uint64_t seed, int shards) {
  ShardedReplayConfig config;
  config.common.seed = seed;
  config.common.controller.external.window_ms = kWindowMs;
  config.common.controller.shards = shards;
  config.keep_outcomes = false;  // Aggregates only: O(window) memory.
  return config;
}

// The priority broker's 8-level G(.) and controller settings.
broker::BrokerParams BrokerParams() {
  broker::BrokerParams params;
  params.priority_levels = 8;
  params.consume_interval_ms = 5.0;  // Paper: one message per 5 ms.
  params.num_consumers = 1;
  return params;
}

ControllerConfig BrokerControllerConfig() {
  ControllerConfig config;
  config.external.window_ms = kWindowMs;
  config.external.min_samples = 50;
  config.policy.target_buckets = 16;
  return config;
}

// The Cassandra-style testbed at the peak-hour operating point.
DbExperimentConfig DbConfig(std::uint64_t seed) {
  DbExperimentConfig config;
  config.policy = DbPolicy::kE2e;
  config.common.seed = seed;
  config.common.speedup = kDbSpeedup;
  config.dataset_keys = 20000;
  config.value_bytes = 64;
  config.range_count = 100;  // Paper: range queries of 100 rows.
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 160;
  config.cluster.base_service_ms = 220.0;
  config.cluster.capacity = 160.0;
  config.cluster.service_alpha = 8.0;
  config.cluster.service_beta = 1.3;
  config.profile_levels = 16;
  config.profile_max_rps = 100.0;
  config.profile_duration_ms = 60000.0;
  config.common.controller.external.window_ms = kWindowMs;
  config.common.controller.external.min_samples = 50;
  config.common.controller.policy.target_buckets = 24;
  config.common.controller.cache.rps_change_threshold = 0.15;
  return config;
}

// ---------------------------------------------------------------------------
// Timing.

struct PassTime {
  double wall = 0.0;
  double cpu = 0.0;
  double calibrated = 0.0;  // CalibratedTimer only.
};

PassTime TimePass(const std::function<void()>& pass) {
  const double cpu = CpuSeconds();
  const double wall = WallSeconds();
  pass();
  return PassTime{Since(wall), CpuSeconds() - cpu};
}

// Times a pass in segments. Checkpoint() closes the running segment, runs
// the reference kernel outside the timed segments, and opens the next; each
// segment's wall time is calibrated against the kernel runs on either side
// of it, so a long pass follows the host's speed as it changes.
class CalibratedTimer {
 public:
  // `reference` is the kernel's latest run; Finish() hands back the next.
  explicit CalibratedTimer(double reference) : reference_(reference) {
    Open();
  }

  void Checkpoint() {
    const double wall = Since(wall_start_);
    const double cpu = CpuSeconds() - cpu_start_;
    const double after = ReferenceSeconds();
    time_.wall += wall;
    time_.cpu += cpu;
    time_.calibrated += CalibratedSeconds(wall, (reference_ + after) / 2.0);
    reference_ = after;
    Open();
  }

  PassTime Finish(double& reference) {
    Checkpoint();
    reference = reference_;
    return time_;
  }

 private:
  void Open() {
    cpu_start_ = CpuSeconds();
    wall_start_ = WallSeconds();
  }

  double reference_;
  double wall_start_ = 0.0;
  double cpu_start_ = 0.0;
  PassTime time_;
};

// Runs `warmup` untimed, then `pass` until `seconds` have passed and at
// least kMinPasses passes ran.
std::vector<PassTime> MeasurePasses(
    double seconds, const std::function<void()>& warmup,
    const std::function<void(CalibratedTimer&)>& pass) {
  warmup();
  std::vector<PassTime> times;
  double reference = ReferenceSeconds();
  const double deadline = WallSeconds() + seconds;
  while (times.size() < kMinPasses || WallSeconds() < deadline) {
    CalibratedTimer timer(reference);
    pass(timer);
    times.push_back(timer.Finish(reference));
  }
  return times;
}

double MedianWall(const std::vector<PassTime>& times) {
  std::vector<double> v;
  for (const PassTime& t : times) v.push_back(t.wall);
  return Median(v);
}

double MedianCpu(const std::vector<PassTime>& times) {
  std::vector<double> v;
  for (const PassTime& t : times) v.push_back(t.cpu);
  return Median(v);
}

double MedianCalibrated(const std::vector<PassTime>& times) {
  std::vector<double> v;
  for (const PassTime& t : times) v.push_back(t.calibrated);
  return Median(v);
}

// run_s (calibrated), and the wall and CPU times behind it.
void AddPassMetrics(RunReport& report, const std::vector<PassTime>& times) {
  report.metrics.Add("run_s", MedianCalibrated(times), "s");
  report.detail.Add("run_s.wall", MedianWall(times), "s");
  report.detail.Add("cpu_s", MedianCpu(times), "s");
  std::vector<double> reference;  // The kernel time the pass saw, on average.
  for (const PassTime& t : times) {
    reference.push_back(kReferenceNominalSeconds * t.wall / t.calibrated);
  }
  report.detail.Add("reference_ms", Median(reference) * 1e3, "ms");
  std::vector<double> wall;
  for (const PassTime& t : times) wall.push_back(t.wall);
  report.detail.Add("passes", static_cast<double>(times.size()), "count");
  report.detail.Add("run_s.min", *std::min_element(wall.begin(), wall.end()),
                    "s");
  report.detail.Add("run_s.max", *std::max_element(wall.begin(), wall.end()),
                    "s");
}

// Sets up kSetupRepeats times (freeing each result before the next), keeps
// the last, and reports setup_s from the calibrated set-up times.
template <typename T>
T RepeatSetup(const std::function<T()>& setup, RunReport& report) {
  std::optional<T> result;
  std::vector<PassTime> times;
  double reference = ReferenceSeconds();
  for (int i = 0; i < kSetupRepeats; ++i) {
    result.reset();
    CalibratedTimer timer(reference);
    result.emplace(setup());
    times.push_back(timer.Finish(reference));
  }
  report.metrics.Add("setup_s", MedianCalibrated(times), "s");
  report.detail.Add("setup_s.wall", MedianWall(times), "s");
  return std::move(*result);
}

// Adds "<name>.samples", "<name>.p50" and every tail percentile up to the
// highest that leaves ten samples beyond it.
void AddDistribution(Ledger& out, const std::string& name,
                     const std::vector<double>& samples,
                     const std::string& unit) {
  out.Add(name + ".samples", static_cast<double>(samples.size()), "count");
  if (samples.empty()) return;
  out.Add(name + ".p50", Median(samples), unit);
  const double tail = TailPercentile(samples.size());
  for (const double p : {90.0, 99.0, 99.9}) {
    if (p > tail) break;
    out.Add(name + "." + PercentileLabel(p), Percentile(samples, p), unit);
  }
}

// ---------------------------------------------------------------------------
// Work counts and the per-layer figures every traced run reports.

struct PolicyTotals {
  std::uint64_t solves = 0;
  std::uint64_t transport_solves = 0;
  std::uint64_t warm_resolves = 0;
  std::uint64_t allocations_evaluated = 0;
  std::uint64_t hill_climb_steps = 0;

  void Add(const PolicyStats& s) {
    ++solves;
    transport_solves += static_cast<std::uint64_t>(s.transport_solves);
    warm_resolves += static_cast<std::uint64_t>(s.warm_resolves);
    allocations_evaluated +=
        static_cast<std::uint64_t>(s.allocations_evaluated);
    hill_climb_steps += static_cast<std::uint64_t>(s.hill_climb_steps);
  }
  bool operator==(const PolicyTotals&) const = default;
};

struct LayerFigures {
  double generate_s = 0.0;
  double g_build_s = 0.0;
  double ingest_s = 0.0;
  double solve_s = 0.0;
  std::vector<double> solve_us;
  PolicyTotals policy;
  CallLedger g;
  CallLedger qoe;
  double lookup_ns = 0.0;
  double testbed_self_s = 0.0;
  double tracing_overhead_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t db_requests = 0;
  std::uint64_t db_failovers = 0;
};

void EmitLayers(const LayerFigures& f, Ledger& out) {
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out.Add("trace.generate_s", f.generate_s, "s");
  out.Add("core.g.build_s", f.g_build_s, "s");
  out.Add("ingest_s", f.ingest_s, "s");
  out.Add("core.policy.solves", count(f.policy.solves), "count");
  out.Add("core.policy.solve_s", f.solve_s, "s");
  out.Add("core.policy.solve_us.p50", Median(f.solve_us), "us");
  out.Add("core.policy.solve_us.p90", Percentile(f.solve_us, 90.0), "us");
  // The hill climb and the matching layer: no public boundary to time.
  out.Add("core.policy.self_s",
          f.solve_s - LayerSeconds(f.g) - LayerSeconds(f.qoe), "s");
  out.Add("core.policy.transport_solves", count(f.policy.transport_solves),
          "count");
  out.Add("core.policy.warm_resolves", count(f.policy.warm_resolves),
          "count");
  out.Add("core.policy.warm_ratio",
          f.policy.transport_solves == 0
              ? 0.0
              : count(f.policy.warm_resolves) /
                    count(f.policy.transport_solves),
          "ratio");
  out.Add("core.policy.allocations_evaluated",
          count(f.policy.allocations_evaluated), "count");
  out.Add("core.policy.hill_climb_steps", count(f.policy.hill_climb_steps),
          "count");
  out.Add("core.g.calls", count(f.g.calls), "count");
  out.Add("core.g.overload_calls", count(f.g.overload_calls), "count");
  out.Add("core.g.s", LayerSeconds(f.g), "s");
  out.Add("qoe.calls", count(f.qoe.calls), "count");
  out.Add("qoe.s", LayerSeconds(f.qoe), "s");
  out.Add("core.table.lookup_ns", f.lookup_ns, "ns");
  out.Add("testbed.self_s", f.testbed_self_s, "s");
  out.Add("tracing_overhead_s", f.tracing_overhead_s, "s");
  out.Add("sim.events", count(f.sim_events), "count");
  out.Add("db.requests", count(f.db_requests), "count");
  out.Add("db.failovers", count(f.db_failovers), "count");
}

// ---------------------------------------------------------------------------
// replay_day.

struct ReplayInputs {
  Trace trace;
  ProfiledReplicaModel g;
};

ReplayInputs SetupReplay(std::uint64_t seed, LayerFigures& f) {
  double start = WallSeconds();
  Trace trace = GenerateDay(seed);
  f.generate_s = Since(start);
  start = WallSeconds();
  ProfiledReplicaModel g = ScaleServerModel();
  f.g_build_s = Since(start);
  return ReplayInputs{std::move(trace), std::move(g)};
}

// The deterministic output of one replay.
struct ReplayFingerprint {
  std::uint64_t records = 0;
  std::uint64_t windows = 0;
  std::uint64_t groups = 0;
  std::uint64_t served = 0;
  std::uint64_t abandoned = 0;
  double mean_qoe = 0.0;
  std::vector<std::uint64_t> histogram;

  explicit ReplayFingerprint(const ShardedReplayResult& r)
      : records(r.stats.records),
        windows(r.stats.windows_streamed),
        groups(r.stats.groups_merged),
        served(r.result.completed),
        abandoned(r.result.abandoned),
        mean_qoe(r.result.mean_qoe),
        histogram(r.qoe_histogram) {}
  bool operator==(const ReplayFingerprint&) const = default;
};

ShardedReplayResult Replay(const ReplayInputs& in, const QoeModelSelector& qoe,
                           const ServerDelayModel& g, std::uint64_t seed,
                           int shards) {
  return ReplayTraceSharded(in.trace.records, qoe, g,
                            ReplayConfig(seed, shards));
}

void CheckReplay(RunOutcome& outcome, const ReplayInputs& in,
                 const ReplayFingerprint& fp) {
  outcome.Check(fp.records == in.trace.records.size(),
                "replay: records replayed != trace records");
  outcome.Check(fp.served + fp.abandoned == fp.records,
                "replay: served + abandoned != records");
  outcome.Check(fp.groups > 0 && fp.windows > 0, "replay: no groups solved");
}

void AddReplayChecks(Ledger& checks, const ReplayFingerprint& fp) {
  checks.Add("records", static_cast<double>(fp.records), "count");
  checks.Add("groups", static_cast<double>(fp.groups), "count");
  checks.Add("windows", static_cast<double>(fp.windows), "count");
  checks.Add("mean_qoe", fp.mean_qoe, "qoe");
}

// The replay's stages re-driven from outside, serially: StreamByWindow
// routes the records into (window, page) groups; on each window close every
// group is bucketized, solved with ComputePolicy, looked up per record in
// its table and charged the planned mean server delay under Q — the work
// ReplayTraceSharded does per group, in its merge order, so the mean QoE
// comes out bit-identical. `policy_*` are the models the solve sees (the
// timing decorators in the traced pass); the charge always uses the plain
// ones, so the decorators count the policy's calls only.
struct ReDrive {
  std::uint64_t records = 0;
  std::uint64_t windows = 0;
  std::uint64_t groups = 0;
  std::uint64_t buckets = 0;
  std::uint64_t served = 0;
  double sum_qoe = 0.0;
  PolicyTotals policy;

  double wall_s = 0.0;
  double stream_s = 0.0;     // StreamByWindow and the routing into groups.
  double bucketize_s = 0.0;  // Bucketizer::Add up to the first buckets().
  double solve_s = 0.0;      // ComputePolicy.
  double lookup_s = 0.0;     // DecisionTable::LookupRow per record.
  double price_s = 0.0;      // Planned mean delay + Q per record.
  std::vector<double> solve_us;

  double mean_qoe() const {
    return served == 0 ? 0.0 : sum_qoe / static_cast<double>(served);
  }
};

ReDrive ReDriveReplay(const ReplayInputs& in,
                      const QoeModelSelector& policy_qoe,
                      const ServerDelayModel& policy_g,
                      const QoeModelSelector& charge_qoe, std::uint64_t seed) {
  const ShardedReplayConfig config = ReplayConfig(seed, 1);
  const ControllerConfig& ctrl = config.common.controller;
  PolicyConfig policy = ctrl.policy;
  policy.parallel_workers = 1;  // As the replay's per-group solves run.
  const ServerDelayModel& charge_g = in.g;

  ReDrive out;
  std::array<std::vector<const TraceRecord*>, kNumPageTypes> open;
  std::vector<const DecisionTableRow*> rows;
  std::vector<double> mean_delay;
  const double start = WallSeconds();
  StreamByWindow(
      in.trace.records, ctrl.external.window_ms,
      [&](const WindowKey& key, const TraceRecord& r) {
        open[static_cast<std::size_t>(Index(key.page_type))].push_back(&r);
        ++out.records;
      },
      [&](std::int64_t) {
        ++out.windows;
        for (int page = 0; page < kNumPageTypes; ++page) {
          std::vector<const TraceRecord*>& group =
              open[static_cast<std::size_t>(page)];
          if (group.empty()) continue;
          ++out.groups;
          const PageType type = PageTypeFromIndex(page);

          double t = WallSeconds();
          Bucketizer externals(policy.target_buckets,
                               policy.max_bucket_span_ms);
          for (const TraceRecord* r : group) {
            externals.Add(r->external_delay_ms);
          }
          out.buckets += externals.buckets().size();
          double now = WallSeconds();
          out.bucketize_s += now - t;

          t = now;
          const double rps = static_cast<double>(group.size()) /
                             (ctrl.external.window_ms / 1000.0) *
                             ctrl.rps_planning_factor;
          const PolicyResult pr =
              ComputePolicy(policy_qoe(type), policy_g, externals, rps, policy);
          now = WallSeconds();
          out.solve_s += now - t;
          out.solve_us.push_back((now - t) * 1e6);
          out.policy.Add(pr.stats);

          t = now;
          rows.clear();
          for (const TraceRecord* r : group) {
            rows.push_back(&pr.table.LookupRow(r->external_delay_ms));
          }
          now = WallSeconds();
          out.lookup_s += now - t;

          t = now;
          const QoeModel& qoe = charge_qoe(type);
          mean_delay.assign(static_cast<std::size_t>(charge_g.NumDecisions()),
                            -1.0);
          for (std::size_t i = 0; i < group.size(); ++i) {
            const int decision = rows[i]->decision;
            double& delay = mean_delay[static_cast<std::size_t>(decision)];
            if (delay < 0.0) {
              delay = charge_g
                          .DelayDistribution(decision, pr.table.load_fractions,
                                             rps)
                          .Mean();
            }
            out.sum_qoe += qoe.Qoe(group[i]->external_delay_ms + delay);
            ++out.served;
          }
          out.price_s += Since(t);
          group.clear();
        }
      });
  out.wall_s = Since(start);
  out.stream_s = out.wall_s - out.bucketize_s - out.solve_s - out.lookup_s -
                 out.price_s;
  return out;
}

void RunReplayUntraced(const RunOptions& o, RunReport& report) {
  LayerFigures stages;
  const ReplayInputs in = RepeatSetup<ReplayInputs>(
      [&] { return SetupReplay(o.seed, stages); }, report);
  const PageModels pages;
  const QoeModelSelector qoe = pages.Selector();
  const int workers = Workers();

  std::optional<ReplayFingerprint> first;
  const auto pass = [&] {
    const ReplayFingerprint fp(Replay(in, qoe, in.g, o.seed, 1));
    if (!first) first = fp;
    report.outcome.Attempt(fp.records);
    report.outcome.Check(fp == *first, "replay: pass output differs");
  };
  const std::vector<PassTime> times =
      MeasurePasses(o.seconds, pass, [&](CalibratedTimer&) { pass(); });
  CheckReplay(report.outcome, in, *first);

  // The same day at N shards, once (the traced run takes medians); serial
  // and sharded replays must agree byte for byte.
  std::optional<ReplayFingerprint> other;
  const PassTime sharded = TimePass(
      [&] { other.emplace(Replay(in, qoe, in.g, o.seed, workers)); });
  report.outcome.Attempt(other->records);
  report.outcome.Check(*other == *first,
                       "replay: serial and sharded outputs differ");

  AddPassMetrics(report, times);
  report.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.metrics.Add("mean_qoe", first->mean_qoe, "qoe");

  report.detail.Add("shards", workers, "count");
  report.detail.Add("replay_s.serial", MedianWall(times), "s");
  report.detail.Add("replay_cpu_s.serial", MedianCpu(times), "s");
  report.detail.Add("replay_s.sharded", sharded.wall, "s");
  report.detail.Add("replay_cpu_s.sharded", sharded.cpu, "s");
  report.detail.Add("trace.generate_s", stages.generate_s, "s");
  AddReplayChecks(report.checks, *first);
}

void RunReplayTraced(const RunOptions& o, RunReport& report) {
  LayerFigures f;
  const ReplayInputs in = SetupReplay(o.seed, f);
  const PageModels pages;
  const QoeModelSelector qoe = pages.Selector();
  const int workers = Workers();

  // Untraced serial replays interleaved with untraced-model re-drives: the
  // re-drive's stage times partition the replay's wall time.
  std::optional<ReplayFingerprint> fp;
  std::vector<PassTime> serial;
  std::vector<double> stream, bucketize, solve, lookup, price;
  std::vector<double> solve_us;
  std::optional<ReDrive> plain;
  const auto round = [&] {
    serial.push_back(TimePass([&] {
      const ReplayFingerprint now(Replay(in, qoe, in.g, o.seed, 1));
      if (!fp) fp = now;
      report.outcome.Attempt(now.records);
      report.outcome.Check(now == *fp, "replay: pass output differs");
    }));
    ReDrive rd = ReDriveReplay(in, qoe, in.g, qoe, o.seed);
    report.outcome.Attempt(rd.records);
    stream.push_back(rd.stream_s);
    bucketize.push_back(rd.bucketize_s);
    solve.push_back(rd.solve_s);
    lookup.push_back(rd.lookup_s);
    price.push_back(rd.price_s);
    solve_us.insert(solve_us.end(), rd.solve_us.begin(), rd.solve_us.end());
    plain = std::move(rd);
  };
  // Warm-up, then at least two measured rounds.
  Replay(in, qoe, in.g, o.seed, 1);
  const double deadline = WallSeconds() + o.seconds;
  while (serial.size() < 2 || WallSeconds() < deadline) round();
  CheckReplay(report.outcome, in, *fp);

  // The re-drive reproduces the replay.
  report.outcome.Check(plain->groups == fp->groups &&
                           plain->windows == fp->windows &&
                           plain->records == fp->records,
                       "re-drive: groups/windows/records differ from replay");
  report.outcome.Check(plain->mean_qoe() == fp->mean_qoe,
                       "re-drive: mean_qoe differs from replay");

  // Traced pass: the re-drive with the policy's G and Q behind the timing
  // decorators.
  TracedServerModel traced_g(in.g, f.g);
  const TracedPageModels traced_pages(pages, f.qoe);
  const ReDrive traced = ReDriveReplay(in, traced_pages.Selector(), traced_g,
                                       qoe, o.seed);
  report.outcome.Attempt(traced.records);
  report.outcome.Check(traced.mean_qoe() == fp->mean_qoe &&
                           traced.policy == plain->policy,
                       "traced re-drive: output differs from replay");

  // The decorators leave the replay itself unchanged.
  {
    CallLedger g_calls, q_calls;
    TracedServerModel g(in.g, g_calls);
    const TracedPageModels q(pages, q_calls);
    const ReplayFingerprint decorated(
        Replay(in, q.Selector(), g, o.seed, 1));
    report.outcome.Attempt(decorated.records);
    report.outcome.Check(decorated == *fp,
                         "decorated replay: output differs from replay");
  }

  // Shard fan-out: the same replay at N shards.
  std::vector<PassTime> sharded;
  for (int i = 0; i < 3; ++i) {
    sharded.push_back(TimePass([&] {
      const ReplayFingerprint now(Replay(in, qoe, in.g, o.seed, workers));
      report.outcome.Attempt(now.records);
      report.outcome.Check(now == *fp,
                           "replay: serial and sharded outputs differ");
    }));
  }

  const double serial_s = MedianWall(serial);
  const double sharded_s = MedianWall(sharded);
  const double stream_s = Median(stream);
  const double bucketize_s = Median(bucketize);
  const double solve_s = Median(solve);
  const double charge_s = Median(lookup) + Median(price);
  const double engine_self_s =
      serial_s - stream_s - bucketize_s - solve_s - charge_s;

  f.ingest_s = stream_s + bucketize_s;
  f.solve_s = solve_s;
  f.solve_us = solve_us;
  f.policy = plain->policy;
  f.lookup_ns = Median(lookup) / static_cast<double>(plain->records) * 1e9;
  f.testbed_self_s = serial_s - f.ingest_s - solve_s - charge_s;
  f.tracing_overhead_s = traced.wall_s - serial_s;
  EmitLayers(f, report.metrics);

  Ledger& d = report.detail;
  d.Add("shards", workers, "count");
  d.Add("rounds", static_cast<double>(serial.size()), "count");
  d.Add("replay_s.serial", serial_s, "s");
  d.Add("replay_s.sharded", sharded_s, "s");
  d.Add("replay_cpu_s.serial", MedianCpu(serial), "s");
  d.Add("replay_cpu_s.sharded", MedianCpu(sharded), "s");
  d.Add("trace.stream_s", stream_s, "s");
  d.Add("stats.bucketize_s", bucketize_s, "s");
  d.Add("stats.buckets_per_group",
        static_cast<double>(plain->buckets) /
            static_cast<double>(plain->groups),
        "count");
  AddDistribution(d, "core.policy.solve_us", solve_us, "us");
  d.Add("testbed.replay.charge_s", charge_s, "s");
  d.Add("testbed.replay.engine_self_s", engine_self_s, "s");
  d.Add("testbed.replay.shard_efficiency",
        serial_s / (static_cast<double>(workers) * sharded_s), "ratio");
  d.Add("util.pool.extra_cpu_s", MedianCpu(sharded) - MedianCpu(serial), "s");
  d.Add("redrive_s", plain->wall_s, "s");
  d.Add("redrive_traced_s", traced.wall_s, "s");
  AddReplayChecks(report.checks, *fp);
}

// ---------------------------------------------------------------------------
// controller_live, and the db testbed's controller re-driven.

struct LiveInputs {
  std::vector<ReplayArrival> schedule;
  std::shared_ptr<const ServerDelayModel> g;
  QoeModelPtr qoe;
  ControllerConfig config;
  double tick_interval_ms = 1000.0;
  std::uint64_t controller_seed = 0;
};

// One closed-loop pass of a Controller over a replay schedule: every
// tick interval's arrivals are observed, then decided, then the interval's
// Tick runs. Between two ticks neither call reads what the other writes
// (the table changes only in Tick; estimates draw no randomness at zero
// injected error), so this is the per-arrival Observe-then-Decide loop,
// timed in batches so the clock read does not dominate a ~60 ns call.
struct LivePass {
  std::uint64_t arrivals = 0;
  std::uint64_t decided = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ticks_with_distribution = 0;
  double sum_objective = 0.0;
  double sum_planned_qoe = 0.0;
  PolicyTotals policy;
  PolicyStats last_stats;

  double wall_s = 0.0;
  double observe_s = 0.0;
  double decide_s = 0.0;
  double recompute_s = 0.0;  // Tick calls that installed a table.
  double tick_s = 0.0;       // The other Tick calls.
  std::vector<double> recompute_us;
  std::vector<double> decide_ns;  // Mean per call, one sample per batch.
  std::vector<double> tick_us;

  double mean_planned_qoe() const {
    return decided == 0 ? 0.0
                        : sum_planned_qoe / static_cast<double>(decided);
  }
  bool SameOutput(const LivePass& o) const {
    return arrivals == o.arrivals && decided == o.decided &&
           ticks == o.ticks && policy == o.policy &&
           sum_objective == o.sum_objective &&
           sum_planned_qoe == o.sum_planned_qoe;
  }
};

// `timer`, when given, is checkpointed every kTicksPerSegment ticks.
LivePass DriveController(const LiveInputs& in, QoeModelPtr qoe,
                         std::shared_ptr<const ServerDelayModel> g,
                         std::size_t arrivals,
                         CalibratedTimer* timer = nullptr) {
  Controller controller("perfbench", in.config, std::move(qoe), std::move(g),
                        in.controller_seed);
  const std::vector<ReplayArrival>& s = in.schedule;
  const std::size_t n = std::min(arrivals, s.size());
  const double horizon_ms = s[n - 1].testbed_time_ms + kDrainMs;

  LivePass out;
  out.arrivals = n;
  std::size_t next = 0;
  const double start = WallSeconds();
  for (double t = in.tick_interval_ms; t <= horizon_ms;
       t += in.tick_interval_ms) {
    // Arrivals at or before the tick come first, as in the event loop.
    std::size_t end = next;
    while (end < n && s[end].testbed_time_ms <= t) ++end;
    if (end > next) {
      double t0 = WallSeconds();
      for (std::size_t i = next; i < end; ++i) {
        controller.ObserveArrival(s[i].record.external_delay_ms,
                                  s[i].testbed_time_ms);
      }
      double t1 = WallSeconds();
      out.observe_s += t1 - t0;
      const DecisionTable* table = controller.CurrentTable();
      if (table != nullptr) {
        std::uint64_t decided = 0;
        for (std::size_t i = next; i < end; ++i) {
          decided += controller.Decide(s[i].record.external_delay_ms) >= 0;
        }
        const double t2 = WallSeconds();
        out.decide_s += t2 - t1;
        out.decide_ns.push_back((t2 - t1) * 1e9 /
                                static_cast<double>(end - next));
        out.decided += decided;
        // The QoE the installed plan expects for these requests.
        for (std::size_t i = next; i < end; ++i) {
          out.sum_planned_qoe +=
              table->LookupRow(s[i].record.external_delay_ms).expected_qoe;
        }
      }
      next = end;
    }
    const double t0 = WallSeconds();
    const bool installed = controller.Tick(t);
    const double dt = Since(t0);
    ++out.ticks;
    if (controller.external_model().HasDistribution()) {
      ++out.ticks_with_distribution;
    }
    if (installed) {
      out.recompute_s += dt;
      out.recompute_us.push_back(dt * 1e6);
      out.sum_objective += controller.CurrentTable()->objective_value;
      out.last_stats = controller.stats().last_policy_stats;
      out.policy.Add(out.last_stats);
    } else {
      out.tick_s += dt;
      out.tick_us.push_back(dt * 1e6);
    }
    if (timer != nullptr && out.ticks % kTicksPerSegment == 0) {
      timer->Checkpoint();
    }
  }
  out.wall_s = Since(start);
  return out;
}

LiveInputs SetupLive(std::uint64_t seed, LayerFigures& f) {
  double start = WallSeconds();
  const Trace trace = GenerateDay(seed);
  f.generate_s = Since(start);
  LiveInputs in;
  in.schedule = BuildReplaySchedule(trace.FilterByPage(PageType::kType1),
                                    kBrokerSpeedup);
  start = WallSeconds();
  in.g = BuildBrokerServerModel(BrokerParams());
  f.g_build_s = Since(start);
  in.qoe = PageModels().type12;
  in.config = BrokerControllerConfig();
  in.controller_seed = seed;
  return in;
}

void AddLiveDetail(Ledger& d, const std::vector<LivePass>& passes) {
  std::vector<double> recompute_ms, decide_ns, tick_us, observe_ns;
  for (const LivePass& p : passes) {
    for (const double us : p.recompute_us) recompute_ms.push_back(us / 1e3);
    decide_ns.insert(decide_ns.end(), p.decide_ns.begin(), p.decide_ns.end());
    tick_us.insert(tick_us.end(), p.tick_us.begin(), p.tick_us.end());
    observe_ns.push_back(p.observe_s * 1e9 / static_cast<double>(p.arrivals));
  }
  const LivePass& last = passes.back();
  d.Add("recomputes", static_cast<double>(last.policy.solves), "count");
  AddDistribution(d, "recompute_ms", recompute_ms, "ms");
  AddDistribution(d, "decide_ns", decide_ns, "ns");
  d.Add("core.controller.observe_ns", Median(observe_ns), "ns");
  AddDistribution(d, "core.controller.tick_us", tick_us, "us");
  d.Add("core.controller.refresh_ratio",
        last.ticks_with_distribution == 0
            ? 0.0
            : static_cast<double>(last.policy.solves) /
                  static_cast<double>(last.ticks_with_distribution),
        "ratio");
}

void RunLiveUntraced(const RunOptions& o, RunReport& report) {
  LayerFigures stages;
  const LiveInputs in = RepeatSetup<LiveInputs>(
      [&] { return SetupLive(o.seed, stages); }, report);

  std::vector<LivePass> passes;
  const auto pass = [&](CalibratedTimer& timer) {
    passes.push_back(
        DriveController(in, in.qoe, in.g, in.schedule.size(), &timer));
    report.outcome.Attempt(passes.back().arrivals);
    report.outcome.Check(passes.back().SameOutput(passes.front()),
                         "controller: pass output differs");
  };
  // Warm-up: the first eighth of the day.
  const auto warmup = [&] {
    DriveController(in, in.qoe, in.g, in.schedule.size() / 8);
  };
  const std::vector<PassTime> times = MeasurePasses(o.seconds, warmup, pass);
  const LivePass& first = passes.front();
  report.outcome.Check(first.arrivals == in.schedule.size(),
                       "controller: arrivals not conserved");
  report.outcome.Check(first.policy.solves > 0 && first.decided > 0,
                       "controller: no table installed");

  AddPassMetrics(report, times);
  report.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.metrics.Add("mean_qoe", first.mean_planned_qoe(), "qoe");

  report.detail.Add("trace.generate_s", stages.generate_s, "s");
  AddLiveDetail(report.detail, passes);
  report.checks.Add("arrivals", static_cast<double>(first.arrivals), "count");
  report.checks.Add("recomputes", static_cast<double>(first.policy.solves),
                    "count");
  report.checks.Add("objective_sum", first.sum_objective, "qoe");
}

// Fills the stage figures of `f` from passes without the decorators.
void PolicyFigures(const std::vector<LivePass>& plain, LayerFigures& f) {
  std::vector<double> ingest, solve, lookup_ns;
  for (const LivePass& p : plain) {
    ingest.push_back(p.observe_s);
    solve.push_back(p.recompute_s);
    lookup_ns.push_back(p.decide_s * 1e9 / static_cast<double>(p.decided));
    f.solve_us.insert(f.solve_us.end(), p.recompute_us.begin(),
                      p.recompute_us.end());
  }
  f.ingest_s = Median(ingest);
  f.solve_s = Median(solve);
  f.lookup_ns = Median(lookup_ns);
  f.policy = plain.back().policy;
}

void RunLiveTraced(const RunOptions& o, RunReport& report) {
  LayerFigures f;
  const LiveInputs in = SetupLive(o.seed, f);

  DriveController(in, in.qoe, in.g, in.schedule.size() / 8);
  std::vector<LivePass> passes;
  std::vector<PassTime> times;
  const double deadline = WallSeconds() + o.seconds;
  while (passes.size() < 2 || WallSeconds() < deadline) {
    times.push_back(TimePass([&] {
      passes.push_back(DriveController(in, in.qoe, in.g, in.schedule.size()));
    }));
    report.outcome.Attempt(passes.back().arrivals);
    report.outcome.Check(passes.back().SameOutput(passes.front()),
                         "controller: pass output differs");
  }

  auto traced_g = std::make_shared<const TracedServerModel>(*in.g, f.g);
  auto traced_qoe = std::make_shared<const TracedQoeModel>(in.qoe, f.qoe);
  const LivePass traced = DriveController(in, traced_qoe, traced_g,
                                          in.schedule.size());
  report.outcome.Attempt(traced.arrivals);
  report.outcome.Check(traced.SameOutput(passes.front()),
                       "traced controller: output differs");

  PolicyFigures(passes, f);
  const double run_s = MedianWall(times);
  std::vector<double> decide, tick;
  for (const LivePass& p : passes) {
    decide.push_back(p.decide_s);
    tick.push_back(p.tick_s);
  }
  // The loop's own share: planned-QoE accounting and batching.
  f.testbed_self_s =
      run_s - f.ingest_s - f.solve_s - Median(decide) - Median(tick);
  f.tracing_overhead_s = traced.wall_s - run_s;
  EmitLayers(f, report.metrics);

  report.detail.Add("passes", static_cast<double>(passes.size()), "count");
  report.detail.Add("run_s.wall", run_s, "s");
  AddLiveDetail(report.detail, passes);
  report.checks.Add("arrivals", static_cast<double>(passes[0].arrivals),
                    "count");
  report.checks.Add("recomputes",
                    static_cast<double>(passes[0].policy.solves), "count");
  report.checks.Add("objective_sum", passes[0].sum_objective, "qoe");
}

// ---------------------------------------------------------------------------
// db_peak.

struct DbInputs {
  std::vector<TraceRecord> slice;
  DbExperimentConfig config;
};

DbInputs SetupDb(std::uint64_t seed, LayerFigures& f) {
  const double start = WallSeconds();
  const Trace trace = GenerateDay(seed);
  f.generate_s = Since(start);
  return DbInputs{HourSlice(trace, PageType::kType1, 16, 17), DbConfig(seed)};
}

struct DbFingerprint {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t recomputes = 0;
  double mean_qoe = 0.0;

  explicit DbFingerprint(const ExperimentResult& r)
      : arrivals(r.arrivals),
        completed(r.completed),
        failed_over(r.failed_over),
        dropped(r.dropped),
        shed(r.shed),
        abandoned(r.abandoned),
        recomputes(r.controller_stats.recomputes),
        mean_qoe(r.mean_qoe) {}
  std::uint64_t served() const { return completed + failed_over; }
  std::uint64_t unserved() const { return dropped + shed + abandoned; }
  bool operator==(const DbFingerprint&) const = default;
};

void CheckDb(RunOutcome& outcome, const DbInputs& in,
             const DbFingerprint& fp) {
  outcome.Check(fp.arrivals == in.slice.size(),
                "db: arrivals != slice records");
  outcome.Check(fp.completed + fp.failed_over + fp.dropped + fp.shed +
                        fp.abandoned ==
                    fp.arrivals,
                "db: outcomes do not conserve arrivals");
  outcome.Check(fp.recomputes > 0, "db: controller installed no table");
}

void AddDbChecks(Ledger& checks, const DbFingerprint& fp) {
  checks.Add("arrivals", static_cast<double>(fp.arrivals), "count");
  checks.Add("served", static_cast<double>(fp.served()), "count");
  checks.Add("mean_qoe", fp.mean_qoe, "qoe");
}

void RunDbUntraced(const RunOptions& o, RunReport& report) {
  LayerFigures stages;
  const DbInputs in = RepeatSetup<DbInputs>(
      [&] { return SetupDb(o.seed, stages); }, report);
  const PageModels pages;

  std::optional<DbFingerprint> first;
  const auto pass = [&] {
    const DbFingerprint fp(RunDbExperiment(in.slice, *pages.type12, in.config));
    if (!first) first = fp;
    report.outcome.Attempt(fp.arrivals);
    report.outcome.Fail(fp.unserved());
    report.outcome.Check(fp == *first, "db: run output differs");
  };
  const std::vector<PassTime> times =
      MeasurePasses(o.seconds, pass, [&](CalibratedTimer&) { pass(); });
  CheckDb(report.outcome, in, *first);

  AddPassMetrics(report, times);
  report.metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.metrics.Add("mean_qoe", first->mean_qoe, "qoe");

  report.detail.Add("trace.generate_s", stages.generate_s, "s");
  report.detail.Add("recomputes", static_cast<double>(first->recomputes),
                    "count");
  AddDbChecks(report.checks, *first);
}

std::uint64_t CounterValue(const ExperimentResult& r, const std::string& name) {
  for (const obs::CounterSample& c : r.telemetry.counters) {
    if (c.name == name) return c.value;
  }
  throw std::runtime_error("db: telemetry has no counter " + name);
}

void RunDbTraced(const RunOptions& o, RunReport& report) {
  LayerFigures f;
  const DbInputs in = SetupDb(o.seed, f);
  const PageModels pages;
  const QoeModel& qoe = *pages.type12;

  // The offline profiler that builds the testbed's G(.).
  double start = WallSeconds();
  const std::shared_ptr<const ServerDelayModel> g =
      BuildDbServerModel(in.config);
  f.g_build_s = Since(start);

  RunDbExperiment(in.slice, qoe, in.config);  // Warm-up.
  std::optional<DbFingerprint> fp;
  std::vector<PassTime> times;
  const double deadline = WallSeconds() + o.seconds / 2.0;
  while (times.size() < kMinPasses || WallSeconds() < deadline) {
    times.push_back(TimePass([&] {
      const DbFingerprint now(RunDbExperiment(in.slice, qoe, in.config));
      if (!fp) fp = now;
      report.outcome.Attempt(now.arrivals);
      report.outcome.Fail(now.unserved());
      report.outcome.Check(now == *fp, "db: run output differs");
    }));
  }
  CheckDb(report.outcome, in, *fp);

  // Traced experiment: telemetry on, controller cost on the real clock.
  DbExperimentConfig traced_config = in.config;
  traced_config.common.collect_telemetry = true;
  traced_config.common.profile_real_clock = true;
  start = WallSeconds();
  const ExperimentResult traced = RunDbExperiment(in.slice, qoe, traced_config);
  const double traced_s = Since(start);
  report.outcome.Attempt(traced.arrivals);
  report.outcome.Check(DbFingerprint(traced) == *fp,
                       "traced db run: output differs");

  // The testbed's controller re-driven from outside on the same schedule,
  // for the policy's per-layer split.
  LiveInputs live;
  live.schedule = BuildReplaySchedule(in.slice, in.config.common.speedup);
  live.g = g;
  live.qoe = pages.type12;
  live.config = in.config.common.controller;
  live.tick_interval_ms = in.config.common.tick_interval_ms;
  live.controller_seed = in.config.common.seed ^ kPrimarySalt;
  std::vector<LivePass> passes;
  const double redrive_deadline = WallSeconds() + o.seconds / 2.0;
  std::size_t samples = 0;
  while (passes.size() < kMinPasses || samples < 100 ||
         WallSeconds() < redrive_deadline) {
    passes.push_back(
        DriveController(live, live.qoe, live.g, live.schedule.size()));
    samples += passes.back().recompute_us.size();
    report.outcome.Attempt(passes.back().arrivals);
    report.outcome.Check(passes.back().SameOutput(passes.front()),
                         "db re-drive: pass output differs");
  }
  const LivePass& plain = passes.front();
  report.outcome.Check(
      plain.policy.solves == traced.controller_stats.recomputes &&
          plain.last_stats.transport_solves ==
              traced.controller_stats.last_policy_stats.transport_solves &&
          plain.last_stats.allocations_evaluated ==
              traced.controller_stats.last_policy_stats.allocations_evaluated,
      "db re-drive: recomputes differ from the testbed's controller");
  auto traced_g = std::make_shared<const TracedServerModel>(*g, f.g);
  auto traced_qoe = std::make_shared<const TracedQoeModel>(live.qoe, f.qoe);
  const LivePass traced_pass =
      DriveController(live, traced_qoe, traced_g, live.schedule.size());
  report.outcome.Check(traced_pass.SameOutput(plain),
                       "traced db re-drive: output differs");

  PolicyFigures(passes, f);
  const double run_s = MedianWall(times);
  const double recompute_s =
      traced.controller_stats.total_recompute_wall_us * 1e-6;
  f.testbed_self_s = run_s - f.g_build_s - recompute_s;
  f.tracing_overhead_s = traced_s - run_s;
  f.sim_events = CounterValue(traced, "sim.loop.events");
  f.db_requests = CounterValue(traced, "db.requests");
  f.db_failovers = CounterValue(traced, "db.failovers");
  EmitLayers(f, report.metrics);

  Ledger& d = report.detail;
  d.Add("passes", static_cast<double>(times.size()), "count");
  d.Add("run_s.wall", run_s, "s");
  d.Add("core.profiler_s", f.g_build_s, "s");
  d.Add("core.controller.recompute_s", recompute_s, "s");
  d.Add("sim.self_s", f.testbed_self_s, "s");
  d.Add("sim.events_per_s",
        static_cast<double>(f.sim_events) / f.testbed_self_s, "1/s");
  d.Add("redrive.passes", static_cast<double>(passes.size()), "count");
  AddLiveDetail(d, passes);
  AddDbChecks(report.checks, *fp);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "replay_day", "controller_live", "db_peak"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  const std::string& w = options.workload;
  if (w == "replay_day") {
    if (options.trace) {
      RunReplayTraced(options, report);
    } else {
      RunReplayUntraced(options, report);
    }
  } else if (w == "controller_live") {
    if (options.trace) {
      RunLiveTraced(options, report);
    } else {
      RunLiveUntraced(options, report);
    }
  } else if (w == "db_peak") {
    if (options.trace) {
      RunDbTraced(options, report);
    } else {
      RunDbUntraced(options, report);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  return report;
}

}  // namespace e2e::perfbench
