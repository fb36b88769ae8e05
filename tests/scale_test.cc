// Scale tier (ctest label `scale`, docs/SCALE.md): proves the shard/merge
// determinism contract behind the full-volume replay.
//
//  * Streaming bucketizer: Adds in any order rebuild buckets bit-identical
//    to the batch constructor over the same samples (property-checked), and
//    the PR-5 batch-path fixes — duplicate per-request delays collapsing
//    into one summed-weight bucket, contiguous tiling of the refined range —
//    hold on the streaming path too.
//  * StreamByWindow: the O(window)-memory router visits exactly the groups
//    GroupByWindow builds, closing window indices in ascending order.
//  * ReplayTraceSharded: shard counts {1, 2, 4, 7} produce byte-for-byte
//    identical ExperimentResult::Serialize() and telemetry exports, every
//    outcome matches an oracle built from public headers only (stock and
//    with abandonment), and the exports, stock and with abandonment, hash
//    to pinned values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/policy.h"
#include "core/server_delay_model.h"
#include "fnv1a.h"
#include "proptest.h"
#include "qoe/abandonment.h"
#include "qoe/sigmoid_model.h"
#include "stats/bucketizer.h"
#include "stats/distribution.h"
#include "testbed/sharded_replay.h"
#include "trace/generator.h"
#include "trace/windows.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace e2e {
namespace {

// ---- Shared fixtures -------------------------------------------------------

// A deterministic synthetic load profile: 8 levels up to 10 rps, delays
// growing with load, the last level unstable. Small enough that per-group
// policy solves stay cheap across hundreds of groups.
LoadProfile SyntheticProfile() {
  LoadProfile profile;
  profile.max_rps = 10.0;
  for (int level = 1; level <= 8; ++level) {
    const double rps = 10.0 * static_cast<double>(level) / 8.0;
    profile.level_rps.push_back(rps);
    const double base = 40.0 + 15.0 * static_cast<double>(level);
    profile.delays.emplace_back(
        std::vector<double>{0.6 * base, base, 1.9 * base},
        std::vector<double>{0.25, 0.5, 0.25});
  }
  profile.max_stable_rps = 8.75;
  return profile;
}

const ProfiledReplicaModel& TestServerModel() {
  static const ProfiledReplicaModel model(3, SyntheticProfile());
  return model;
}

const QoeModel& TestQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

QoeModelSelector TestSelector() {
  return [](PageType) -> const QoeModel& { return TestQoe(); };
}

// A small synthetic day: ~0.2% of the paper's volume keeps four full
// replays (shards 1/2/4/7) fast while still covering hundreds of
// (page, window) groups.
const Trace& TestTrace() {
  static const Trace trace = [] {
    TraceGenParams params;
    params.seed = 7;
    params.scale = 0.002;
    return TraceGenerator(params).Generate();
  }();
  return trace;
}

ShardedReplayConfig BaseReplayConfig(int shards) {
  ShardedReplayConfig config;
  config.common.seed = 42;
  config.common.collect_telemetry = true;
  config.common.controller.external.window_ms = 600000.0;  // 10 min groups.
  config.common.controller.policy.target_buckets = 8;
  config.common.controller.policy.max_bucket_span_ms = 2000.0;
  config.common.controller.shards = shards;
  return config;
}

// Random sample multiset with deliberate duplicates (the per-request
// collapse case) and occasional wide outliers (the max-span split case).
std::vector<double> RandomSamples(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.UniformInt(1, 60));
  std::vector<double> samples;
  samples.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(rng.Uniform(0.0, rng.Uniform(0.0, 1.0) < 0.15
                                           ? 30000.0
                                           : 6000.0));
    if (!samples.empty() && rng.Uniform(0.0, 1.0) < 0.3) {
      samples.push_back(samples[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(samples.size()) - 1))]);
    }
  }
  return samples;
}

// Adds `samples` to a streaming bucketizer in a random order.
Bucketizer AddShuffled(std::span<const double> samples, Rng& rng,
                       int target_buckets, double max_span) {
  std::vector<double> order(samples.begin(), samples.end());
  for (std::size_t i = order.size(); i > 1; --i) {  // Fisher-Yates.
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  Bucketizer streamed(target_buckets, max_span);
  for (const double s : order) streamed.Add(s);
  return streamed;
}

void ExpectSameBuckets(const Bucketizer& actual, const Bucketizer& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Bucket& a = actual.buckets()[i];
    const Bucket& e = expected.buckets()[i];
    EXPECT_EQ(a.lo, e.lo) << "bucket " << i;
    EXPECT_EQ(a.hi, e.hi) << "bucket " << i;
    EXPECT_EQ(a.representative, e.representative) << "bucket " << i;
    EXPECT_EQ(a.population, e.population) << "bucket " << i;
    EXPECT_EQ(a.weight, e.weight) << "bucket " << i;
  }
}

// ---- Streaming bucketizer --------------------------------------------------

TEST(ScaleBucketizer, ShuffledAddsEqualBatch) {
  // The db cluster's cloning model adds each read's service delay to its
  // window as the read completes; the buckets must not depend on that
  // order.
  proptest::Check("shuffled-adds-equal-batch", [](Rng& rng) {
    const std::vector<double> samples = RandomSamples(rng);
    const int target = static_cast<int>(rng.UniformInt(1, 12));
    const double max_span = rng.Uniform(100.0, 5000.0);
    const Bucketizer streamed = AddShuffled(samples, rng, target, max_span);
    const Bucketizer batch(samples, target, max_span);
    EXPECT_EQ(streamed.sample_count(), samples.size());
    ExpectSameBuckets(streamed, batch);
  });
}

TEST(ScaleBucketizer, EmptyStreamingReadsThrow) {
  const Bucketizer empty(4, 1000.0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.sample_count(), 0u);
  EXPECT_THROW(empty.buckets(), std::logic_error);
  EXPECT_THROW(empty.size(), std::logic_error);
  EXPECT_THROW(empty.BucketIndex(10.0), std::logic_error);
}

TEST(ScaleBucketizer, ConstructorValidationUnchanged) {
  EXPECT_THROW(Bucketizer(std::vector<double>{}, 4, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(Bucketizer(std::vector<double>{1.0}, 0, 1000.0),
               std::invalid_argument);
  EXPECT_THROW(Bucketizer(std::vector<double>{1.0}, 4, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Bucketizer(0, 1000.0), std::invalid_argument);
  EXPECT_THROW(Bucketizer(4, -1.0), std::invalid_argument);
}

// ---- PR-5 regressions on the streaming path ---------------------------------

// Duplicate per-request delays must still collapse into one summed-weight
// row when the delays reached the policy through a streaming bucketizer
// instead of one flat span (batch-path coverage lives in core_test; this
// locks the streaming path).
TEST(ScaleRegression, PerRequestDuplicatesCollapseAcrossMerges) {
  const std::vector<double> delays = {800.0, 1200.0, 1200.0, 1200.0,
                                      3000.0, 3000.0, 5200.0};
  // Add the duplicates apart from each other, so the collapse must come
  // from the sorted view, not from the order they arrived in.
  Bucketizer bucketizer(16, 1200.0);
  for (const double d : {1200.0, 3000.0, 800.0, 1200.0, 5200.0, 3000.0,
                         1200.0}) {
    bucketizer.Add(d);
  }

  PolicyConfig config;
  config.per_request = true;
  const PolicyResult streamed = ComputePolicy(TestQoe(), TestServerModel(),
                                              bucketizer, 40.0, config);
  const PolicyResult flat = ComputePolicy(TestQoe(), TestServerModel(),
                                          std::span<const double>(delays),
                                          40.0, config);
  ASSERT_EQ(streamed.table.rows.size(), 4u);  // Distinct delays, not 7 rows.
  ASSERT_EQ(streamed.table.rows.size(), flat.table.rows.size());
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < flat.table.rows.size(); ++i) {
    EXPECT_EQ(streamed.table.rows[i].lo, flat.table.rows[i].lo);
    EXPECT_EQ(streamed.table.rows[i].hi, flat.table.rows[i].hi);
    EXPECT_EQ(streamed.table.rows[i].weight, flat.table.rows[i].weight);
    EXPECT_EQ(streamed.table.rows[i].decision, flat.table.rows[i].decision);
    weight_sum += streamed.table.rows[i].weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
  // The triplicated delay carries 3/7 of the weight in one row.
  EXPECT_EQ(streamed.table.rows[1].lo, 1200.0);
  EXPECT_NEAR(streamed.table.rows[1].weight, 3.0 / 7.0, 1e-12);
}

// The refined bucket range must tile contiguously (hi == next.lo, the PR-5
// stitching fix) whatever order the samples were added in.
TEST(ScaleRegression, RefinedRangeTilesContiguouslyAcrossMerges) {
  proptest::Check("tiling-across-merges", [](Rng& rng) {
    const std::vector<double> samples = RandomSamples(rng);
    const int target = static_cast<int>(rng.UniformInt(1, 12));
    const double max_span = rng.Uniform(100.0, 2000.0);
    const Bucketizer streamed = AddShuffled(samples, rng, target, max_span);
    const auto buckets = streamed.buckets();
    ASSERT_FALSE(buckets.empty());
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      EXPECT_GT(buckets[i].population, 0u);
      weight_sum += buckets[i].weight;
      if (i + 1 < buckets.size()) {
        EXPECT_EQ(buckets[i].hi, buckets[i + 1].lo) << "gap after bucket "
                                                    << i;
      }
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-9);
    const double min_sample = *std::min_element(samples.begin(),
                                                samples.end());
    const double max_sample = *std::max_element(samples.begin(),
                                                samples.end());
    EXPECT_EQ(buckets.front().lo, min_sample);
    EXPECT_EQ(buckets.back().hi, max_sample);
  });
}

TEST(ScalePolicy, BucketizerOverloadMatchesSpanOverload) {
  proptest::Check(
      "bucketizer-overload-equivalence",
      [](Rng& rng) {
        std::vector<double> samples = RandomSamples(rng);
        // The policy needs a few samples to be interesting.
        while (samples.size() < 4) samples.push_back(rng.Uniform(0.0, 6000.0));
        PolicyConfig config;
        config.target_buckets = static_cast<int>(rng.UniformInt(2, 10));
        config.max_bucket_span_ms = rng.Uniform(500.0, 4000.0);
        config.per_request = rng.Uniform(0.0, 1.0) < 0.25;
        const double rps = rng.Uniform(1.0, 12.0);

        Bucketizer streamed(config.target_buckets, config.max_bucket_span_ms);
        for (const double s : samples) streamed.Add(s);
        const PolicyResult via_bucketizer = ComputePolicy(
            TestQoe(), TestServerModel(), streamed, rps, config);
        const PolicyResult via_span = ComputePolicy(
            TestQoe(), TestServerModel(), std::span<const double>(samples),
            rps, config);
        EXPECT_EQ(via_bucketizer.table.objective_value,
                  via_span.table.objective_value);
        ASSERT_EQ(via_bucketizer.table.rows.size(),
                  via_span.table.rows.size());
        for (std::size_t i = 0; i < via_span.table.rows.size(); ++i) {
          EXPECT_EQ(via_bucketizer.table.rows[i].lo, via_span.table.rows[i].lo);
          EXPECT_EQ(via_bucketizer.table.rows[i].hi, via_span.table.rows[i].hi);
          EXPECT_EQ(via_bucketizer.table.rows[i].decision,
                    via_span.table.rows[i].decision);
          EXPECT_EQ(via_bucketizer.table.rows[i].expected_qoe,
                    via_span.table.rows[i].expected_qoe);
          EXPECT_EQ(via_bucketizer.table.rows[i].weight,
                    via_span.table.rows[i].weight);
        }
        ASSERT_EQ(via_bucketizer.table.load_fractions.size(),
                  via_span.table.load_fractions.size());
        for (std::size_t d = 0; d < via_span.table.load_fractions.size();
             ++d) {
          EXPECT_EQ(via_bucketizer.table.load_fractions[d],
                    via_span.table.load_fractions[d]);
        }
        EXPECT_EQ(via_bucketizer.stats.buckets, via_span.stats.buckets);
        EXPECT_EQ(via_bucketizer.stats.hill_climb_steps,
                  via_span.stats.hill_climb_steps);
        EXPECT_EQ(via_bucketizer.stats.allocations_evaluated,
                  via_span.stats.allocations_evaluated);
      },
      proptest::Config{.iterations = 15});
}

TEST(ScalePolicy, LookupRowMatchesLookup) {
  const std::vector<double> delays = {500.0, 1500.0, 2500.0, 3500.0, 4500.0};
  const PolicyResult pr =
      ComputePolicy(TestQoe(), TestServerModel(),
                    std::span<const double>(delays), 10.0, PolicyConfig{});
  for (const double probe : {-100.0, 0.0, 500.0, 1999.0, 4500.0, 99999.0}) {
    const DecisionTableRow& row = pr.table.LookupRow(probe);
    EXPECT_EQ(row.decision, pr.table.Lookup(probe));
  }
  const DecisionTable empty;
  EXPECT_THROW(empty.LookupRow(1.0), std::logic_error);
}

// ---- StreamByWindow --------------------------------------------------------

TEST(ScaleStream, StreamByWindowMatchesGroupByWindow) {
  const auto& records = TestTrace().records;
  const std::span<const TraceRecord> slice(records.data(),
                                           std::min<std::size_t>(
                                               records.size(), 1500));
  const double window_ms = 600000.0;
  const auto batch = GroupByWindow(slice, window_ms);

  std::map<WindowKey, std::vector<std::uint64_t>> streamed;
  std::vector<std::int64_t> closes;
  StreamByWindow(
      slice, window_ms,
      [&](const WindowKey& key, const TraceRecord& r) {
        streamed[key].push_back(r.request_id);
      },
      [&](std::int64_t index) { closes.push_back(index); });

  ASSERT_EQ(streamed.size(), batch.size());
  for (const auto& [key, group] : batch) {
    const auto it = streamed.find(key);
    ASSERT_NE(it, streamed.end());
    ASSERT_EQ(it->second.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      EXPECT_EQ(it->second[i], group[i].request_id);  // Input order kept.
    }
  }
  // Closes: one per index, strictly ascending and contiguous from the
  // first record's window to the last record's window.
  ASSERT_FALSE(closes.empty());
  const auto first_index = static_cast<std::int64_t>(
      std::floor(slice.front().arrival_ms / window_ms));
  const auto last_index = static_cast<std::int64_t>(
      std::floor(slice.back().arrival_ms / window_ms));
  ASSERT_EQ(closes.size(),
            static_cast<std::size_t>(last_index - first_index + 1));
  for (std::size_t i = 0; i < closes.size(); ++i) {
    EXPECT_EQ(closes[i], first_index + static_cast<std::int64_t>(i));
  }
}

TEST(ScaleStream, StreamByWindowValidatesInput) {
  std::vector<TraceRecord> unsorted(2);
  unsorted[0].arrival_ms = 100.0;
  unsorted[1].arrival_ms = 50.0;
  const auto sink_record = [](const WindowKey&, const TraceRecord&) {};
  const auto sink_close = [](std::int64_t) {};
  EXPECT_THROW(StreamByWindow(unsorted, 10.0, sink_record, sink_close),
               std::invalid_argument);
  EXPECT_THROW(StreamByWindow(unsorted, 0.0, sink_record, sink_close),
               std::invalid_argument);
  // A sorted one-record trace, so only the NaN window can throw.
  EXPECT_THROW(StreamByWindow(std::span<const TraceRecord>(unsorted).first(1),
                              std::numeric_limits<double>::quiet_NaN(),
                              sink_record, sink_close),
               std::invalid_argument);
  // An empty trace streams nothing and closes nothing.
  bool called = false;
  StreamByWindow(std::span<const TraceRecord>{}, 10.0,
                 [&](const WindowKey&, const TraceRecord&) { called = true; },
                 [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---- Sharded replay byte-identity ------------------------------------------

TEST(ScaleReplay, ShardCountsProduceByteIdenticalResults) {
  const auto& records = TestTrace().records;
  const ShardedReplayResult baseline = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), BaseReplayConfig(1));
  ASSERT_GT(baseline.stats.records, 0u);
  ASSERT_GT(baseline.stats.groups_merged, 0u);
  EXPECT_EQ(baseline.stats.shards, 1);
  EXPECT_EQ(baseline.result.arrivals, records.size());
  const std::string result_bytes = baseline.result.Serialize();
  const std::string telemetry_text =
      baseline.result.telemetry.SerializeText();
  const std::string telemetry_json =
      baseline.result.telemetry.SerializeJson();
  EXPECT_FALSE(baseline.result.telemetry.empty());

  for (const int shards : {2, 4, 7}) {
    const ShardedReplayResult sharded =
        ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                           BaseReplayConfig(shards));
    EXPECT_EQ(sharded.stats.shards, shards);
    EXPECT_EQ(sharded.stats.records, baseline.stats.records);
    EXPECT_EQ(sharded.stats.groups_merged, baseline.stats.groups_merged);
    EXPECT_EQ(sharded.stats.windows_streamed,
              baseline.stats.windows_streamed);
    EXPECT_EQ(sharded.result.Serialize(), result_bytes)
        << "shards=" << shards;
    EXPECT_EQ(sharded.result.telemetry.SerializeText(), telemetry_text)
        << "shards=" << shards;
    EXPECT_EQ(sharded.result.telemetry.SerializeJson(), telemetry_json)
        << "shards=" << shards;
  }
}

TEST(ScaleReplay, PerRequestModeIsShardCountInvariant) {
  const auto& records = TestTrace().records;
  const std::span<const TraceRecord> slice(records.data(),
                                           std::min<std::size_t>(
                                               records.size(), 1200));
  ShardedReplayConfig config = BaseReplayConfig(1);
  config.common.controller.policy.per_request = true;
  const std::string baseline =
      ReplayTraceSharded(slice, TestSelector(), TestServerModel(), config)
          .result.Serialize();
  config.common.controller.shards = 4;
  EXPECT_EQ(ReplayTraceSharded(slice, TestSelector(), TestServerModel(),
                               config)
                .result.Serialize(),
            baseline);
}

TEST(ScaleReplay, ShardsZeroPicksDefaultWorkersAndMatchesSerial) {
  const auto& records = TestTrace().records;
  const std::span<const TraceRecord> slice(records.data(),
                                           std::min<std::size_t>(
                                               records.size(), 1200));
  const ShardedReplayResult serial = ReplayTraceSharded(
      slice, TestSelector(), TestServerModel(), BaseReplayConfig(1));
  const ShardedReplayResult auto_sharded = ReplayTraceSharded(
      slice, TestSelector(), TestServerModel(), BaseReplayConfig(0));
  EXPECT_EQ(auto_sharded.stats.shards, ThreadPool::DefaultWorkers());
  EXPECT_EQ(auto_sharded.result.Serialize(), serial.result.Serialize());
}

TEST(ScaleReplay, AggregateOnlyModeMatchesOutcomeAggregates) {
  const auto& records = TestTrace().records;
  ShardedReplayConfig config = BaseReplayConfig(4);
  const ShardedReplayResult with_outcomes = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), config);
  config.keep_outcomes = false;
  const ShardedReplayResult aggregate_only = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), config);
  EXPECT_TRUE(aggregate_only.result.outcomes.empty());
  EXPECT_FALSE(with_outcomes.result.outcomes.empty());
  EXPECT_EQ(aggregate_only.result.arrivals, with_outcomes.result.arrivals);
  EXPECT_EQ(aggregate_only.result.completed, with_outcomes.result.completed);
  // Sums associate differently (per-group vs flat), so compare to a
  // tolerance instead of byte-exactly.
  EXPECT_NEAR(aggregate_only.result.mean_qoe, with_outcomes.result.mean_qoe,
              1e-9 * std::abs(with_outcomes.result.mean_qoe));
  EXPECT_NEAR(aggregate_only.result.mean_server_delay_ms,
              with_outcomes.result.mean_server_delay_ms,
              1e-9 * with_outcomes.result.mean_server_delay_ms);
  EXPECT_EQ(aggregate_only.result.throughput_rps,
            with_outcomes.result.throughput_rps);
}

TEST(ScaleReplay, InvalidConfigsThrow) {
  const auto& records = TestTrace().records;
  ShardedReplayConfig negative = BaseReplayConfig(-1);
  EXPECT_THROW(ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                                  negative),
               std::invalid_argument);
  // A planning factor that is not finite and positive is rejected by name.
  for (const double factor : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 0.0,
                              -2.0}) {
    ShardedReplayConfig bad_factor = BaseReplayConfig(1);
    bad_factor.common.controller.rps_planning_factor = factor;
    try {
      ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                         bad_factor);
      ADD_FAILURE() << "expected std::invalid_argument for " << factor;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rps_planning_factor"),
                std::string::npos)
          << e.what();
    }
  }
  // The replay charges planned delays and has no resilience layer, so each
  // mechanism is rejected by name instead of being ignored.
  for (const std::string mechanism :
       {"retry", "hedge", "breaker", "admission"}) {
    ShardedReplayConfig resilient = BaseReplayConfig(1);
    resilience::ResilienceConfig& r = resilient.common.resilience;
    r.retry.enabled = mechanism == "retry";
    r.hedge.enabled = mechanism == "hedge";
    r.breaker.enabled = mechanism == "breaker";
    r.admission.enabled = mechanism == "admission";
    try {
      ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                         resilient);
      ADD_FAILURE() << "expected std::invalid_argument for " << mechanism;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("resilience." + mechanism),
                std::string::npos)
          << e.what();
      // Only the broker testbed runs admission control.
      if (mechanism == "admission") {
        EXPECT_NE(std::string(e.what()).find("RunBrokerExperiment"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The live Controller validates the shard knob too.
  ControllerConfig ctrl;
  ctrl.shards = -1;
  EXPECT_THROW(
      Controller("ctrl", ctrl,
                 std::make_shared<const SigmoidQoeModel>(
                     SigmoidQoeModel::TraceTimeOnSite()),
                 std::make_shared<const ProfiledReplicaModel>(
                     3, SyntheticProfile()),
                 1),
      std::invalid_argument);
}

// ---- Independent oracle and shard-count parity ----------------------------
//
// The oracle rebuilds the replay from public headers only: StreamByWindow
// groups the day, each closed (window, page) group feeds a Bucketizer and
// ComputePolicy, and each record takes the LookupRow decision and is charged
// Q(external + that decision's planned mean delay). It shares no code with
// ReplayTraceSharded's routing, queueing or merge, so it checks them
// independently.
//
// With abandonment on (AbandonmentModel, QoeModel::Classify), a record whose
// session quit in an earlier window is kAbandoned and kept out of its
// group's buckets and rate; a record whose total delay exceeds its session's
// patience is charged but abandoned, and so is every later record of that
// session in the same group; the quit reaches other groups from the next
// window on.

struct OracleReplay {
  std::vector<RequestOutcome> outcomes;  // In (window, page, record) order.
  std::uint64_t groups = 0;
  std::uint64_t kept_out = 0;  // Records of sessions gone before the window.
  std::uint64_t quits = 0;     // Records whose own delay made a session quit.
  std::uint64_t cascaded = 0;  // Later records of a session in its quit group.
};

OracleReplay ReplayOracle(std::span<const TraceRecord> records,
                          const QoeModelSelector& qoe_of_page,
                          const ServerDelayModel& g,
                          const ControllerConfig& ctrl,
                          const AbandonmentConfig& abandonment = {}) {
  const AbandonmentModel patience(abandonment);
  const double window_ms = ctrl.external.window_ms;
  OracleReplay out;
  std::map<PageType, std::vector<const TraceRecord*>> open;
  std::set<std::uint64_t> gone;  // Sessions that quit in an earlier window.
  StreamByWindow(
      records, window_ms,
      [&](const WindowKey& key, const TraceRecord& r) {
        open[key.page_type].push_back(&r);
      },
      [&](std::int64_t) {
        std::set<std::uint64_t> quit_in_window;
        for (const auto& [page, group] : open) {
          const QoeModel& qoe = qoe_of_page(page);
          Bucketizer externals(ctrl.policy.target_buckets,
                               ctrl.policy.max_bucket_span_ms);
          for (const TraceRecord* r : group) {
            if (gone.count(r->session_id) == 0) {
              externals.Add(r->external_delay_ms);
            }
          }
          const double rps = static_cast<double>(externals.sample_count()) /
                             (window_ms / 1000.0) * ctrl.rps_planning_factor;
          PolicyResult pr;
          if (!externals.empty()) {
            pr = ComputePolicy(qoe, g, externals, rps, ctrl.policy);
          }
          std::set<std::uint64_t> quit_in_group;
          for (const TraceRecord* r : group) {
            RequestOutcome o;
            o.id = r->request_id;
            const bool kept_out = gone.count(r->session_id) > 0;
            if (kept_out || quit_in_group.count(r->session_id) > 0) {
              ++(kept_out ? out.kept_out : out.cascaded);
              o.status = RequestStatus::kAbandoned;
              out.outcomes.push_back(o);
              continue;
            }
            o.decision = pr.table.LookupRow(r->external_delay_ms).decision;
            o.server_delay_ms =
                g.DelayDistribution(o.decision, pr.table.load_fractions, rps)
                    .Mean();
            const double total = r->external_delay_ms + o.server_delay_ms;
            if (patience.Abandons(r->session_id,
                                  qoe.Classify(r->external_delay_ms), total)) {
              ++out.quits;
              o.status = RequestStatus::kAbandoned;
              quit_in_group.insert(r->session_id);
              quit_in_window.insert(r->session_id);
            } else {
              o.qoe = qoe.Qoe(total);
            }
            out.outcomes.push_back(o);
          }
          ++out.groups;
        }
        gone.insert(quit_in_window.begin(), quit_in_window.end());
        open.clear();
      });
  return out;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ScaleReplay, OracleMatchesShardedStock) {
  const auto& records = TestTrace().records;
  const OracleReplay oracle =
      ReplayOracle(records, TestSelector(), TestServerModel(),
                   BaseReplayConfig(1).common.controller);
  ASSERT_GT(oracle.groups, 0u);
  for (const int shards : {1, 4}) {
    const ShardedReplayResult replay =
        ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                           BaseReplayConfig(shards));
    EXPECT_EQ(replay.stats.groups_merged, oracle.groups) << "shards=" << shards;
    ASSERT_EQ(replay.result.outcomes.size(), oracle.outcomes.size())
        << "shards=" << shards;
    for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
      const RequestOutcome& want = oracle.outcomes[i];
      const RequestOutcome& got = replay.result.outcomes[i];
      ASSERT_TRUE(got.id == want.id && got.decision == want.decision &&
                  Bits(got.server_delay_ms) == Bits(want.server_delay_ms) &&
                  Bits(got.qoe) == Bits(want.qoe) && got.status == want.status)
          << "shards=" << shards << ": outcome " << i << " (request "
          << want.id << ") differs from the oracle";
    }
  }
}

void ExpectReplayParity(const ShardedReplayResult& serial,
                        const ShardedReplayResult& sharded,
                        const std::string& context) {
  EXPECT_EQ(serial.result.Serialize(), sharded.result.Serialize()) << context;
  EXPECT_EQ(serial.result.telemetry.SerializeText(),
            sharded.result.telemetry.SerializeText())
      << context;
  EXPECT_EQ(serial.result.telemetry.SerializeJson(),
            sharded.result.telemetry.SerializeJson())
      << context;
  EXPECT_EQ(serial.stats.records, sharded.stats.records) << context;
  EXPECT_EQ(serial.stats.windows_streamed, sharded.stats.windows_streamed)
      << context;
  EXPECT_EQ(serial.stats.groups_merged, sharded.stats.groups_merged)
      << context;
  EXPECT_EQ(serial.stats.groups_solved, sharded.stats.groups_solved)
      << context;
  EXPECT_EQ(serial.qoe_summary.count(), sharded.qoe_summary.count())
      << context;
  EXPECT_EQ(serial.qoe_summary.mean(), sharded.qoe_summary.mean()) << context;
  EXPECT_EQ(serial.qoe_summary.variance(), sharded.qoe_summary.variance())
      << context;
  ASSERT_EQ(serial.qoe_histogram.size(), sharded.qoe_histogram.size());
  for (std::size_t i = 0; i < serial.qoe_histogram.size(); ++i) {
    EXPECT_EQ(serial.qoe_histogram[i], sharded.qoe_histogram[i])
        << context << " bin " << i;
  }
}

ShardedReplayConfig AbandonmentReplayConfig(int shards) {
  ShardedReplayConfig config = BaseReplayConfig(shards);
  config.common.abandonment.enabled = true;
  // Patience low enough that the synthetic day actually loses sessions —
  // a parity test over zero quits would prove nothing.
  config.common.abandonment.patience_fast_ms = 2500.0;
  config.common.abandonment.patience_sensitive_ms = 1200.0;
  config.common.abandonment.patience_slow_ms = 5000.0;
  config.common.abandonment.seed = 11;
  return config;
}

// Pins every byte the replay exports (results and both telemetry exports),
// stock and with abandonment on, so a change to the routing, solve or merge
// path must keep them as they are.
TEST(ScaleReplay, OutputBytesArePinned) {
  const auto& records = TestTrace().records;
  const ShardedReplayResult stock = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), BaseReplayConfig(1));
  EXPECT_EQ(Fnv1a64(stock.result.Serialize()), 0x173d8d17b4da9598ULL);
  EXPECT_EQ(Fnv1a64(stock.result.telemetry.SerializeText()),
            0x4b1a7e6cee92eb84ULL);
  EXPECT_EQ(Fnv1a64(stock.result.telemetry.SerializeJson()),
            0x6ce203f6da22398fULL);

  const ShardedReplayResult abandoning = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), AbandonmentReplayConfig(1));
  ASSERT_GT(abandoning.result.abandoned, 0u);
  EXPECT_EQ(Fnv1a64(abandoning.result.Serialize()), 0x288c4d7b83eec49eULL);
  EXPECT_EQ(Fnv1a64(abandoning.result.telemetry.SerializeText()),
            0x3245caac795c4e1dULL);
  EXPECT_EQ(Fnv1a64(abandoning.result.telemetry.SerializeJson()),
            0xd968adc28fcfb016ULL);
}

// Quits land at window close and affect the *next* window's load, so the
// abandonment session set is where a shard count could leak into the bytes.
TEST(ScaleReplay, ReplayMatchesShardedWithAbandonment) {
  const auto& records = TestTrace().records;
  const ShardedReplayResult serial = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), AbandonmentReplayConfig(1));
  ASSERT_GT(serial.result.abandoned, 0u);
  ASSERT_GT(serial.result.completed, 0u);
  EXPECT_EQ(serial.result.abandoned + serial.result.completed,
            serial.result.arrivals);  // Conservation with quits.
  for (const int shards : {2, 4, 7}) {
    const ShardedReplayResult sharded = ReplayTraceSharded(
        records, TestSelector(), TestServerModel(),
        AbandonmentReplayConfig(shards));
    EXPECT_EQ(sharded.result.abandoned, serial.result.abandoned);
    ExpectReplayParity(serial, sharded,
                       "abandonment shards=" + std::to_string(shards));
  }
}

// ---- Loaded day: flat, solved and overloaded groups ------------------------
//
// Every group of TestTrace() (1 to 24 records per 10-min window, at most
// 0.04 rps) plans far below SyntheticProfile()'s first level of 1.25 rps,
// so under TestServerModel() no group reaches ComputePolicy. The loaded
// model scales the profile's loads down 320-fold and moves its stable cap
// to the second level, so the same day meets every regime: groups of one or
// two records plan at or below the first level and are charged straight
// from G, larger groups climb to plans that spread load, and the largest
// overload a replica under every split.

LoadProfile LoadedProfile() {
  LoadProfile profile = SyntheticProfile();
  profile.max_rps /= 320.0;
  for (double& rps : profile.level_rps) rps /= 320.0;
  profile.max_stable_rps = profile.level_rps[1];
  return profile;
}

const ProfiledReplicaModel& LoadedServerModel() {
  static const ProfiledReplicaModel model(3, LoadedProfile());
  return model;
}

// Forwards what the policy asks G but not FlatUpTo, as a decorator written
// before that query does, so a replay over it solves every group.
class PassThroughModel : public ServerDelayModel {
 public:
  explicit PassThroughModel(const ServerDelayModel& base) : base_(base) {}

  int NumDecisions() const override { return base_.NumDecisions(); }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override {
    return base_.DelayDistribution(decision, load_fractions, total_rps);
  }
  std::string Name() const override { return base_.Name(); }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override {
    return base_.IsOverloaded(decision, load_fractions, total_rps);
  }

 protected:
  const ServerDelayModel& base_;
};

TEST(ScaleReplay, LoadedOracleMatchesSharded) {
  const auto& records = TestTrace().records;
  const OracleReplay oracle =
      ReplayOracle(records, TestSelector(), LoadedServerModel(),
                   BaseReplayConfig(1).common.controller);
  for (const int shards : {1, 2, 4, 7}) {
    const ShardedReplayResult replay =
        ReplayTraceSharded(records, TestSelector(), LoadedServerModel(),
                           BaseReplayConfig(shards));
    EXPECT_EQ(replay.stats.groups_merged, oracle.groups) << "shards=" << shards;
    ASSERT_EQ(replay.result.outcomes.size(), oracle.outcomes.size())
        << "shards=" << shards;
    for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
      const RequestOutcome& want = oracle.outcomes[i];
      const RequestOutcome& got = replay.result.outcomes[i];
      ASSERT_TRUE(got.id == want.id && got.decision == want.decision &&
                  Bits(got.server_delay_ms) == Bits(want.server_delay_ms) &&
                  Bits(got.qoe) == Bits(want.qoe) && got.status == want.status)
          << "shards=" << shards << ": outcome " << i << " (request "
          << want.id << ") differs from the oracle";
    }
  }
}

// The abandonment path against the oracle, on the stock day (every group
// flat) and on the loaded day (flat, solved and overloaded groups): records
// kept out of the load, the in-group quit cascade, and quits that apply from
// the next window on.
TEST(ScaleReplay, OracleMatchesShardedWithAbandonment) {
  const auto& records = TestTrace().records;
  const ShardedReplayConfig config = AbandonmentReplayConfig(1);
  for (const bool loaded : {false, true}) {
    const ServerDelayModel& g =
        loaded ? static_cast<const ServerDelayModel&>(LoadedServerModel())
               : TestServerModel();
    const OracleReplay oracle =
        ReplayOracle(records, TestSelector(), g, config.common.controller,
                     config.common.abandonment);
    // Each path is taken, or the comparison below would prove little.
    EXPECT_GT(oracle.kept_out, 0u) << "loaded=" << loaded;
    EXPECT_GT(oracle.quits, 0u) << "loaded=" << loaded;
    EXPECT_GT(oracle.cascaded, 0u) << "loaded=" << loaded;
    for (const int shards : {1, 4}) {
      const std::string context = "loaded=" + std::to_string(loaded) +
                                  " shards=" + std::to_string(shards);
      const ShardedReplayResult replay = ReplayTraceSharded(
          records, TestSelector(), g, AbandonmentReplayConfig(shards));
      EXPECT_EQ(replay.stats.groups_merged, oracle.groups) << context;
      // The loaded day plans some groups, so quits meet solved tables too.
      if (loaded) {
        EXPECT_GT(replay.stats.groups_solved, 0u) << context;
      }
      ASSERT_EQ(replay.result.outcomes.size(), oracle.outcomes.size())
          << context;
      for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
        const RequestOutcome& want = oracle.outcomes[i];
        const RequestOutcome& got = replay.result.outcomes[i];
        ASSERT_TRUE(got.id == want.id && got.decision == want.decision &&
                    Bits(got.server_delay_ms) == Bits(want.server_delay_ms) &&
                    Bits(got.qoe) == Bits(want.qoe) &&
                    got.status == want.status)
            << context << ": outcome " << i << " (request " << want.id
            << ") differs from the oracle";
      }
    }
  }
}

TEST(ScaleReplay, LoadedShardCountsProduceByteIdenticalResults) {
  const auto& records = TestTrace().records;
  for (const bool abandonment : {false, true}) {
    const auto config = abandonment ? AbandonmentReplayConfig
                                    : BaseReplayConfig;
    const ShardedReplayResult serial = ReplayTraceSharded(
        records, TestSelector(), LoadedServerModel(), config(1));
    for (const int shards : {2, 4, 7}) {
      ExpectReplayParity(
          serial,
          ReplayTraceSharded(records, TestSelector(), LoadedServerModel(),
                             config(shards)),
          "loaded abandonment=" + std::to_string(abandonment) +
              " shards=" + std::to_string(shards));
    }
  }
}

// The loaded day's exports, stock and with abandonment on. Taken at the
// last commit that solved every group, so they also pin that the groups
// now charged straight from G come out as the solve charged them.
TEST(ScaleReplay, LoadedOutputBytesArePinned) {
  const auto& records = TestTrace().records;
  const ShardedReplayResult stock = ReplayTraceSharded(
      records, TestSelector(), LoadedServerModel(), BaseReplayConfig(1));
  EXPECT_EQ(Fnv1a64(stock.result.Serialize()), 0x5ff392106b92a68eULL);
  EXPECT_EQ(Fnv1a64(stock.result.telemetry.SerializeText()),
            0x4b1a7e6cee92eb84ULL);
  EXPECT_EQ(Fnv1a64(stock.result.telemetry.SerializeJson()),
            0x6ce203f6da22398fULL);

  const ShardedReplayResult abandoning =
      ReplayTraceSharded(records, TestSelector(), LoadedServerModel(),
                         AbandonmentReplayConfig(1));
  ASSERT_GT(abandoning.result.abandoned, 0u);
  EXPECT_EQ(Fnv1a64(abandoning.result.Serialize()), 0x6bc309c24fc72de5ULL);
  EXPECT_EQ(Fnv1a64(abandoning.result.telemetry.SerializeText()),
            0x447592ac83e7d6e0ULL);
  EXPECT_EQ(Fnv1a64(abandoning.result.telemetry.SerializeJson()),
            0x0f1719f9ad32c121ULL);
}

// The fast path against a replay that solves every group: same bytes in
// both outcome modes, stock and with abandonment, while the loaded day
// takes both paths, plans that use every replica, and overload backlog.
TEST(ScaleReplay, FlatGroupsMatchTheSolvedReplayByteForByte) {
  const auto& records = TestTrace().records;
  const PassThroughModel solve_every_group(LoadedServerModel());
  // The slowest delay at the stable cap: a mean above it carries backlog.
  const double slowest_stable_ms = LoadedProfile().delays[1].values().back();
  for (const bool abandonment : {false, true}) {
    for (const bool keep_outcomes : {true, false}) {
      const std::string context =
          "abandonment=" + std::to_string(abandonment) +
          " keep_outcomes=" + std::to_string(keep_outcomes);
      ShardedReplayConfig config =
          abandonment ? AbandonmentReplayConfig(1) : BaseReplayConfig(1);
      config.keep_outcomes = keep_outcomes;
      const ShardedReplayResult fast = ReplayTraceSharded(
          records, TestSelector(), LoadedServerModel(), config);
      const ShardedReplayResult solved = ReplayTraceSharded(
          records, TestSelector(), solve_every_group, config);
      EXPECT_EQ(fast.result.Serialize(), solved.result.Serialize())
          << context;
      EXPECT_EQ(fast.result.telemetry.SerializeText(),
                solved.result.telemetry.SerializeText())
          << context;
      EXPECT_EQ(fast.result.telemetry.SerializeJson(),
                solved.result.telemetry.SerializeJson())
          << context;
      EXPECT_EQ(fast.stats.groups_merged, solved.stats.groups_merged)
          << context;
      EXPECT_GT(fast.stats.groups_solved, 0u) << context;
      EXPECT_LT(fast.stats.groups_solved, solved.stats.groups_solved)
          << context;
      if (abandonment) {
        // A group whose sessions had all quit earlier has nothing to plan.
        EXPECT_GT(fast.result.abandoned, 0u) << context;
        continue;
      }
      EXPECT_EQ(solved.stats.groups_solved, solved.stats.groups_merged)
          << context;
      if (!keep_outcomes) continue;
      std::vector<int> served_by(3, 0);
      bool overloaded = false;
      for (const RequestOutcome& o : fast.result.outcomes) {
        ++served_by[static_cast<std::size_t>(o.decision)];
        overloaded = overloaded || o.server_delay_ms > slowest_stable_ms;
      }
      EXPECT_GT(*std::min_element(served_by.begin(), served_by.end()), 0);
      EXPECT_TRUE(overloaded);
    }
  }
  // Under TestServerModel() the whole day is flat, and still the same.
  const ShardedReplayResult flat_day = ReplayTraceSharded(
      records, TestSelector(), TestServerModel(), BaseReplayConfig(1));
  EXPECT_EQ(flat_day.stats.groups_solved, 0u);
  EXPECT_EQ(flat_day.result.Serialize(),
            ReplayTraceSharded(records, TestSelector(),
                               PassThroughModel(TestServerModel()),
                               BaseReplayConfig(1))
                .result.Serialize());
}

// Forwards FlatUpTo as well, recording each argument it is asked (serial
// replays only).
class FlatQueryLog final : public PassThroughModel {
 public:
  using PassThroughModel::PassThroughModel;

  bool FlatUpTo(double decision_rps) const override {
    asked_.push_back(decision_rps);
    return base_.FlatUpTo(decision_rps);
  }

  const std::vector<double>& asked() const { return asked_; }

 private:
  mutable std::vector<double> asked_;
};

// One 10-min window of nine requests with distinct external delays. Planned
// per request, nine weights of 1/9 sum to one ulp above 1, so the solve's
// degenerate split offers decision 0 a little more than the whole rate.
std::vector<TraceRecord> NineRequestGroup() {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 9; ++i) {
    TraceRecord r;
    r.request_id = static_cast<RequestId>(i + 1);
    r.user_id = static_cast<UserId>(i + 1);
    r.session_id = static_cast<std::uint64_t>(i + 1);
    r.arrival_ms = 1000.0 * static_cast<double>(i + 1);
    r.external_delay_ms = 500.0 + 700.0 * static_cast<double>(i);
    records.push_back(r);
  }
  return records;
}

// A group whose query lands exactly on the cap, where the first level and
// the stable cap coincide: any split the solve tries past the cap would be
// docked as overloaded and move the plan off decision 0. At the cap the
// group is flat and charged from G exactly as the solve charges it; one
// ulp lower it is solved.
TEST(ScaleReplay, GroupOnTheFlatCapIsChargedFromG) {
  const std::vector<TraceRecord> records = NineRequestGroup();
  ShardedReplayConfig config = BaseReplayConfig(1);
  config.common.controller.policy.per_request = true;
  const FlatQueryLog log(TestServerModel());
  ReplayTraceSharded(records, TestSelector(), log, config);
  ASSERT_EQ(log.asked().size(), 1u);
  const double query = log.asked().front();
  for (const double cap : {query, std::nextafter(query, 0.0)}) {
    LoadProfile profile = SyntheticProfile();
    ASSERT_LT(cap, profile.level_rps[1]);
    profile.level_rps.front() = cap;
    profile.max_stable_rps = cap;
    const ProfiledReplicaModel g(3, profile);
    const ShardedReplayResult fast =
        ReplayTraceSharded(records, TestSelector(), g, config);
    const ShardedReplayResult solved = ReplayTraceSharded(
        records, TestSelector(), PassThroughModel(g), config);
    EXPECT_EQ(fast.stats.groups_solved, cap == query ? 0u : 1u);
    EXPECT_EQ(solved.stats.groups_solved, 1u);
    EXPECT_EQ(fast.result.Serialize(), solved.result.Serialize())
        << "cap=" << cap;
  }
}

// Under TestServerModel() no group reaches ComputePolicy, so the replay
// checks up front the configs every solve rejects.
TEST(ScaleReplay, FlatDayStillRejectsInvalidPolicyConfigs) {
  const auto& records = TestTrace().records;
  ASSERT_EQ(ReplayTraceSharded(records, TestSelector(), TestServerModel(),
                               BaseReplayConfig(1))
                .stats.groups_solved,
            0u);
  for (int bad = 0; bad < 3; ++bad) {
    ShardedReplayConfig config = BaseReplayConfig(1);
    PolicyConfig& policy = config.common.controller.policy;
    if (bad == 0) policy.parallel_workers = 3;
    if (bad == 1) {
      policy.instability_penalty = std::numeric_limits<double>::quiet_NaN();
    }
    if (bad == 2) {
      policy.objective.kind = ObjectiveKind::kTailPercentile;
      policy.objective.percentile = 150.0;
    }
    EXPECT_THROW(ReplayTraceSharded(records, TestSelector(),
                                    TestServerModel(), config),
                 std::invalid_argument)
        << "case " << bad;
  }
  // No group builds buckets either, so the bucket parameters are checked up
  // front too, by name.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [buckets, span] : {std::pair{0, 2000.0}, std::pair{8, 0.0},
                                      std::pair{8, -1.0}, std::pair{8, nan}}) {
    ShardedReplayConfig config = BaseReplayConfig(1);
    config.common.controller.policy.target_buckets = buckets;
    config.common.controller.policy.max_bucket_span_ms = span;
    const std::string field =
        buckets < 1 ? "target_buckets" : "max_bucket_span_ms";
    try {
      ReplayTraceSharded(records, TestSelector(), TestServerModel(), config);
      ADD_FAILURE() << "expected std::invalid_argument for " << field << " "
                    << (buckets < 1 ? buckets : span);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScaleReplay, EmptyTraceYieldsEmptyResult) {
  const ShardedReplayResult out =
      ReplayTraceSharded(std::span<const TraceRecord>{}, TestSelector(),
                         TestServerModel(), BaseReplayConfig(3));
  EXPECT_EQ(out.stats.records, 0u);
  EXPECT_EQ(out.stats.groups_merged, 0u);
  EXPECT_EQ(out.result.arrivals, 0u);
  EXPECT_EQ(out.result.throughput_rps, 0.0);
}

}  // namespace
}  // namespace e2e
