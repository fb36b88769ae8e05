// Observability layer (src/obs/): registry semantics, histogram bucketing,
// span causality, and the export determinism contract — two identical-seed
// experiment runs must export byte-identical telemetry (the same golden
// discipline tests/fault_test.cc applies to ExperimentResult::Serialize()).
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/serialize.h"
#include "obs/trace_span.h"
#include "qoe/sigmoid_model.h"
#include "testbed/broker_experiment.h"
#include "testbed/db_experiment.h"
#include "testbed/metrics.h"
#include "testbed/workloads.h"
#include "util/clock.h"

namespace e2e {
namespace {

// ---- MetricsRegistry semantics ---------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndLookupByName) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.AddCounter("db.requests");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5u);
  // Re-registration returns the SAME instrument.
  EXPECT_EQ(&registry.AddCounter("db.requests"), &c);

  obs::Gauge& g = registry.AddGauge("broker.depth");
  g.Set(3.0);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsRegistry, CrossKindReuseThrows) {
  obs::MetricsRegistry registry;
  registry.AddCounter("x.y");
  EXPECT_THROW(registry.AddGauge("x.y"), std::invalid_argument);
  EXPECT_THROW(registry.AddHistogram("x.y", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, RejectsMalformedNames) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.AddCounter(""), std::invalid_argument);
  EXPECT_THROW(registry.AddCounter("Upper.Case"), std::invalid_argument);
  EXPECT_THROW(registry.AddCounter("has space"), std::invalid_argument);
  EXPECT_NO_THROW(registry.AddCounter("ok.metric_name-2"));
}

TEST(MetricsRegistry, DisabledRegistryHandsOutScrapAndSnapshotsEmpty) {
  obs::MetricsRegistry registry(/*enabled=*/false);
  EXPECT_FALSE(registry.enabled());
  registry.AddCounter("a").Increment(100);
  registry.AddGauge("b").Set(7.0);
  registry.AddHistogram("c", {1.0, 2.0}).Observe(1.5);
  EXPECT_TRUE(registry.SnapshotCounters().empty());
  EXPECT_TRUE(registry.SnapshotGauges().empty());
  EXPECT_TRUE(registry.SnapshotHistograms().empty());
}

TEST(MetricsRegistry, SnapshotsAreNameSorted) {
  obs::MetricsRegistry registry;
  registry.AddCounter("z.last");
  registry.AddCounter("a.first");
  registry.AddCounter("m.middle");
  const auto counters = registry.SnapshotCounters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].name, "a.first");
  EXPECT_EQ(counters[1].name, "m.middle");
  EXPECT_EQ(counters[2].name, "z.last");
}

// ---- Histogram bucket edges -------------------------------------------------

TEST(Histogram, InclusiveUpperEdgesAndOverflow) {
  obs::Histogram hist({10.0, 20.0, 40.0});
  hist.Observe(10.0);  // On an edge: lands IN that bucket (inclusive upper).
  hist.Observe(10.5);  // (10, 20]
  hist.Observe(40.0);  // (20, 40] — still inclusive.
  hist.Observe(40.1);  // Overflow.
  hist.Observe(-3.0);  // Below everything: first bucket.
  const auto& counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 10.0 + 10.5 + 40.0 + 40.1 - 3.0);
}

TEST(Histogram, EmptyEdgesMeansSingleOverflowBucket) {
  obs::Histogram hist({});
  hist.Observe(1.0);
  hist.Observe(1e12);
  ASSERT_EQ(hist.bucket_counts().size(), 1u);
  EXPECT_EQ(hist.bucket_counts()[0], 2u);
}

TEST(Histogram, RejectsNonAscendingEdges) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

// ---- Trace spans ------------------------------------------------------------

TEST(Tracer, NestingFollowsTheOpenSpanStack) {
  VirtualClock clock;
  obs::Tracer tracer(&clock, /*enabled=*/true);
  {
    auto outer = tracer.StartSpan("ctrl.tick");
    clock.AdvanceMicros(5.0);
    {
      auto inner = tracer.StartSpan("ctrl.recompute");
      clock.AdvanceMicros(10.0);
    }
    clock.AdvanceMicros(1.0);
  }
  auto sibling = tracer.StartSpan("fault.window");
  sibling.End();
  sibling.End();  // Idempotent.

  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].name, "ctrl.tick");
  EXPECT_DOUBLE_EQ(spans[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].end_us, 16.0);
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].parent, 1u);  // Nested under ctrl.tick.
  EXPECT_DOUBLE_EQ(spans[1].start_us, 5.0);
  EXPECT_DOUBLE_EQ(spans[1].end_us, 15.0);
  EXPECT_EQ(spans[2].parent, 0u);  // Started after both closed: a root.
}

TEST(Tracer, OutOfOrderEndsAndOpenSpansExport) {
  VirtualClock clock;
  obs::Tracer tracer(&clock, /*enabled=*/true);
  auto a = tracer.StartSpan("fault.a");
  auto b = tracer.StartSpan("fault.b");
  clock.AdvanceMicros(2.0);
  a.End();  // Ends while b (its child) is still open — allowed.
  auto c = tracer.StartSpan("fault.c");  // Parent is b, the innermost open.
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_FALSE(spans[0].open);
  EXPECT_TRUE(spans[1].open);
  EXPECT_EQ(spans[2].parent, 2u);
  EXPECT_TRUE(spans[2].open);
}

TEST(Tracer, DisabledTracerReturnsInertSpans) {
  obs::Tracer tracer(nullptr, /*enabled=*/false);
  auto span = tracer.StartSpan("anything.goes");
  EXPECT_EQ(span.id(), 0u);
  span.End();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(Tracer, EnabledTracerRequiresAClock) {
  EXPECT_THROW(obs::Tracer(nullptr, /*enabled=*/true), std::invalid_argument);
}

TEST(Tracer, RejectsMalformedSpanNames) {
  obs::Tracer tracer(&VirtualClock::Frozen(), /*enabled=*/true);
  EXPECT_THROW((void)tracer.StartSpan("Bad Name"), std::invalid_argument);
}

// ---- Export formats ---------------------------------------------------------

obs::TelemetrySnapshot SmallSnapshot() {
  obs::MetricsRegistry registry;
  registry.AddCounter("db.requests").Increment(3);
  registry.AddGauge("broker.depth").Set(2.5);
  registry.AddHistogram("db.service_ms", {10.0, 100.0}).Observe(42.0);
  VirtualClock clock;
  obs::Tracer tracer(&clock, /*enabled=*/true);
  auto span = tracer.StartSpan("ctrl.recompute");
  clock.AdvanceMicros(7.0);
  span.End();
  obs::TelemetrySnapshot snapshot;
  snapshot.counters = registry.SnapshotCounters();
  snapshot.gauges = registry.SnapshotGauges();
  snapshot.histograms = registry.SnapshotHistograms();
  snapshot.spans = tracer.Snapshot();
  return snapshot;
}

TEST(Export, TextStartsWithSchemaLine) {
  const std::string text = SmallSnapshot().SerializeText();
  EXPECT_EQ(text.rfind(std::string(obs::kTelemetrySchemaLine) + "\n", 0), 0u);
  EXPECT_NE(text.find("counter db.requests 3"), std::string::npos);
  EXPECT_NE(text.find("hist db.service_ms"), std::string::npos);
  EXPECT_NE(text.find("span 1 parent=0 name=ctrl.recompute"),
            std::string::npos);
}

TEST(Export, JsonCarriesSchemaAndHexfloatStrings) {
  const std::string json = SmallSnapshot().SerializeJson();
  EXPECT_NE(json.find("\"schema\""), std::string::npos);
  EXPECT_NE(json.find(std::string(obs::kTelemetryJsonSchema)),
            std::string::npos);
  // Doubles are exported as hexfloat STRINGS, not JSON numbers.
  EXPECT_NE(json.find(std::string("\"") + obs::HexDouble(2.5) + "\""),
            std::string::npos);
}

TEST(Export, ResultSerializeLeadsWithVersionHeader) {
  ExperimentResult result;
  result.Finalize();
  const std::string text = result.Serialize();
  EXPECT_EQ(text.rfind(std::string(obs::kResultSchemaLine) + "\n", 0), 0u);
}

// ---- Experiment-level determinism ------------------------------------------

const SigmoidQoeModel& TraceQoe() {
  static const SigmoidQoeModel model = SigmoidQoeModel::TraceTimeOnSite();
  return model;
}

std::vector<TraceRecord> SmallWorkload() {
  SyntheticWorkloadParams params;
  params.num_requests = 500;
  params.seed = 17;
  params.rps = 60.0;
  return MakeSyntheticWorkload(params);
}

BrokerExperimentConfig TelemetryBrokerConfig() {
  BrokerExperimentConfig config;
  config.policy = BrokerPolicy::kE2e;
  config.common.speedup = 1.0;
  config.common.collect_telemetry = true;
  config.broker.priority_levels = 6;
  config.broker.consume_interval_ms = 18.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  return config;
}

DbExperimentConfig TelemetryDbConfig() {
  DbExperimentConfig config;
  config.policy = DbPolicy::kE2e;
  config.common.speedup = 1.0;
  config.common.collect_telemetry = true;
  config.dataset_keys = 2000;
  config.value_bytes = 16;
  config.range_count = 20;
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 8;
  config.cluster.base_service_ms = 120.0;
  config.cluster.capacity = 8.0;
  config.profile_levels = 12;
  config.profile_max_rps = 60.0;
  config.profile_duration_ms = 15000.0;
  config.common.controller.external.window_ms = 5000.0;
  config.common.controller.external.min_samples = 20;
  config.common.controller.policy.target_buckets = 10;
  return config;
}

TEST(TelemetryDeterminism, BrokerRunsExportIdenticalBytes) {
  const auto records = SmallWorkload();
  const auto a =
      RunBrokerExperiment(records, TraceQoe(), TelemetryBrokerConfig());
  const auto b =
      RunBrokerExperiment(records, TraceQoe(), TelemetryBrokerConfig());
  ASSERT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
  EXPECT_EQ(a.telemetry.SerializeJson(), b.telemetry.SerializeJson());
  // The instrumented run's result export stays byte-identical too.
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(TelemetryDeterminism, DbRunsExportIdenticalBytes) {
  const auto records = SmallWorkload();
  const auto a = RunDbExperiment(records, TraceQoe(), TelemetryDbConfig());
  const auto b = RunDbExperiment(records, TraceQoe(), TelemetryDbConfig());
  ASSERT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.telemetry.SerializeText(), b.telemetry.SerializeText());
  EXPECT_EQ(a.telemetry.SerializeJson(), b.telemetry.SerializeJson());
}

TEST(TelemetryDeterminism, SeedChangesTheExport) {
  // The db testbed draws per-request service times from the run's seed, so
  // reseeding must shift the service-time histograms (equality here would
  // mean the export ignores the run it claims to describe).
  const auto records = SmallWorkload();
  auto config = TelemetryDbConfig();
  const auto a = RunDbExperiment(records, TraceQoe(), config);
  config.common.seed += 1;
  const auto b = RunDbExperiment(records, TraceQoe(), config);
  EXPECT_NE(a.telemetry.SerializeText(), b.telemetry.SerializeText());
}

TEST(TelemetryDeterminism, DisabledRunsCarryNoTelemetry) {
  const auto records = SmallWorkload();
  auto config = TelemetryBrokerConfig();
  config.common.collect_telemetry = false;
  const auto result = RunBrokerExperiment(records, TraceQoe(), config);
  EXPECT_TRUE(result.telemetry.empty());
}

TEST(TelemetryContent, BrokerRunRecordsExpectedInstruments) {
  const auto records = SmallWorkload();
  const auto result =
      RunBrokerExperiment(records, TraceQoe(), TelemetryBrokerConfig());
  std::uint64_t published = 0;
  std::uint64_t transport_solves = 0;
  bool saw_loop_events = false;
  for (const auto& counter : result.telemetry.counters) {
    if (counter.name == "broker.published") published = counter.value;
    if (counter.name == "sim.loop.events") {
      saw_loop_events = counter.value > 0;
    }
    if (counter.name == "ctrl.primary.policy.transport_solves") {
      transport_solves = counter.value;
    }
  }
  EXPECT_EQ(published, records.size());
  EXPECT_TRUE(saw_loop_events);
  // The optimizer-work counter is live.
  EXPECT_GT(transport_solves, 0u);
  bool saw_recompute_span = false;
  for (const auto& span : result.telemetry.spans) {
    if (span.name == "ctrl.primary.recompute") saw_recompute_span = true;
  }
  EXPECT_TRUE(saw_recompute_span);
}

}  // namespace
}  // namespace e2e
