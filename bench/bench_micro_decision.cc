// Microbenchmarks (google-benchmark) of the decision-path building blocks:
// the assignment solver's cubic scaling, bucketization, full policy
// computation, and the cached table lookup — the quantities behind the
// Fig. 16/17 overhead claims.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/policy.h"
#include "core/server_delay_model.h"
#include "matching/assignment.h"
#include "matching/transportation.h"
#include "qoe/sigmoid_model.h"
#include "stats/bucketizer.h"
#include "trace/generator.h"
#include "trace/windows.h"
#include "util/rng.h"

namespace e2e {
namespace {

WeightMatrix RandomMatrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  WeightMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.At(r, c) = rng.Uniform(0.0, 1.0);
    }
  }
  return m;
}

void BM_Assignment(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const WeightMatrix m = RandomMatrix(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMaxWeightAssignment(m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Assignment)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_Bucketizer(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.LogNormal(8.1, 0.8));
  const int buckets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bucketizer(samples, buckets, 1200.0));
  }
}
BENCHMARK(BM_Bucketizer)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// A cheap analytic G for the policy benchmark.
class LinearModel final : public ServerDelayModel {
 public:
  int NumDecisions() const override { return 3; }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> fractions,
      double total_rps) const override {
    return DiscreteDistribution::PointMass(
        50.0 + 20.0 * fractions[static_cast<std::size_t>(decision)] *
                   total_rps);
  }
  std::string Name() const override { return "bench-linear"; }
};

void BM_ComputePolicy(benchmark::State& state) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearModel g;
  Rng rng(13);
  std::vector<double> externals;
  for (int i = 0; i < 2000; ++i) externals.push_back(rng.LogNormal(8.1, 0.8));
  PolicyConfig config;
  config.target_buckets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputePolicy(qoe, g, externals, 100.0, config));
  }
}
BENCHMARK(BM_ComputePolicy)->Arg(8)->Arg(16)->Arg(32);

// An 8-decision analytic G for the controller's operating point (n=256
// buckets, D=8 decisions) used by the perf-regression gate
// (scripts/run_perf_baseline.sh, bench/BENCH_policy.json).
class WideModel final : public ServerDelayModel {
 public:
  int NumDecisions() const override { return 8; }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> fractions,
      double total_rps) const override {
    const double base = 40.0 + 15.0 * static_cast<double>(decision);
    return DiscreteDistribution::PointMass(
        base + 25.0 * fractions[static_cast<std::size_t>(decision)] *
                   total_rps);
  }
  std::string Name() const override { return "bench-wide"; }
};

std::vector<double> BenchExternals(int n) {
  Rng rng(21);
  std::vector<double> externals;
  for (int i = 0; i < n; ++i) externals.push_back(rng.LogNormal(8.1, 0.8));
  return externals;
}

// The raw mapping subproblem at the operating point: the collapsed n×D
// transportation solve (mapping:0) vs the expanded n×n Hungarian solve over
// duplicated slot columns (mapping:1) — the matrix the policy built before
// the collapse.
void BM_MappingSolve(benchmark::State& state) {
  const std::size_t n = 256;
  const std::size_t decisions = 8;
  Rng rng(42);
  WeightMatrix collapsed(n, decisions);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < decisions; ++c) {
      collapsed.At(r, c) = rng.Uniform(0.0, 1.0);
    }
  }
  std::vector<int> capacity(decisions, static_cast<int>(n / decisions));
  if (state.range(0) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          SolveMaxWeightTransportation(collapsed, capacity));
    }
  } else {
    WeightMatrix expanded(n, n);
    std::size_t s = 0;
    for (std::size_t c = 0; c < decisions; ++c) {
      for (int u = 0; u < capacity[c]; ++u, ++s) {
        for (std::size_t r = 0; r < n; ++r) {
          expanded.At(r, s) = collapsed.At(r, c);
        }
      }
    }
    for (auto _ : state) {
      benchmark::DoNotOptimize(SolveMaxWeightAssignment(expanded));
    }
  }
}
BENCHMARK(BM_MappingSolve)
    ->ArgNames({"mapping"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The full policy computation at n=256 per-request buckets, D=8 decisions:
// mapping 0 = transportation (default), 1 = expanded Hungarian. Every solve
// is serial; the `workers:1` argument only keeps the names the committed
// baseline (bench/BENCH_policy.json) and the perf gate key on. The hill
// climb is bounded so the Hungarian reference stays tractable; the speedup
// ratio is unaffected.
void BM_PolicyFullSolve(benchmark::State& state) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const WideModel g;
  const auto externals = BenchExternals(256);
  PolicyConfig config;
  config.per_request = true;  // One bucket per distinct delay: n = 256.
  config.max_hill_climb_steps = 2;
  config.mapping = state.range(0) == 0 ? MappingAlgorithm::kTransportation
                                       : MappingAlgorithm::kOptimalMatching;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePolicy(qoe, g, externals, 90.0, config));
  }
}
BENCHMARK(BM_PolicyFullSolve)
    ->ArgNames({"mapping", "workers"})
    ->Args({0, 1})   // Transportation.
    ->Args({1, 1})   // Hungarian reference.
    ->Unit(benchmark::kMillisecond);

// The live controller's D = 8 recompute: ComputePolicy with the 8-level
// broker G (one 5 ms consumer) at 16 target buckets over one page-type-1
// window — 16:00-16:10 of a seed-20190819, 0.1-scale day, planned at
// 160 rps — the input ComputePolicy.BrokerWindowGoldenLock pins. Where
// BM_PolicyFullSolve's synthetic n = 256 WideModel is dominated by its
// 256×8 solve arithmetic, this instance (32 buckets, ~4k transport solves)
// weighs the evaluation path around the solves as the controller_live
// workload does: G calls, QoE-column probes and per-solve setup.
void BM_BrokerRecompute(benchmark::State& state) {
  TraceGenParams params;
  params.seed = 20190819;
  params.scale = 0.1;
  const Trace trace = TraceGenerator(params).Generate();
  // Named, so the map outlives the loop: a range-for over a member of a
  // temporary would read freed memory.
  const auto groups = GroupByWindow(trace.records, 600000.0);
  std::vector<double> externals;
  for (const TraceRecord& r : groups.at(WindowKey{PageType::kType1, 16 * 6})) {
    externals.push_back(r.external_delay_ms);
  }
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel g(8, 5.0, 1);
  PolicyConfig config;
  config.target_buckets = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePolicy(qoe, g, externals, 160.0, config));
  }
}
BENCHMARK(BM_BrokerRecompute)->Unit(benchmark::kMillisecond);

// The pluggable-objective overhead at the same operating point: the full
// policy solve scored by each built-in objective family (objective =
// ObjectiveKind: 0 mean, 1 p10, 2 mean-stdev, 3 fair-mean). The perf gate
// (scripts/check_perf_regression.py) holds every non-default objective —
// including the distribution-scoring ones, which materialize per-bucket
// QoE value vectors — to <= 1.3x the scalar mean fast path.
void BM_ObjectiveSolve(benchmark::State& state) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const WideModel g;
  const auto externals = BenchExternals(256);
  PolicyConfig config;
  config.per_request = true;  // One bucket per distinct delay: n = 256.
  config.max_hill_climb_steps = 2;
  config.objective.kind = static_cast<ObjectiveKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePolicy(qoe, g, externals, 90.0, config));
  }
}
BENCHMARK(BM_ObjectiveSolve)
    ->ArgNames({"objective"})
    ->Arg(0)   // Mean QoE (the scalar fast path).
    ->Arg(1)   // Tail percentile (distribution path).
    ->Arg(2)   // Mean minus stdev (distribution path).
    ->Arg(3)   // Fairness-constrained mean (scalar path).
    ->Unit(benchmark::kMillisecond);

void BM_TableLookup(benchmark::State& state) {
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const LinearModel g;
  Rng rng(17);
  std::vector<double> externals;
  for (int i = 0; i < 2000; ++i) externals.push_back(rng.LogNormal(8.1, 0.8));
  PolicyConfig config;
  config.target_buckets = 24;
  const auto result = ComputePolicy(qoe, g, externals, 100.0, config);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        result.table.Lookup(externals[i++ % externals.size()]));
  }
}
BENCHMARK(BM_TableLookup);

}  // namespace
}  // namespace e2e

BENCHMARK_MAIN();
