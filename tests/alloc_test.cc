// Heap-allocation guards for the policy solve's evaluation path. This binary
// replaces the global operator new and delete with counting versions, which
// is why it is a binary of its own: a test reads how many allocations a call
// made on its thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <vector>

#include "core/policy.h"
#include "core/server_delay_model.h"
#include "qoe/objective.h"
#include "qoe/sigmoid_model.h"
#include "stats/distribution.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

// Not inlined: where GCC inlines a `new` down to this malloc, its
// -Wmismatched-new-delete reports the matching sized `delete`.
[[gnu::noinline]] void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
// Not inlined: GCC's -Wmismatched-new-delete cannot see that these frees
// pair with the mallocs above, and reports a `new` whose `delete` it
// inlines.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace e2e {

// Prints a kind by name, so each case of the suite below is named by its
// kind ("…/tail-percentile") in ctest. In namespace e2e, where argument-
// dependent lookup finds it.
void PrintTo(ObjectiveKind kind, std::ostream* os) { *os << ToString(kind); }

namespace {

// Heap allocations `f` makes.
template <typename F>
std::uint64_t AllocationsOf(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Each objective kind, so the distribution objectives' scoring is covered
// as well as the evaluator's.
class PolicyAllocations : public ::testing::TestWithParam<ObjectiveKind> {};

TEST_P(PolicyAllocations, EvaluationsDoNotAllocateOnAWarmThread) {
  // The live controller's shape: the 8-level broker G (one 5 ms consumer)
  // planned at 160 rps (utilization 0.8) over 36 buckets. Capped at one
  // climb step the solve evaluates a few dozen allocations; uncapped, many
  // times that. The solve's own fixed costs (buckets, objective and its
  // working memory, climb starts, the returned table) are the same at
  // either cap, so the difference is what evaluations allocate.
  const auto qoe = SigmoidQoeModel::TraceTimeOnSite();
  const PriorityQueueModel g(8, 5.0, 1);
  Rng rng(2019);
  std::vector<double> externals;
  for (int i = 0; i < 600; ++i) externals.push_back(rng.LogNormal(7.6, 0.7));
  PolicyConfig capped;
  capped.objective.kind = GetParam();
  capped.target_buckets = 36;
  capped.max_hill_climb_steps = 1;
  PolicyConfig full = capped;
  full.max_hill_climb_steps = 512;

  // Warm this thread's evaluator and transportation scratch on the larger
  // solve, which evaluates a superset of the capped one's allocations.
  const PolicyResult warm = ComputePolicy(qoe, g, externals, 160.0, full);

  PolicyResult one_step;
  const std::uint64_t capped_allocations = AllocationsOf(
      [&] { one_step = ComputePolicy(qoe, g, externals, 160.0, capped); });
  PolicyResult climbed;
  const std::uint64_t full_allocations = AllocationsOf(
      [&] { climbed = ComputePolicy(qoe, g, externals, 160.0, full); });

  EXPECT_EQ(climbed.stats.allocations_evaluated,
            warm.stats.allocations_evaluated);
  ASSERT_GT(climbed.stats.hill_climb_steps, 2);
  ASSERT_GE(climbed.stats.allocations_evaluated,
            2 * one_step.stats.allocations_evaluated);
  EXPECT_LE(full_allocations, capped_allocations + 4)
      << "capped: " << capped_allocations << " allocations for "
      << one_step.stats.allocations_evaluated << " evaluations; full: "
      << full_allocations << " for " << climbed.stats.allocations_evaluated;
}

INSTANTIATE_TEST_SUITE_P(
    AllObjectives, PolicyAllocations,
    ::testing::Values(ObjectiveKind::kMeanQoe, ObjectiveKind::kTailPercentile,
                      ObjectiveKind::kMeanMinusStdev,
                      ObjectiveKind::kFairnessConstrainedMean));

TEST(PolicyAllocations, GCallsAllocateNothing) {
  // Every G in the tree emits at most 12 support points, which the
  // distribution stores inline: building, copying, moving, shifting and
  // blending one touch no heap.
  const PriorityQueueModel broker(8, 5.0, 1);
  const std::vector<double> split = {0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05,
                                     0.05};
  LoadProfile profile;
  profile.max_rps = 100.0;
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(5.0 + 0.1 * i);
  for (int level = 1; level <= 10; ++level) {
    profile.level_rps.push_back(10.0 * level);
    profile.delays.push_back(
        DiscreteDistribution::FromSamples(samples, 12).ShiftedBy(level));
  }
  profile.max_stable_rps = 75.0;
  const ProfiledReplicaModel replicas(3, profile);
  const std::vector<double> thirds = {0.5, 0.3, 0.2};

  double sink = 0.0;
  const std::uint64_t allocations = AllocationsOf([&] {
    for (int d = 0; d < 8; ++d) {
      DiscreteDistribution f = broker.DelayDistribution(d, split, 160.0);
      const DiscreteDistribution copy = f;
      f = copy.ShiftedBy(1.0);
      sink += f.Mean() + copy.ScaledBy(2.0).Mean();
    }
    // Below the first level, blended between levels, and past the stable
    // cap (the overload branch's re-interpolation).
    for (const double rps : {10.0, 90.0, 200.0, 400.0}) {
      for (int d = 0; d < 3; ++d) {
        sink += replicas.DelayDistribution(d, thirds, rps).Mean();
      }
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace e2e
