// E2E's two-level decision-making policy (§4, Algorithm 1).
//
// Top level: hill-climbing over *decision allocations* (how many units of
// load each decision carries) — valid because requests are functionally
// identical, so the server-delay model depends only on the allocation, not
// on which request goes where. Bottom level: for a fixed allocation, the
// optimal request→decision mapping is a maximum-weight bipartite matching
// between external-delay buckets and decision "slots", with edge weight
// equal to the expected QoE of serving that bucket at that slot's delay
// distribution (§4.3, Fig. 12).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/server_delay_model.h"
#include "qoe/objective.h"
#include "qoe/qoe_model.h"
#include "util/types.h"

namespace e2e {

class Bucketizer;
class ThreadPool;

/// Bottom-level mapping algorithm. kTransportation and kOptimalMatching
/// compute the same optimum — the n×n assignment's slot columns are
/// byte-identical per decision, so the matching collapses to an n×D
/// transportation solve (docs/PERFORMANCE.md) — but the transportation
/// formulation is O(n²·D) instead of O(n³). kOptimalMatching keeps the
/// expanded Hungarian solve for cross-checks and A/B benchmarks;
/// kSlopeBased is the heuristic baseline (§7.1) that ranks requests by the
/// QoE derivative at their external delay.
enum class MappingAlgorithm {
  kTransportation,
  kOptimalMatching,
  kSlopeBased,
};

/// Policy configuration.
struct PolicyConfig {
  /// Spatial coarsening (§5): number of equal-population external-delay
  /// buckets (k) and the maximum span of any bucket (delta).
  int target_buckets = 16;
  DelayMs max_bucket_span_ms = 1200.0;

  /// When true, skip coarsening entirely: one bucket per request
  /// ("E2E (basic)" in Fig. 17).
  bool per_request = false;

  MappingAlgorithm mapping = MappingAlgorithm::kTransportation;

  /// Hill-climbing bound; the search almost always converges much earlier.
  int max_hill_climb_steps = 512;

  /// Vestigial: ComputePolicy throws std::invalid_argument for any value
  /// but 1. It does not control the solve's fan-out, which the ThreadPool
  /// passed to ComputePolicy does. The field stays only because the
  /// repository benchmark (perfbench/workloads.cc) sets it; it goes when
  /// that file next changes.
  int parallel_workers = 1;

  /// Refine load fractions once from the matched bucket weights and re-run
  /// the mapping ("E2E solves the two subproblems iteratively").
  bool refine_fractions = true;

  /// Safety margin against elective overload: the allocation score is
  /// docked this fraction of Q(0) per unit of population routed to a
  /// decision with no steady state. Overload backlogs persist across
  /// decision windows (hysteresis the stateless G cannot predict), so an
  /// allocation that overloads a replica is only chosen when every
  /// allocation must (offered load above total capacity).
  double instability_penalty = 0.15;

  /// What the top-level allocation search maximizes (qoe/objective.h). The
  /// default mean-QoE objective scores bit-identically to the historical
  /// evaluator, so stock configs keep producing byte-identical tables. The
  /// bottom-level mapping solve always stays mean-optimal per allocation —
  /// linearity is what keeps it exact — while this objective ranks the
  /// candidate tables those solves produce.
  ObjectiveConfig objective;
};

/// One row of the decision lookup table (§5): requests whose (estimated)
/// external delay falls in [lo, hi) take `decision`.
struct DecisionTableRow {
  DelayMs lo = 0.0;
  DelayMs hi = 0.0;
  int decision = 0;
  double expected_qoe = 0.0;  ///< E[Q] for this bucket under the plan.
  double weight = 0.0;        ///< Population fraction of the bucket.
};

/// The cached artifact the shared-resource service consumes.
struct DecisionTable {
  std::vector<DecisionTableRow> rows;   ///< Sorted by lo.
  std::vector<double> load_fractions;   ///< Resulting per-decision split.
  /// Score of this table under the configured objective (weighted mean
  /// E[Q] for the default mean objective), including the instability dock
  /// applied by the allocation search. (The pre-objective
  /// `expected_mean_qoe` accessor rode through one release as a deprecated
  /// alias and is gone; this is the only name.)
  double objective_value = 0.0;

  /// O(log n) decision lookup (out-of-range delays clamp to the
  /// first/last row). Requires a non-empty table.
  int Lookup(DelayMs external_delay_ms) const;

  /// Like Lookup but returns the whole matched row (decision plus its
  /// planned expected QoE and weight). Requires a non-empty table.
  const DecisionTableRow& LookupRow(DelayMs external_delay_ms) const;

  /// Throws std::invalid_argument unless the rows ascend by `lo` and every
  /// row's decision is in [0, load_fractions.size()) — what Lookup and the
  /// services that install the table rely on.
  void Validate() const;
};

/// Bookkeeping from one policy computation. All counts are deterministic
/// for a given input and config: the evaluation cache admits each distinct
/// allocation once.
struct PolicyStats {
  int buckets = 0;
  int hill_climb_steps = 0;
  int allocations_evaluated = 0;
  /// Expanded n×n Hungarian solves (mapping == kOptimalMatching).
  int matchings_solved = 0;
  /// Collapsed n×D transportation solves (mapping == kTransportation).
  int transport_solves = 0;
  /// Always 0: every transport solve is a cold solve. The field stays only
  /// because the repository benchmark (perfbench/workloads.cc) reads it for
  /// its `core.policy.warm_resolves` and `warm_ratio` ledger entries; it
  /// goes when those entries do.
  int warm_resolves = 0;
};

/// Result of one policy computation.
struct PolicyResult {
  DecisionTable table;
  PolicyStats stats;
};

/// Whether a ThreadPool can ever shorten a solve with `config` against a G
/// with `num_decisions` decisions. One climb step offers at most
/// num_decisions · (num_decisions − 1) neighbours, and a round of fewer
/// than eight mapping solves runs inline, since fork/join would cost more
/// than it saves. The slope-based mapping reads the QoE model, so its
/// solves always run on the calling thread. ComputePolicy ignores a pool
/// where this is false.
bool PolicyPoolPays(const PolicyConfig& config, int num_decisions);

/// Computes the objective-optimizing decision table for the requests
/// described by `external_delays` arriving at `total_rps`, against the given
/// QoE curve and server-delay model. Thin wrapper over the Bucketizer
/// overload below — it batch-loads the delays into a
/// Bucketizer(config.target_buckets, config.max_bucket_span_ms) and
/// delegates, so both entry points share one solver path and stay
/// byte-identical by construction. Throws when inputs are empty/invalid.
PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           std::span<const DelayMs> external_delays,
                           double total_rps, const PolicyConfig& config,
                           ThreadPool* pool = nullptr);

/// The canonical entry point: takes a Bucketizer, batch-built or streamed
/// sample by sample, and gives byte-identical tables either way — the
/// streaming bucket view is bitwise equal to the batch one, and when
/// `config.per_request` the bucketizer's sorted sample multiset feeds the
/// same duplicate-collapsing per-request path. The bucketizer's own
/// target_buckets/max_span govern coarsening (config.target_buckets/
/// max_bucket_span_ms are ignored here). Throws when the bucketizer is
/// empty.
///
/// With a `pool`, each climb round's transportation or Hungarian mapping
/// solves run on its workers (docs/PERFORMANCE.md §11). Every G and Q call,
/// every cache insert and every stats count stays on the calling thread,
/// and each solve is a pure function of its allocation and its columns, so
/// the result and the stats are byte-identical at any worker count and
/// without a pool. The pool must not be running another ParallelFor.
PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           const Bucketizer& external_delays, double total_rps,
                           const PolicyConfig& config,
                           ThreadPool* pool = nullptr);

/// Throws std::invalid_argument for a config that every span-overload
/// ComputePolicy call rejects: instability_penalty not finite and >= 0,
/// parallel_workers != 1, objective parameters out of range,
/// target_buckets < 1, or max_bucket_span_ms not > 0 (NaN included). A
/// caller that may skip every solve and bucket build (the sharded replay's
/// flat groups) calls it once up front, so it rejects the same configs
/// whatever the load.
void ValidatePolicyConfig(const PolicyConfig& config);

}  // namespace e2e
