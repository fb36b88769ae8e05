#include "core/policy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "matching/assignment.h"
#include "matching/transportation.h"
#include "stats/bucketizer.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

// Internal bucket view used by the solver.
struct PolicyBucket {
  DelayMs lo = 0.0;
  DelayMs hi = 0.0;
  DelayMs representative = 0.0;
  double weight = 0.0;
};

// The solver's bucket view of a (possibly streamed/merged) bucketizer. In
// per-request mode: one bucket per *distinct* external delay of its sorted
// sample multiset. Equal delays must collapse into one bucket with their
// summed weight: emitting a zero-width [x, x) row per duplicate makes
// DecisionTable::Lookup (lower-edge binary search) route every duplicate to
// the last row with lo == x, so the installed load split silently diverges
// from the planned one. Otherwise the bucketizer's own lazy rebuild supplies
// the coarsened view, which is bitwise equal to batch-constructing over the
// concatenated samples.
std::vector<PolicyBucket> BuildBuckets(const Bucketizer& bucketizer,
                                       const PolicyConfig& config) {
  std::vector<PolicyBucket> buckets;
  if (config.per_request) {
    const std::span<const double> sorted = bucketizer.samples();
    const double unit = 1.0 / static_cast<double>(sorted.size());
    std::size_t i = 0;
    while (i < sorted.size()) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      const double hi = j < sorted.size() ? sorted[j] : sorted[i] + 1.0;
      buckets.push_back(PolicyBucket{sorted[i], hi, sorted[i],
                                     static_cast<double>(j - i) * unit});
      i = j;
    }
    return buckets;
  }
  for (const Bucket& b : bucketizer.buckets()) {
    buckets.push_back(PolicyBucket{b.lo, b.hi, b.representative, b.weight});
  }
  return buckets;
}

// Expected QoE of serving external delay c at a slot with delay
// distribution f: E_{s~f}[Q(c + s)].
double ExpectedQoe(const QoeModel& qoe, DelayMs c,
                   const DiscreteDistribution& f) {
  double total = 0.0;
  const auto values = f.values();
  const auto probs = f.probabilities();
  for (std::size_t i = 0; i < values.size(); ++i) {
    total += qoe.Qoe(c + values[i]) * probs[i];
  }
  return total;
}

bool SameBytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// 64-bit hash of a delay distribution's value and probability bits: the key
// of the expected-QoE column cache. A collision costs one extra content
// compare, never a wrong column.
std::uint64_t ContentHash(std::span<const double> values,
                          std::span<const double> probs) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ values.size();
  const auto mix = [&h](std::span<const double> xs) {
    for (const double x : xs) {
      h ^= std::bit_cast<std::uint64_t>(x);
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
  };
  mix(values);
  mix(probs);
  return h;
}

// Result of evaluating one allocation.
struct Evaluation {
  double objective_value = 0.0;
  std::vector<int> decision_of_bucket;
  std::vector<double> expected_qoe_of_bucket;
};

class AllocationEvaluator {
 public:
  AllocationEvaluator(const QoeModel& qoe, const ServerDelayModel& g,
                      const Objective& objective,
                      std::span<const PolicyBucket> buckets, double total_rps,
                      const PolicyConfig& config, PolicyStats& stats,
                      ThreadPool* pool)
      : qoe_(qoe),
        g_(g),
        objective_(objective),
        buckets_(buckets),
        total_rps_(total_rps),
        config_(config),
        stats_(stats),
        pool_(pool) {}

  // Evaluates the allocation `units` (buckets per decision, summing to
  // buckets_.size()), caching by allocation vector. Safe to call
  // concurrently from the parallel neighbor sweep: the caches and the stats
  // are mutex-guarded, the computation itself runs outside the lock, and
  // std::map nodes are reference-stable under insertion. Racing threads
  // computing the same key produce identical Evaluations (the computation
  // is a pure function of the inputs), and only the inserting thread
  // counts it, so PolicyStats stays independent of the worker count.
  const Evaluation& Evaluate(const std::vector<int>& units) {
    return EvaluateImpl(units, /*base=*/false);
  }

  // Evaluation of a hill-climb start. Must be called from the thread that
  // owns the pool (never from inside a sweep): it may fan the per-decision
  // expected-QoE column fills out across the pool. Results are
  // byte-identical to Evaluate() — the fan-out is a pure acceleration.
  const Evaluation& EvaluateBase(const std::vector<int>& units) {
    return EvaluateImpl(units, /*base=*/true);
  }

 private:
  struct SolveCounts {
    int matchings = 0;
    int transports = 0;
  };

  // What G says about one split at one rate: each decision's delay
  // distribution and its expected-QoE column (an entry of qoe_columns_;
  // null until fetched).
  struct GOutputs {
    std::vector<DiscreteDistribution> delay_of_decision;
    std::vector<const std::vector<double>*> columns;
  };

  // One cached expected-QoE column and the distribution content it belongs
  // to (values ++ probabilities; the halves have equal length, so the
  // concatenation is unambiguous).
  struct CachedColumn {
    std::vector<double> content;
    std::vector<double> column;
  };

  const Evaluation& EvaluateImpl(const std::vector<int>& units, bool base) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(units);
      if (it != cache_.end()) return it->second;
    }
    SolveCounts counts;
    Evaluation eval = EvaluateUncached(units, counts, base);
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = cache_.emplace(units, std::move(eval));
    if (inserted) {
      ++stats_.allocations_evaluated;
      stats_.matchings_solved += counts.matchings;
      stats_.transport_solves += counts.transports;
    }
    return it->second;
  }

  // Each evaluation is a small fixed point between the two subproblems
  // ("E2E solves the two subproblems iteratively", §4.2): the mapping is
  // solved against G at some load split, and the split implied by the
  // mapping (sum of the *population weights* of the buckets routed to each
  // decision — NOT the unit counts, which diverge once the max-span rule
  // splits buckets unevenly) is fed back into G until it stops moving. The
  // reported QoE is therefore consistent with the load the installed table
  // would actually create.
  Evaluation EvaluateUncached(const std::vector<int>& units,
                              SolveCounts& counts, bool base) {
    // Seed split: unit share (exact when buckets are equal-population).
    const double total_units = static_cast<double>(buckets_.size());
    std::vector<double> fractions(units.size());
    for (std::size_t d = 0; d < units.size(); ++d) {
      fractions[d] = static_cast<double>(units[d]) / total_units;
    }

    Evaluation eval;
    GOutputs at_split;  // G's outputs at the split of the last solve.
    SolveWithFractions(units, fractions, counts, base, eval, at_split);
    std::vector<double> actual;
    SplitOf(eval.decision_of_bucket, units.size(), actual);
    const int max_rounds = config_.refine_fractions ? 3 : 0;
    for (int round = 0; round < max_rounds; ++round) {
      double moved = 0.0;
      for (std::size_t d = 0; d < actual.size(); ++d) {
        moved += std::abs(actual[d] - fractions[d]);
      }
      if (moved < 0.02) break;  // Converged.
      fractions.swap(actual);
      SolveWithFractions(units, fractions, counts, base, eval, at_split);
      SplitOf(eval.decision_of_bucket, units.size(), actual);
    }
    // Score at the split the final mapping actually creates, docked by the
    // elective-overload safety margin (see PolicyConfig). Usually the refine
    // loop stops with that split bitwise equal to the one the last solve
    // ran at (moved == 0). G is a pure function of its arguments, so the
    // solve's distributions and columns are then exactly what scoring would
    // fetch again; only a split that moved asks G anew.
    if (!SameBytes(actual, fractions)) {
      QueryG(actual, /*rate_factor=*/1.0, at_split);
    }
    eval.objective_value =
        ScoreMapping(eval.decision_of_bucket, at_split, base);
    if (config_.stress_weight > 0.0 && config_.stress_factor > 1.0) {
      GOutputs stressed;
      QueryG(actual, config_.stress_factor, stressed);
      eval.objective_value =
          (1.0 - config_.stress_weight) * eval.objective_value +
          config_.stress_weight *
              ScoreMapping(eval.decision_of_bucket, stressed, base);
    }
    if (config_.instability_penalty > 0.0) {
      // IsOverloaded depends only on (decision, fractions, rate), so ask
      // once per decision instead of once per bucket; the per-bucket mass
      // accumulation below keeps its historical order.
      std::vector<char> overloaded(units.size(), 0);
      for (std::size_t d = 0; d < units.size(); ++d) {
        overloaded[d] =
            g_.IsOverloaded(static_cast<int>(d), actual,
                            total_rps_ * config_.overload_headroom)
                ? 1
                : 0;
      }
      double overloaded_mass = 0.0;
      for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (overloaded[static_cast<std::size_t>(
                eval.decision_of_bucket[b])] != 0) {
          overloaded_mass += buckets_[b].weight;
        }
      }
      eval.objective_value -=
          config_.instability_penalty * qoe_.Qoe(0.0) * overloaded_mass;
    }
    return eval;
  }

  // The split a mapping creates: each decision's summed bucket weight.
  void SplitOf(const std::vector<int>& decision_of_bucket,
               std::size_t num_decisions, std::vector<double>& split) const {
    split.assign(num_decisions, 0.0);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      split[static_cast<std::size_t>(decision_of_bucket[b])] +=
          buckets_[b].weight;
    }
  }

  // Asks G for every decision's delay distribution when the load splits as
  // `fractions` at `rate_factor` times the planned rate. Columns start
  // unfetched.
  void QueryG(const std::vector<double>& fractions, double rate_factor,
              GOutputs& out) const {
    const int num_decisions = g_.NumDecisions();
    out.delay_of_decision.clear();
    out.delay_of_decision.reserve(static_cast<std::size_t>(num_decisions));
    for (int d = 0; d < num_decisions; ++d) {
      out.delay_of_decision.push_back(
          g_.DelayDistribution(d, fractions, total_rps_ * rate_factor));
    }
    out.columns.assign(static_cast<std::size_t>(num_decisions), nullptr);
  }

  // Per-bucket expected-QoE column for one slot delay distribution:
  // column[b] = ExpectedQoe(qoe, buckets[b].representative, f). Cached by
  // distribution *content*: the hill climb revisits the same per-decision
  // distributions across evaluations whenever load fractions land on the
  // same grid points, and each column is a pure function of that content.
  // A probe hashes the content's bits and compares the full content of
  // each entry under that hash; only an insert copies the content. Entries
  // are mutex-guarded and node-stable (the map is only ever looked up,
  // never iterated); racing threads computing the same content produce
  // bitwise identical columns (same accumulation, per-slot writes), and the
  // first insert wins. When `allow_parallel` (base evaluations only — never
  // from inside the pool) the per-bucket fills fan out over the pool into
  // disjoint index slots.
  const std::vector<double>& QoeColumn(const DiscreteDistribution& f,
                                       bool allow_parallel) {
    const auto values = f.values();
    const auto probs = f.probabilities();
    const std::uint64_t hash = ContentHash(values, probs);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* hit = FindColumn(hash, values, probs)) return *hit;
    }
    std::vector<double> column(buckets_.size());
    const auto fill = [&](std::size_t b) {
      column[b] = ExpectedQoe(qoe_, buckets_[b].representative, f);
    };
    if (allow_parallel && pool_ != nullptr) {
      pool_->ParallelFor(column.size(), fill);
    } else {
      for (std::size_t b = 0; b < column.size(); ++b) fill(b);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* hit = FindColumn(hash, values, probs)) return *hit;
    CachedColumn entry{std::vector<double>(values.begin(), values.end()),
                       std::move(column)};
    entry.content.insert(entry.content.end(), probs.begin(), probs.end());
    return qoe_columns_.emplace(hash, std::move(entry))->second.column;
  }

  // The cached column for this content, or null. Caller holds mu_.
  const std::vector<double>* FindColumn(std::uint64_t hash,
                                        std::span<const double> values,
                                        std::span<const double> probs) const {
    const auto [first, last] = qoe_columns_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      const std::vector<double>& content = it->second.content;
      if (content.size() == values.size() + probs.size() &&
          SameBytes(std::span(content).first(values.size()), values) &&
          SameBytes(std::span(content).subspan(values.size()), probs)) {
        return &it->second.column;
      }
    }
    return nullptr;
  }

  // Objective score of a fixed mapping under G's outputs `g_out`. Builds one
  // QoeBucketView per bucket, in bucket-index order; per-bucket QoE
  // distributions (the view's value/probability spans) are only
  // materialized when the objective asks for them, and for the mean fast
  // path the expected-QoE accumulation is byte-for-byte the historical
  // ExpectedQoe loop (shared with the mapping solves through the column
  // cache). Columns `g_out` lacks are fetched lazily, so decisions no bucket
  // routed to cost nothing.
  double ScoreMapping(const std::vector<int>& decision_of_bucket,
                      GOutputs& g_out, bool allow_parallel) {
    const bool need_distribution = objective_.NeedsDistribution();
    std::vector<QoeBucketView> views(buckets_.size());
    // Owns the per-bucket Q(rep + s) vectors the views alias; must outlive
    // the Score call below.
    std::vector<std::vector<double>> qoe_values;
    if (need_distribution) qoe_values.resize(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const std::size_t d =
          static_cast<std::size_t>(decision_of_bucket[b]);
      const DiscreteDistribution& f = g_out.delay_of_decision[d];
      QoeBucketView& view = views[b];
      view.weight = buckets_[b].weight;
      if (need_distribution) {
        const auto values = f.values();
        const auto probs = f.probabilities();
        std::vector<double>& qv = qoe_values[b];
        qv.resize(values.size());
        // Same accumulation order and arithmetic as ExpectedQoe — qv[i]
        // stores the exact double the historical loop multiplied — so the
        // expected value is bitwise identical on both paths.
        double expected = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
          qv[i] = qoe_.Qoe(buckets_[b].representative + values[i]);
          expected += qv[i] * probs[i];
        }
        view.expected_qoe = expected;
        view.qoe_values = qv;
        view.probabilities = probs;
      } else {
        if (g_out.columns[d] == nullptr) {
          g_out.columns[d] = &QoeColumn(f, allow_parallel);
        }
        view.expected_qoe = (*g_out.columns[d])[b];
      }
    }
    return objective_.Score(views);
  }

  // Solves the mapping for allocation `units` against G at `fractions`,
  // writing the mapping into `eval` and G's outputs (every column fetched)
  // into `g_out`.
  void SolveWithFractions(const std::vector<int>& units,
                          const std::vector<double>& fractions,
                          SolveCounts& counts, bool allow_parallel,
                          Evaluation& eval, GOutputs& g_out) {
    const std::size_t n = buckets_.size();
    std::size_t assigned = 0;
    for (const int u : units) assigned += static_cast<std::size_t>(u);
    if (assigned != n) {
      throw std::logic_error("AllocationEvaluator: allocation != buckets");
    }

    // Per-decision delay distributions under this allocation. Edge weights
    // depend only on (bucket, decision) — all slots of one decision share a
    // byte-identical weight column, fetched through the content-keyed
    // column cache (and filled in parallel on base evaluations).
    QueryG(fractions, /*rate_factor=*/1.0, g_out);
    const std::vector<DiscreteDistribution>& delay_of_decision =
        g_out.delay_of_decision;
    for (std::size_t d = 0; d < g_out.columns.size(); ++d) {
      g_out.columns[d] = &QoeColumn(delay_of_decision[d], allow_parallel);
    }
    const std::vector<const std::vector<double>*>& qoe_col = g_out.columns;

    eval.decision_of_bucket.resize(n);
    eval.expected_qoe_of_bucket.resize(n);

    if (config_.mapping == MappingAlgorithm::kTransportation) {
      SolveTransport(units, qoe_col, counts, eval);
    } else if (config_.mapping == MappingAlgorithm::kOptimalMatching) {
      // Expanded mapping kept for cross-checks: units[d] slots per
      // decision, one column per slot.
      std::vector<int> decision_of_slot;
      decision_of_slot.reserve(n);
      for (std::size_t d = 0; d < units.size(); ++d) {
        for (int u = 0; u < units[d]; ++u) {
          decision_of_slot.push_back(static_cast<int>(d));
        }
      }
      WeightMatrix weights(n, n);
      for (std::size_t s = 0; s < n; ++s) {
        const std::vector<double>& col =
            *qoe_col[static_cast<std::size_t>(decision_of_slot[s])];
        for (std::size_t b = 0; b < n; ++b) {
          weights.At(b, s) = buckets_[b].weight * col[b];
        }
      }
      const AssignmentResult matching = SolveMaxWeightAssignment(weights);
      ++counts.matchings;
      for (std::size_t b = 0; b < n; ++b) {
        const int d = decision_of_slot[matching.column_of_row[b]];
        eval.decision_of_bucket[b] = d;
        eval.expected_qoe_of_bucket[b] =
            (*qoe_col[static_cast<std::size_t>(d)])[b];
      }
    } else {
      // Slope-based mapping: steepest-slope bucket gets the lowest-mean-
      // delay slot (§7.1). This is exactly the policy that ignores the
      // magnitude of server-side delays (§3.2).
      std::vector<int> decision_of_slot;
      decision_of_slot.reserve(n);
      for (std::size_t d = 0; d < units.size(); ++d) {
        for (int u = 0; u < units[d]; ++u) {
          decision_of_slot.push_back(static_cast<int>(d));
        }
      }
      std::vector<std::size_t> bucket_order(n);
      std::iota(bucket_order.begin(), bucket_order.end(), std::size_t{0});
      std::stable_sort(bucket_order.begin(), bucket_order.end(),
                [&](std::size_t a, std::size_t b) {
                  return qoe_.Sensitivity(buckets_[a].representative) >
                         qoe_.Sensitivity(buckets_[b].representative);
                });
      std::vector<std::size_t> slot_order(n);
      std::iota(slot_order.begin(), slot_order.end(), std::size_t{0});
      std::vector<double> slot_mean(n);
      for (std::size_t s = 0; s < n; ++s) {
        slot_mean[s] =
            delay_of_decision[static_cast<std::size_t>(decision_of_slot[s])]
                .Mean();
      }
      std::stable_sort(slot_order.begin(), slot_order.end(),
                [&](std::size_t a, std::size_t b) {
                  return slot_mean[a] < slot_mean[b];
                });
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = bucket_order[i];
        const int d = decision_of_slot[slot_order[i]];
        eval.decision_of_bucket[b] = d;
        eval.expected_qoe_of_bucket[b] =
            (*qoe_col[static_cast<std::size_t>(d)])[b];
      }
    }

    // No score here: EvaluateUncached always re-scores the final mapping at
    // the split it actually creates, so an intermediate mean would be dead
    // weight (and wrong for non-mean objectives).
  }

  // Collapsed mapping: n unit-supply buckets × D capacitated decisions,
  // O(n²·D) instead of Hungarian's O(n³) over the expanded slot matrix
  // (matching/transportation.h). Edge weight (b, d) is bucket b's weight
  // times entry b of decision d's column; the negated weights go straight
  // into this thread's scratch (the sweep may run on the pool).
  void SolveTransport(const std::vector<int>& units,
                      const std::vector<const std::vector<double>*>& qoe_col,
                      SolveCounts& counts, Evaluation& eval) {
    const std::size_t n = buckets_.size();
    ++counts.transports;
    thread_local TransportationScratch scratch;
    const std::span<double> cost = scratch.Costs(n, units.size());
    for (std::size_t d = 0; d < units.size(); ++d) {
      for (std::size_t b = 0; b < n; ++b) {
        cost[d * n + b] = -(buckets_[b].weight * (*qoe_col[d])[b]);
      }
    }
    const TransportationResult& mapping =
        scratch.Solve(units, /*maximize=*/true);
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t d = mapping.column_of_row[b];
      eval.decision_of_bucket[b] = static_cast<int>(d);
      eval.expected_qoe_of_bucket[b] = (*qoe_col[d])[b];
    }
  }

  const QoeModel& qoe_;
  const ServerDelayModel& g_;
  const Objective& objective_;
  std::span<const PolicyBucket> buckets_;
  double total_rps_;
  const PolicyConfig& config_;
  PolicyStats& stats_;
  ThreadPool* pool_;  // May be null (serial config); not owned.
  mutable std::mutex mu_;  // Guards cache_, qoe_columns_, and stats_.
  std::map<std::vector<int>, Evaluation> cache_;
  // Content-keyed expected-QoE columns by ContentHash (see QoeColumn).
  std::unordered_multimap<std::uint64_t, CachedColumn> qoe_columns_;
};

PolicyResult RunPolicy(const QoeModel& qoe, const ServerDelayModel& g,
                       const std::vector<PolicyBucket>& buckets,
                       double total_rps, const PolicyConfig& config) {
  if (total_rps <= 0.0) {
    throw std::invalid_argument("ComputePolicy: total_rps <= 0");
  }
  PolicyResult result;
  result.stats.buckets = static_cast<int>(buckets.size());

  const int num_decisions = g.NumDecisions();
  const std::unique_ptr<const Objective> objective =
      MakeObjective(config.objective);

  // Neighbor evaluations are independent given the shared (mutex-guarded)
  // cache, so the best-improvement sweep fans out across a small pool; base
  // evaluations reuse the same pool for their expected-QoE column fills.
  // A pool of 1 (the default) spawns no threads and runs serially.
  const int workers =
      std::max(1, config.parallel_workers == 0 ? ThreadPool::DefaultWorkers()
                                               : config.parallel_workers);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  AllocationEvaluator evaluator(qoe, g, *objective, buckets, total_rps,
                                config, result.stats, pool.get());

  // Best-improvement hill climbing over single-unit transfers.
  auto climb = [&](std::vector<int> start) {
    double qoe_now = evaluator.EvaluateBase(start).objective_value;
    for (int step = 0; step < config.max_hill_climb_steps; ++step) {
      // Deterministic neighbor enumeration: single-unit transfers in
      // (from, to) lexicographic order.
      std::vector<std::pair<std::size_t, std::size_t>> moves;
      for (std::size_t from = 0; from < start.size(); ++from) {
        if (start[from] == 0) continue;
        for (std::size_t to = 0; to < start.size(); ++to) {
          if (to != from) moves.emplace_back(from, to);
        }
      }
      std::vector<double> neighbor_qoe(moves.size());
      const auto evaluate_move = [&](std::size_t i) {
        std::vector<int> neighbor = start;
        --neighbor[moves[i].first];
        ++neighbor[moves[i].second];
        neighbor_qoe[i] = evaluator.Evaluate(neighbor).objective_value;
      };
      if (pool != nullptr) {
        pool->ParallelFor(moves.size(), evaluate_move);
        result.stats.parallel_evals += static_cast<int>(moves.size());
      } else {
        for (std::size_t i = 0; i < moves.size(); ++i) evaluate_move(i);
      }
      // Merge in neighbor-index order with a strict improvement test:
      // byte-for-byte the pick the serial sweep makes, independent of the
      // order the pool executed the evaluations in.
      std::size_t best_move = moves.size();
      double best_neighbor_qoe = qoe_now;
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (neighbor_qoe[i] > best_neighbor_qoe) {
          best_neighbor_qoe = neighbor_qoe[i];
          best_move = i;
        }
      }
      if (best_move == moves.size()) break;  // Local optimum.
      --start[moves[best_move].first];
      ++start[moves[best_move].second];
      qoe_now = best_neighbor_qoe;
      ++result.stats.hill_climb_steps;
    }
    return std::pair<std::vector<int>, double>(std::move(start), qoe_now);
  };

  // Algorithm 1 starts from the degenerate allocation (n, 0, ..., 0); we
  // additionally climb from the balanced allocation, because with unequal
  // bucket weights the landscape has sacrificial local optima the
  // degenerate start can get trapped in. Keep the better local optimum.
  std::vector<int> degenerate(static_cast<std::size_t>(num_decisions), 0);
  degenerate[0] = static_cast<int>(buckets.size());
  std::vector<int> balanced(static_cast<std::size_t>(num_decisions), 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    ++balanced[b % static_cast<std::size_t>(num_decisions)];
  }
  auto [best_a, qoe_a] = climb(std::move(degenerate));
  auto [best_b, qoe_b] = climb(std::move(balanced));
  const bool a_wins = qoe_a >= qoe_b;
  std::vector<int> best = a_wins ? std::move(best_a) : std::move(best_b);
  const double best_qoe = a_wins ? qoe_a : qoe_b;

  // Materialize the decision table from the winning allocation. The
  // evaluation cache must hand back exactly the score the climb ranked
  // allocations by — any drift would mean the installed table and the
  // penalty-adjusted objective describe different plans.
  const Evaluation& eval = evaluator.Evaluate(best);
  if (eval.objective_value != best_qoe) {
    throw std::logic_error(
        "RunPolicy: materialized table diverged from the winning climb "
        "score");
  }
  DecisionTable& table = result.table;
  table.rows.reserve(buckets.size());
  table.load_fractions.assign(static_cast<std::size_t>(num_decisions), 0.0);
  table.objective_value = eval.objective_value;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    DecisionTableRow row;
    row.lo = buckets[b].lo;
    row.hi = buckets[b].hi;
    row.decision = eval.decision_of_bucket[b];
    row.expected_qoe = eval.expected_qoe_of_bucket[b];
    row.weight = buckets[b].weight;
    table.rows.push_back(row);
    table.load_fractions[static_cast<std::size_t>(row.decision)] +=
        row.weight;
  }
  return result;
}

}  // namespace
}  // namespace e2e

namespace e2e {

int DecisionTable::Lookup(DelayMs external_delay_ms) const {
  return LookupRow(external_delay_ms).decision;
}

const DecisionTableRow& DecisionTable::LookupRow(
    DelayMs external_delay_ms) const {
  if (rows.empty()) {
    throw std::logic_error("DecisionTable::Lookup: empty table");
  }
  std::size_t lo = 0;
  std::size_t hi = rows.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (external_delay_ms >= rows[mid].lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return rows[lo];
}

PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           std::span<const DelayMs> external_delays,
                           double total_rps, const PolicyConfig& config) {
  // Thin wrapper: batch-load into a Bucketizer and delegate, so both entry
  // points share one solver path.
  if (external_delays.empty()) {
    throw std::invalid_argument("ComputePolicy: no external delays");
  }
  return ComputePolicy(qoe, g,
                       Bucketizer(external_delays, config.target_buckets,
                                  config.max_bucket_span_ms),
                       total_rps, config);
}

PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           const Bucketizer& external_delays, double total_rps,
                           const PolicyConfig& config) {
  if (external_delays.empty()) {
    throw std::invalid_argument("ComputePolicy: no external delays");
  }
  return RunPolicy(qoe, g, BuildBuckets(external_delays, config), total_rps,
                   config);
}

PolicyResult ComputeSlopePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                                std::span<const DelayMs> external_delays,
                                double total_rps, PolicyConfig config) {
  config.mapping = MappingAlgorithm::kSlopeBased;
  return ComputePolicy(qoe, g, external_delays, total_rps, config);
}

}  // namespace e2e
