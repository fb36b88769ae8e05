#include "core/policy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "matching/assignment.h"
#include "matching/transportation.h"
#include "stats/bucketizer.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

// The fewest mapping solves one climb round hands to a ThreadPool
// (PolicyPoolPays); a smaller round solves inline.
constexpr int kMinPooledSolves = 8;

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

// 64-bit hash of an allocation vector: the key of the evaluation cache.
std::uint64_t UnitsHash(std::span<const int> units) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ units.size();
  for (const int u : units) {
    h ^= static_cast<std::uint32_t>(u);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

// An open-addressing index from 64-bit content hashes to entries 0, 1, ...
// that the owner stores elsewhere, in insertion order. A probe walks the
// hash's cluster and asks the owner whether each entry under that hash
// matches, so a collision costs a content compare, never a wrong entry.
// Entries are never removed; Clear() keeps every buffer's storage.
class HashIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void Clear() {
    hashes_.clear();
    slots_.assign(kInitialSlots, kNone);
  }

  std::size_t size() const { return hashes_.size(); }

  // The entry under `hash` for which `matches(entry)` holds, or kNone.
  template <typename Matches>
  std::uint32_t Find(std::uint64_t hash, Matches&& matches) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint32_t entry = slots_[i];
      if (entry == kNone) return kNone;
      if (hashes_[entry] == hash && matches(entry)) return entry;
    }
  }

  // Indexes entry size() under `hash`.
  void Insert(std::uint64_t hash) {
    if (hashes_.size() >= std::size_t{kNone}) {
      throw std::length_error("HashIndex: too many entries");
    }
    hashes_.push_back(hash);
    if (2 * hashes_.size() > slots_.size()) {
      // Keep the load at most 1/2: re-place every entry in a table twice
      // the size.
      slots_.assign(2 * slots_.size(), kNone);
      for (std::size_t e = 0; e < hashes_.size(); ++e) Place(e);
    } else {
      Place(hashes_.size() - 1);
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // A power of two.

  void Place(std::size_t entry) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hashes_[entry] & mask;
    while (slots_[i] != kNone) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(entry);
  }

  std::vector<std::uint64_t> hashes_;  // By entry.
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(
      kInitialSlots, kNone);  // Entry or kNone; size a power of two.
};

// One evaluated allocation: its objective value and its bucket→decision
// mapping with each bucket's planned expected QoE. The spans alias the
// evaluator's arena and stay valid until its next EvaluateAll or Reset.
struct Evaluation {
  double objective_value = 0.0;
  std::span<const int> decision_of_bucket;
  std::span<const double> expected_qoe_of_bucket;
};

// Evaluates allocations for one policy solve at a time. Everything it keeps
// (the evaluation and QoE-column caches and the per-evaluation working
// state) lives in flat buffers that Reset() empties without freeing, so a
// thread that reuses one evaluator across solves evaluates allocations
// without heap allocation once the buffers have grown to its largest solve.
//
// The allocations one EvaluateAll call misses are evaluated together, in
// lockstep rounds: first every one's mapping solve at its unit split, then
// each refine round's solves. Everything that calls a model, reads a cache
// or writes shared state runs on the calling thread, allocation by
// allocation in batch order. Only a round's mapping solves (RunRound) may
// run on the pool: each is a pure function of its allocation and its
// columns, and writes only its own mapping. With a pool a round is a
// pipeline: each solve starts on a worker as soon as the calling thread has
// fetched its evaluation's columns, while that thread fetches the next
// evaluation's.
class AllocationEvaluator {
 public:
  // Binds the evaluator to one solve and empties it. The arguments must
  // outlive the solve.
  void Reset(const QoeModel& qoe, const ServerDelayModel& g,
             const Objective& objective, std::span<const PolicyBucket> buckets,
             double total_rps, const PolicyConfig& config, PolicyStats& stats,
             ThreadPool* pool) {
    qoe_ = &qoe;
    g_ = &g;
    objective_ = &objective;
    buckets_ = buckets;
    total_rps_ = total_rps;
    config_ = &config;
    stats_ = &stats;
    pool_ = PolicyPoolPays(config, g.NumDecisions()) ? pool : nullptr;
    decisions_ = static_cast<std::size_t>(g.NumDecisions());
    evaluation_index_.Clear();
    entry_units_.clear();
    entry_objective_.clear();
    entry_decision_.clear();
    entry_expected_.clear();
    column_index_.Clear();
    column_content_.clear();
    column_content_end_.clear();
    column_qoe_.clear();
  }

  // Evaluates the allocations laid out back to back in `batch`, D units
  // each (buckets per decision, summing to buckets_.size()), caching by
  // allocation vector, and returns each one's cache entry in batch order.
  // Only a cache miss counts toward the stats. The span is valid until the
  // next call.
  std::span<const std::uint32_t> EvaluateAll(std::span<const int> batch) {
    const std::size_t first_new = evaluation_index_.size();
    batch_entries_.clear();
    for (std::size_t at = 0; at < batch.size(); at += decisions_) {
      const std::span<const int> units = batch.subspan(at, decisions_);
      const std::uint64_t hash = UnitsHash(units);
      std::uint32_t entry =
          evaluation_index_.Find(hash, [&](std::uint32_t e) {
            return std::equal(units.begin(), units.end(),
                              UnitsOf(e).begin());
          });
      if (entry == HashIndex::kNone) {
        ++stats_->allocations_evaluated;
        entry = static_cast<std::uint32_t>(evaluation_index_.size());
        entry_units_.insert(entry_units_.end(), units.begin(), units.end());
        evaluation_index_.Insert(hash);
      }
      batch_entries_.push_back(entry);
    }
    EvaluateNew(first_new);
    return batch_entries_;
  }

  // Evaluates one allocation.
  Evaluation Evaluate(std::span<const int> units) {
    return EntryOf(EvaluateAll(units).front());
  }

  Evaluation EntryOf(std::size_t entry) const {
    const std::size_t n = buckets_.size();
    return Evaluation{
        entry_objective_[entry],
        std::span<const int>(entry_decision_).subspan(entry * n, n),
        std::span<const double>(entry_expected_).subspan(entry * n, n)};
  }

 private:
  // What G says about one split at one rate: each decision's delay
  // distribution and its expected-QoE column (an entry of the column cache;
  // kNone until fetched).
  struct GOutputs {
    std::vector<DiscreteDistribution> delay_of_decision;
    std::vector<std::uint32_t> columns;
  };

  // One allocation in evaluation: its cache entry, where its mapping goes,
  // and the state its refine loop carries from round to round. The vectors
  // keep their storage from one batch to the next.
  struct Pending {
    std::size_t entry = 0;
    std::span<int> decision_of_bucket;  // The entry's n arena slots.
    std::span<double> expected_qoe_of_bucket;
    std::vector<double> fractions;  // The split the last solve ran at.
    std::vector<double> actual;     // The split its mapping creates.
    GOutputs at_split;              // G's outputs at `fractions`.
    std::vector<std::uint32_t> solved_columns;  // The columns of the solve
                                                // before the current one.
    bool refining = false;  // Not yet converged, and rounds remain.
    bool solve = false;     // This round's mapping problem is a new one.
  };

  std::span<const int> UnitsOf(std::size_t entry) const {
    return std::span<const int>(entry_units_)
        .subspan(entry * decisions_, decisions_);
  }

  // Column `entry` of the column cache: n per-bucket expected QoEs, read
  // through column_base_, so a solve may call it while this round's
  // prepares insert columns. Valid until the round ends.
  std::span<const double> Column(std::uint32_t entry) const {
    const std::size_t n = buckets_.size();
    return std::span<const double>(column_base_ + entry * n, n);
  }

  // Evaluates the cache entries from `first` on, which EvaluateAll appended
  // with their units only. Each evaluation is a small fixed point between
  // the two subproblems ("E2E solves the two subproblems iteratively",
  // §4.2): the mapping is solved against G at some load split, and the
  // split implied by the mapping (sum of the *population weights* of the
  // buckets routed to each decision — NOT the unit counts, which diverge
  // once the max-span rule splits buckets unevenly) is fed back into G
  // until it stops moving. The reported QoE is therefore consistent with
  // the load the installed table would actually create. The evaluations
  // advance together, one round at a time, so each round's solves can run
  // at once.
  void EvaluateNew(std::size_t first) {
    const std::size_t end = evaluation_index_.size();
    const std::size_t count = end - first;
    if (count == 0) return;
    const std::size_t n = buckets_.size();
    entry_decision_.resize(end * n);
    entry_expected_.resize(end * n);
    entry_objective_.resize(end);
    if (pending_.size() < count) pending_.resize(count);

    // Round 0: solve each at its unit share (exact when buckets are
    // equal-population), with no G outputs from an earlier solve.
    const double total_units = static_cast<double>(n);
    round_.clear();
    for (std::size_t k = 0; k < count; ++k) {
      Pending& p = pending_[k];
      p.entry = first + k;
      p.decision_of_bucket =
          std::span<int>(entry_decision_).subspan(p.entry * n, n);
      p.expected_qoe_of_bucket =
          std::span<double>(entry_expected_).subspan(p.entry * n, n);
      const std::span<const int> units = UnitsOf(p.entry);
      std::size_t assigned = 0;
      for (const int u : units) assigned += static_cast<std::size_t>(u);
      if (assigned != n) {
        throw std::logic_error("AllocationEvaluator: allocation != buckets");
      }
      p.fractions.resize(decisions_);
      for (std::size_t d = 0; d < decisions_; ++d) {
        p.fractions[d] = static_cast<double>(units[d]) / total_units;
      }
      p.refining = true;
      p.at_split.columns.clear();
      round_.push_back(k);
    }
    RunRound();

    // Refine rounds: re-solve each mapping at the split the last one
    // created until that split stops moving.
    const int max_rounds = config_->refine_fractions ? 3 : 0;
    for (int round = 0; round < max_rounds; ++round) {
      round_.clear();
      for (std::size_t k = 0; k < count; ++k) {
        Pending& p = pending_[k];
        if (!p.refining) continue;
        double moved = 0.0;
        for (std::size_t d = 0; d < decisions_; ++d) {
          moved += std::abs(p.actual[d] - p.fractions[d]);
        }
        if (moved < 0.02) {  // Converged.
          p.refining = false;
          continue;
        }
        // Where G's columns do not move, the mapping stands, the round's
        // SplitOf reproduces `fractions` bitwise, and the next round stops.
        p.fractions.swap(p.actual);
        round_.push_back(k);
      }
      if (round_.empty()) break;
      RunRound();
    }

    for (std::size_t k = 0; k < count; ++k) Score(pending_[k]);
  }

  // Asks G for the problem of `p`'s next mapping solve, at p.fractions, and
  // fetches every column; p.solve says whether those columns differ from
  // the solve before it, and a solve to run is counted. On a refine round
  // p.at_split still holds the columns of the solve just run (the first
  // round finds none), and when G's columns at the new split are those same
  // columns the mapping problem is bitwise that solve's, so the mapping
  // stands. Compares every column, not only those the allocation uses, so
  // the problem is the last one whatever a mapping algorithm reads.
  void PrepareSolve(Pending& p) {
    p.solved_columns.assign(p.at_split.columns.begin(),
                            p.at_split.columns.end());
    QueryG(p.fractions, p.at_split);
    for (std::size_t d = 0; d < p.at_split.columns.size(); ++d) {
      p.at_split.columns[d] = QoeColumn(p.at_split.delay_of_decision[d]);
    }
    p.solve = p.at_split.columns != p.solved_columns;
    if (!p.solve) return;
    if (config_->mapping == MappingAlgorithm::kTransportation) {
      ++stats_->transport_solves;
    } else if (config_->mapping == MappingAlgorithm::kOptimalMatching) {
      ++stats_->matchings_solved;
    }
  }

  // Prepares and runs the mapping solves of the pending evaluations listed
  // in round_, then records the split each mapping creates. A round big
  // enough to pay for the pool's hand-off is a pipeline: this thread
  // prepares the evaluations in order, and each one's solve starts on a
  // worker as soon as its columns are in. Otherwise every solve runs here,
  // after the last prepare.
  void RunRound() {
    ReserveColumns(round_.size());
    if (pool_ != nullptr &&
        round_.size() >= static_cast<std::size_t>(kMinPooledSolves)) {
      // Each closure captures only `this`, so std::function stores it
      // without a heap allocation.
      pool_->ParallelFor(
          round_.size(),
          [this](std::size_t i) { PrepareSolve(pending_[round_[i]]); },
          [this](std::size_t i) {
            const Pending& p = pending_[round_[i]];
            if (p.solve) SolveMapping(p);
          });
    } else {
      for (const std::size_t k : round_) PrepareSolve(pending_[k]);
      for (const std::size_t k : round_) {
        if (pending_[k].solve) SolveMapping(pending_[k]);
      }
    }
    for (const std::size_t k : round_) {
      Pending& p = pending_[k];
      SplitOf(p.decision_of_bucket, p.actual);
    }
  }

  // Makes room for every column `evaluations` prepares can insert (at most
  // one per decision each), so no insert during the round moves the
  // columns a running solve reads, and points column_base_ at them. Grows
  // geometrically, so a warm evaluator reserves nothing.
  void ReserveColumns(std::size_t evaluations) {
    const std::size_t need =
        column_qoe_.size() + evaluations * decisions_ * buckets_.size();
    if (column_qoe_.capacity() < need) {
      column_qoe_.reserve(std::max(need, 2 * column_qoe_.capacity()));
    }
    column_base_ = column_qoe_.data();
  }

  // Scores `p`'s final mapping at the split it actually creates, docked by
  // the elective-overload safety margin (see PolicyConfig), into its cache
  // entry. Usually the refine loop stops with that split bitwise equal to
  // the one the last solve ran at (moved == 0). G is a pure function of its
  // arguments, so the solve's distributions and columns are then exactly
  // what scoring would fetch again; only a split that moved asks G anew.
  void Score(Pending& p) {
    if (!SameBytes(p.actual, p.fractions)) QueryG(p.actual, p.at_split);
    double objective_value = ScoreMapping(p.decision_of_bucket, p.at_split);
    if (config_->instability_penalty > 0.0) {
      // IsOverloaded depends only on (decision, fractions, rate), so ask
      // once per decision instead of once per bucket; the per-bucket mass
      // accumulation below keeps its historical order.
      overloaded_.assign(decisions_, 0);
      for (std::size_t d = 0; d < decisions_; ++d) {
        overloaded_[d] =
            g_->IsOverloaded(static_cast<int>(d), p.actual, total_rps_) ? 1
                                                                        : 0;
      }
      double overloaded_mass = 0.0;
      for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (overloaded_[static_cast<std::size_t>(p.decision_of_bucket[b])] !=
            0) {
          overloaded_mass += buckets_[b].weight;
        }
      }
      objective_value -=
          config_->instability_penalty * qoe_->Qoe(0.0) * overloaded_mass;
    }
    entry_objective_[p.entry] = objective_value;
  }

  // The split a mapping creates: each decision's summed bucket weight.
  void SplitOf(std::span<const int> decision_of_bucket,
               std::vector<double>& split) const {
    split.assign(decisions_, 0.0);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      split[static_cast<std::size_t>(decision_of_bucket[b])] +=
          buckets_[b].weight;
    }
  }

  // Asks G for every decision's delay distribution when the load splits as
  // `fractions` at the planned rate, into `out`. Columns start unfetched.
  void QueryG(std::span<const double> fractions, GOutputs& out) const {
    out.delay_of_decision.clear();
    for (std::size_t d = 0; d < decisions_; ++d) {
      out.delay_of_decision.push_back(
          g_->DelayDistribution(static_cast<int>(d), fractions, total_rps_));
    }
    out.columns.assign(decisions_, HashIndex::kNone);
  }

  // Per-bucket expected-QoE column for one slot delay distribution:
  // column[b] = ExpectedQoe(qoe, buckets[b].representative, f). Cached by
  // distribution *content*: the hill climb revisits the same per-decision
  // distributions across evaluations whenever load fractions land on the
  // same grid points, and each column is a pure function of that content.
  // A probe hashes the content's bits and compares the full content of
  // each entry under that hash; only an insert copies the content. Returns
  // the column's entry, so two entries are equal exactly when their
  // contents are.
  std::uint32_t QoeColumn(const DiscreteDistribution& f) {
    const auto values = f.values();
    const auto probs = f.probabilities();
    const std::uint64_t hash = ContentHash(values, probs);
    const std::uint32_t hit =
        column_index_.Find(hash, [&](std::uint32_t entry) {
          const std::size_t begin =
              entry == 0 ? 0 : column_content_end_[entry - 1];
          const std::span<const double> content =
              std::span<const double>(column_content_)
                  .subspan(begin, column_content_end_[entry] - begin);
          return content.size() == values.size() + probs.size() &&
                 SameBytes(content.first(values.size()), values) &&
                 SameBytes(content.subspan(values.size()), probs);
        });
    if (hit != HashIndex::kNone) return hit;
    const auto entry = static_cast<std::uint32_t>(column_index_.size());
    column_content_.insert(column_content_.end(), values.begin(),
                           values.end());
    column_content_.insert(column_content_.end(), probs.begin(), probs.end());
    column_content_end_.push_back(column_content_.size());
    const std::size_t at = column_qoe_.size();
    column_qoe_.resize(at + buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      column_qoe_[at + b] = ExpectedQoe(*qoe_, buckets_[b].representative, f);
    }
    column_index_.Insert(hash);
    return entry;
  }

  // Objective score of a fixed mapping under G's outputs `at_split`. Builds
  // one QoeBucketView per bucket, in bucket-index order; per-bucket QoE
  // distributions (the view's value/probability spans) are only
  // materialized when the objective asks for them, and for the mean fast
  // path the expected-QoE accumulation is byte-for-byte the historical
  // ExpectedQoe loop (shared with the mapping solves through the column
  // cache). Columns `at_split` lacks are fetched lazily, so decisions no
  // bucket routed to cost nothing.
  double ScoreMapping(std::span<const int> decision_of_bucket,
                      GOutputs& at_split) {
    const std::size_t n = buckets_.size();
    const bool need_distribution = objective_->NeedsDistribution();
    views_.assign(n, QoeBucketView{});
    // The per-bucket Q(rep + s) values the views alias, `stride` per
    // bucket; sized before any view takes a span into it.
    std::size_t stride = 0;
    if (need_distribution) {
      for (const DiscreteDistribution& f : at_split.delay_of_decision) {
        stride = std::max(stride, f.values().size());
      }
      qoe_values_.resize(n * stride);
    }
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t d = static_cast<std::size_t>(decision_of_bucket[b]);
      const DiscreteDistribution& f = at_split.delay_of_decision[d];
      QoeBucketView& view = views_[b];
      view.weight = buckets_[b].weight;
      if (need_distribution) {
        const auto values = f.values();
        const auto probs = f.probabilities();
        const std::span<double> qv =
            std::span<double>(qoe_values_).subspan(b * stride, values.size());
        // Same accumulation order and arithmetic as ExpectedQoe — qv[i]
        // stores the exact double the historical loop multiplied — so the
        // expected value is bitwise identical on both paths.
        double expected = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
          qv[i] = qoe_->Qoe(buckets_[b].representative + values[i]);
          expected += qv[i] * probs[i];
        }
        view.expected_qoe = expected;
        view.qoe_values = qv;
        view.probabilities = probs;
      } else {
        if (at_split.columns[d] == HashIndex::kNone) {
          at_split.columns[d] = QoeColumn(f);
        }
        view.expected_qoe = column_qoe_[at_split.columns[d] * n + b];
      }
    }
    return objective_->Score(views_);
  }

  // Solves `p`'s mapping against the columns PrepareSolve fetched into
  // p.at_split, writing it into p.decision_of_bucket/expected_qoe_of_bucket
  // and nothing else, so solves of one round may run concurrently, and
  // alongside later prepares. Counted by PrepareSolve. No score here: Score
  // always re-scores the final mapping at the split it actually creates, so
  // an intermediate mean would be dead weight (and wrong for non-mean
  // objectives).
  void SolveMapping(const Pending& p) const {
    const std::size_t n = buckets_.size();
    const std::span<const int> units = UnitsOf(p.entry);
    const std::vector<std::uint32_t>& qoe_col = p.at_split.columns;
    if (config_->mapping == MappingAlgorithm::kTransportation) {
      SolveTransport(units, qoe_col, p.decision_of_bucket,
                     p.expected_qoe_of_bucket);
      return;
    }
    // Expanded mapping: units[d] slots per decision.
    std::vector<int> decision_of_slot;
    decision_of_slot.reserve(n);
    for (std::size_t d = 0; d < units.size(); ++d) {
      for (int u = 0; u < units[d]; ++u) {
        decision_of_slot.push_back(static_cast<int>(d));
      }
    }
    if (config_->mapping == MappingAlgorithm::kOptimalMatching) {
      // Kept for cross-checks: one column per slot.
      WeightMatrix weights(n, n);
      for (std::size_t s = 0; s < n; ++s) {
        const std::span<const double> col =
            Column(qoe_col[static_cast<std::size_t>(decision_of_slot[s])]);
        for (std::size_t b = 0; b < n; ++b) {
          weights.At(b, s) = buckets_[b].weight * col[b];
        }
      }
      const AssignmentResult matching = SolveMaxWeightAssignment(weights);
      for (std::size_t b = 0; b < n; ++b) {
        const int d = decision_of_slot[matching.column_of_row[b]];
        p.decision_of_bucket[b] = d;
        p.expected_qoe_of_bucket[b] =
            Column(qoe_col[static_cast<std::size_t>(d)])[b];
      }
      return;
    }
    // Slope-based mapping: steepest-slope bucket gets the lowest-mean-
    // delay slot (§7.1). This is exactly the policy that ignores the
    // magnitude of server-side delays (§3.2).
    std::vector<std::size_t> bucket_order(n);
    std::iota(bucket_order.begin(), bucket_order.end(), std::size_t{0});
    std::stable_sort(bucket_order.begin(), bucket_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return qoe_->Sensitivity(buckets_[a].representative) >
                              qoe_->Sensitivity(buckets_[b].representative);
                     });
    std::vector<std::size_t> slot_order(n);
    std::iota(slot_order.begin(), slot_order.end(), std::size_t{0});
    std::vector<double> slot_mean(n);
    for (std::size_t s = 0; s < n; ++s) {
      slot_mean[s] = p.at_split
                         .delay_of_decision[static_cast<std::size_t>(
                             decision_of_slot[s])]
                         .Mean();
    }
    std::stable_sort(slot_order.begin(), slot_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return slot_mean[a] < slot_mean[b];
                     });
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = bucket_order[i];
      const int d = decision_of_slot[slot_order[i]];
      p.decision_of_bucket[b] = d;
      p.expected_qoe_of_bucket[b] =
          Column(qoe_col[static_cast<std::size_t>(d)])[b];
    }
  }

  // Collapsed mapping: n unit-supply buckets × D capacitated decisions,
  // O(n²·D) instead of Hungarian's O(n³) over the expanded slot matrix
  // (matching/transportation.h). Edge weight (b, d) is bucket b's weight
  // times entry b of decision d's column; the negated weights go straight
  // into the scratch of the thread that runs the solve.
  void SolveTransport(std::span<const int> units,
                      std::span<const std::uint32_t> columns,
                      std::span<int> decision_of_bucket,
                      std::span<double> expected_qoe_of_bucket) const {
    const std::size_t n = buckets_.size();
    thread_local TransportationScratch scratch;
    const std::span<double> cost = scratch.Costs(n, units.size());
    for (std::size_t d = 0; d < units.size(); ++d) {
      const std::span<const double> col = Column(columns[d]);
      for (std::size_t b = 0; b < n; ++b) {
        cost[d * n + b] = -(buckets_[b].weight * col[b]);
      }
    }
    const TransportationResult& mapping =
        scratch.Solve(units, /*maximize=*/true);
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t d = mapping.column_of_row[b];
      decision_of_bucket[b] = static_cast<int>(d);
      expected_qoe_of_bucket[b] = Column(columns[d])[b];
    }
  }

  // The solve this evaluator is bound to (Reset).
  const QoeModel* qoe_ = nullptr;
  const ServerDelayModel* g_ = nullptr;
  const Objective* objective_ = nullptr;
  std::span<const PolicyBucket> buckets_;
  double total_rps_ = 0.0;
  const PolicyConfig* config_ = nullptr;
  PolicyStats* stats_ = nullptr;
  ThreadPool* pool_ = nullptr;  // Null: every solve runs inline.
                                // Set only where PolicyPoolPays.
  std::size_t decisions_ = 0;   // D: units per allocation.

  // The evaluation cache. Entry e's allocation is entry_units_[e·D, +D),
  // its score entry_objective_[e], and its mapping the n entries at e·n of
  // entry_decision_ and entry_expected_.
  HashIndex evaluation_index_;
  std::vector<int> entry_units_;
  std::vector<double> entry_objective_;
  std::vector<int> entry_decision_;
  std::vector<double> entry_expected_;

  // The expected-QoE column cache (QoeColumn). Entry e's content (values ++
  // probabilities; the halves have equal length, so the concatenation is
  // unambiguous) ends at column_content_end_[e], where entry e + 1's
  // begins; its column is the n entries at e·n of column_qoe_.
  HashIndex column_index_;
  std::vector<double> column_content_;
  std::vector<std::size_t> column_content_end_;
  std::vector<double> column_qoe_;
  const double* column_base_ = nullptr;  // column_qoe_'s storage during a
                                         // round (ReserveColumns).

  // Working state, reused across batches.
  std::vector<std::uint32_t> batch_entries_;  // EvaluateAll's answer.
  std::vector<Pending> pending_;              // The batch's misses.
  std::vector<std::size_t> round_;            // This round's pending indexes.
  std::vector<char> overloaded_;              // By decision.
  std::vector<QoeBucketView> views_;          // By bucket (ScoreMapping).
  std::vector<double> qoe_values_;  // What the views' qoe_values alias.
};

// The config checks a solve makes before MakeObjective, which checks the
// objective's parameters itself.
void ValidateSolveKnobs(const PolicyConfig& config) {
  // A NaN penalty would fail the evaluator's `> 0.0` test and be dropped
  // silently; an infinite one turns a zero overloaded mass into a NaN score.
  if (!std::isfinite(config.instability_penalty) ||
      config.instability_penalty < 0.0) {
    throw std::invalid_argument(
        "ComputePolicy: instability_penalty not finite and >= 0");
  }
  if (config.parallel_workers != 1) {
    throw std::invalid_argument("ComputePolicy: parallel_workers != 1");
  }
}

PolicyResult RunPolicy(const QoeModel& qoe, const ServerDelayModel& g,
                       const std::vector<PolicyBucket>& buckets,
                       double total_rps, const PolicyConfig& config,
                       ThreadPool* pool) {
  // NaN fails every comparison, and +inf would plan every decision as
  // overloaded, so both are rejected with the non-positive rates.
  if (!std::isfinite(total_rps) || total_rps <= 0.0) {
    throw std::invalid_argument("ComputePolicy: total_rps not finite and > 0");
  }
  ValidateSolveKnobs(config);
  PolicyResult result;
  result.stats.buckets = static_cast<int>(buckets.size());

  const int num_decisions = g.NumDecisions();
  if (num_decisions < 1) {
    throw std::invalid_argument("ComputePolicy: G has no decisions");
  }
  const auto decisions = static_cast<std::size_t>(num_decisions);
  const std::unique_ptr<const Objective> objective =
      MakeObjective(config.objective);

  // This thread's evaluator: its buffers keep their storage from one solve
  // to the next, as the transportation scratch does (replay shards solve
  // concurrently, each on its own thread). A solve never starts another on
  // the same thread, so one evaluator per thread suffices.
  thread_local AllocationEvaluator evaluator;
  evaluator.Reset(qoe, g, *objective, buckets, total_rps, config,
                  result.stats, pool);

  // Best-improvement hill climbing over single-unit transfers. A step
  // evaluates all of its neighbours in one batch, laid out back to back.
  std::vector<int> neighbors;
  neighbors.reserve(decisions * (decisions - 1) * decisions);
  auto climb = [&](std::vector<int> start) {
    double qoe_now = evaluator.Evaluate(start).objective_value;
    for (int step = 0; step < config.max_hill_climb_steps; ++step) {
      // Deterministic sweep: single-unit transfers in (from, to)
      // lexicographic order with a strict improvement test, so the first of
      // equally good neighbors wins.
      neighbors.clear();
      for (std::size_t from = 0; from < decisions; ++from) {
        if (start[from] == 0) continue;
        for (std::size_t to = 0; to < decisions; ++to) {
          if (to == from) continue;
          const std::size_t at = neighbors.size();
          neighbors.insert(neighbors.end(), start.begin(), start.end());
          --neighbors[at + from];
          ++neighbors[at + to];
        }
      }
      const std::span<const std::uint32_t> entries =
          evaluator.EvaluateAll(neighbors);
      std::size_t best = entries.size();
      double best_neighbor_qoe = qoe_now;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        const double neighbor_qoe =
            evaluator.EntryOf(entries[k]).objective_value;
        if (neighbor_qoe > best_neighbor_qoe) {
          best_neighbor_qoe = neighbor_qoe;
          best = k;
        }
      }
      if (best == entries.size()) break;  // Local optimum.
      std::copy_n(neighbors.begin() + static_cast<std::ptrdiff_t>(
                                          best * decisions),
                  decisions, start.begin());
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
  const Evaluation eval = evaluator.Evaluate(best);
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

void DecisionTable::Validate() const {
  const int decisions = static_cast<int>(load_fractions.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].lo < rows[i - 1].lo) {
      throw std::invalid_argument("DecisionTable: rows not sorted by lo");
    }
    if (rows[i].decision < 0 || rows[i].decision >= decisions) {
      throw std::invalid_argument("DecisionTable: decision out of range");
    }
  }
}

PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           std::span<const DelayMs> external_delays,
                           double total_rps, const PolicyConfig& config,
                           ThreadPool* pool) {
  // Thin wrapper: batch-load into a Bucketizer and delegate, so both entry
  // points share one solver path.
  if (external_delays.empty()) {
    throw std::invalid_argument("ComputePolicy: no external delays");
  }
  return ComputePolicy(qoe, g,
                       Bucketizer(external_delays, config.target_buckets,
                                  config.max_bucket_span_ms),
                       total_rps, config, pool);
}

PolicyResult ComputePolicy(const QoeModel& qoe, const ServerDelayModel& g,
                           const Bucketizer& external_delays, double total_rps,
                           const PolicyConfig& config, ThreadPool* pool) {
  if (external_delays.empty()) {
    throw std::invalid_argument("ComputePolicy: no external delays");
  }
  return RunPolicy(qoe, g, BuildBuckets(external_delays, config), total_rps,
                   config, pool);
}

bool PolicyPoolPays(const PolicyConfig& config, int num_decisions) {
  return config.mapping != MappingAlgorithm::kSlopeBased &&
         num_decisions * (num_decisions - 1) >= kMinPooledSolves;
}

void ValidatePolicyConfig(const PolicyConfig& config) {
  ValidateSolveKnobs(config);
  // The span overload buckets with these, and so does every replay group
  // that is planned.
  if (config.target_buckets < 1) {
    throw std::invalid_argument("ComputePolicy: target_buckets < 1");
  }
  if (!(config.max_bucket_span_ms > 0.0)) {  // NaN fails too.
    throw std::invalid_argument("ComputePolicy: max_bucket_span_ms not > 0");
  }
  MakeObjective(config.objective);
}

}  // namespace e2e
