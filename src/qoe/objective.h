// Pluggable policy objectives (docs/OBJECTIVES.md).
//
// The controller's top-level search originally maximized one hard-coded
// quantity: the weighted mean expected QoE of the candidate table. Hoßfeld
// et al. ("From QoS Distributions to QoE Distributions", PAPERS.md) argue
// that systems should optimize the QoE *distribution* — tail percentiles,
// variance, fairness across users — not just its mean. This header is the
// seam that makes the optimization target pluggable: the allocation
// evaluator hands every candidate mapping to an `Objective` as a list of
// per-bucket QoE distributions, and the hill climb ranks allocations by
// whatever scalar the objective returns.
//
// Layering: the bottom-level mapping subproblem stays a maximum-weight
// transportation solve over expected per-bucket QoE — a linear objective is
// what makes that solve exact and fast (docs/PERFORMANCE.md). The pluggable
// objective scores the *candidate tables* that solve produces, steering the
// top-level allocation search. Every built-in is a pure, order-fixed
// function of its inputs, so tables stay byte-identical under replay at any
// worker or shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace e2e {

/// Built-in objective families.
enum class ObjectiveKind : std::uint8_t {
  /// Weighted mean expected QoE — the paper's objective and the default.
  /// Scores bit-identically to the pre-objective evaluator, so default
  /// configs reproduce historical tables byte-for-byte.
  kMeanQoe = 0,
  /// A low percentile of the pooled QoE distribution (p5/p10 tail rescue),
  /// with a small mean tie-break so flat-percentile plateaus still climb.
  kTailPercentile = 1,
  /// mean − λ·stdev of the pooled QoE distribution (variance aversion).
  kMeanMinusStdev = 2,
  /// Mean QoE docked when Jain fairness across buckets drops below a floor.
  kFairnessConstrainedMean = 3,
};

/// Human-readable kind name ("mean", "p<percentile>", ...).
std::string ToString(ObjectiveKind kind);

/// Objective selection plus per-family parameters. Carried inside
/// PolicyConfig, so it threads through ControllerConfig/ExperimentConfig to
/// every runner and the sharded replayer unchanged.
struct ObjectiveConfig {
  ObjectiveKind kind = ObjectiveKind::kMeanQoe;

  /// kTailPercentile: the percentile to maximize, in (0, 100).
  double percentile = 10.0;
  /// kTailPercentile: weight of the mean tie-break added to the percentile
  /// score. Must be small enough not to dominate genuine tail differences.
  double tail_mean_weight = 1e-3;

  /// kMeanMinusStdev: the λ in mean − λ·stdev.
  double stdev_lambda = 1.0;

  /// kFairnessConstrainedMean: required Jain index across buckets; scores
  /// are docked `fairness_penalty * (min_fairness - jain)` when below it.
  double min_fairness = 0.95;
  double fairness_penalty = 1.0;
};

/// One bucket of a candidate table as the objective sees it: the bucket's
/// population weight, its expected QoE under the planned decision, and —
/// only when the objective declared NeedsDistribution() — the full discrete
/// QoE distribution of the bucket (Q(representative + s) over the decision's
/// server-delay support s).
struct QoeBucketView {
  double weight = 0.0;
  double expected_qoe = 0.0;
  /// Parallel spans; empty unless the objective needs the distribution.
  std::span<const double> qoe_values;
  std::span<const double> probabilities;
};

/// The objective contract. Scores must be pure functions of the bucket
/// views (no state that reaches the score, no clocks, no RNG) and must
/// accumulate in bucket-index order: determinism of the whole policy stack
/// reduces to the determinism of Score (docs/OBJECTIVES.md has the full
/// contract). An objective may keep working memory that Score reuses from
/// one call to the next, so one objective scores on one thread at a time;
/// RunPolicy builds one per solve.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Name for reports and figures ("mean", "p10", ...).
  virtual std::string Name() const = 0;

  /// When false the evaluator skips materializing per-bucket QoE value
  /// vectors and passes empty spans — the mean fast path, which keeps
  /// distribution support from costing anything on default configs.
  virtual bool NeedsDistribution() const { return true; }

  /// Scalar score of a candidate table (higher is better). `buckets` is
  /// ordered by bucket index; weights sum to ~1.
  virtual double Score(std::span<const QoeBucketView> buckets) const = 0;
};

/// Builds the built-in objective described by `config`. Throws
/// std::invalid_argument naming the parameter when one the kind uses is out
/// of range, NaN, or (for a weight, λ or penalty) infinite.
std::unique_ptr<const Objective> MakeObjective(const ObjectiveConfig& config);

}  // namespace e2e
