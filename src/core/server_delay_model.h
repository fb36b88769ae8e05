// Server-side delay models: G(z, Z) in the paper's formulation (§4.1).
//
// Given a decision (replica index / priority level) and the full allocation
// of load across decisions, the model returns the *distribution* of
// server-side delay a request assigned to that decision will experience
// (§4.3 uses the distribution, not a point estimate, when weighting edges).
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/distribution.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e {

/// Abstract G(.): per-decision server-side delay distribution as a function
/// of how the offered load is split across decisions. Implementations are
/// pure functions of their arguments: the policy reuses an answer instead of
/// asking again for the same arguments.
class ServerDelayModel {
 public:
  virtual ~ServerDelayModel() = default;

  /// Number of possible decisions (replicas or priority levels).
  virtual int NumDecisions() const = 0;

  /// Delay distribution for a request assigned to `decision` when the
  /// offered load splits as `load_fractions` (one entry per decision,
  /// summing to ~1) at `total_rps` requests/second overall.
  virtual DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const = 0;

  /// Model name for reports.
  virtual std::string Name() const = 0;

  /// True when a request routed to `decision` under this split faces a
  /// server with no steady state (sustained overload). The policy uses this
  /// to avoid *electively* overloading a decision: predicted QoE alone
  /// cannot see the backlog hysteresis overload causes across windows.
  virtual bool IsOverloaded(int decision,
                            std::span<const double> load_fractions,
                            double total_rps) const {
    (void)decision;
    (void)load_fractions;
    (void)total_rps;
    return false;
  }

  /// True only when every decision gets one and the same delay
  /// distribution, and none is overloaded, under every split that offers no
  /// decision more than `decision_rps` (its load fraction times the total
  /// rate). No plan can then change any request's QoE, so the sharded
  /// replay skips the solve of such a group (docs/SCALE.md). `true` must be
  /// exact; `false` is always safe, and is the default, so a model or
  /// decorator that does not answer keeps every caller on the solve path.
  virtual bool FlatUpTo(double decision_rps) const {
    (void)decision_rps;
    return false;
  }
};

/// Non-owning decorator that shifts each decision's delay distribution by a
/// per-decision penalty. The placement co-design (docs/RESILIENCE.md) uses
/// it inside Controller::Tick: a replica whose breaker is rejecting and
/// whose predicted cloning gain is zero is made to look `penalty_ms` slower
/// to the policy solve, so the transportation step shifts weight away until
/// the replica recovers. The base model must outlive the decorator; the
/// penalty vector must have exactly NumDecisions() entries.
class PenalizedServerModel final : public ServerDelayModel {
 public:
  PenalizedServerModel(const ServerDelayModel& base,
                       std::span<const double> penalties_ms)
      : base_(base), penalties_ms_(penalties_ms.begin(), penalties_ms.end()) {
    if (static_cast<int>(penalties_ms_.size()) != base.NumDecisions()) {
      throw std::invalid_argument(
          "PenalizedServerModel: penalty count != decisions");
    }
  }

  int NumDecisions() const override { return base_.NumDecisions(); }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override {
    const DiscreteDistribution d =
        base_.DelayDistribution(decision, load_fractions, total_rps);
    const double penalty = penalties_ms_[static_cast<std::size_t>(decision)];
    return penalty == 0.0 ? d : d.ShiftedBy(penalty);
  }
  std::string Name() const override { return base_.Name() + "+penalized"; }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override {
    return base_.IsOverloaded(decision, load_fractions, total_rps);
  }

 private:
  const ServerDelayModel& base_;
  std::vector<double> penalties_ms_;
};

/// A load→delay profile for one server, measured offline (§6: "we measure
/// the processing delays of one server under different input loads:
/// {5%, 10%, ..., 100%} of the maximum number of requests per second").
struct LoadProfile {
  double max_rps = 0.0;                       ///< Load of the last level.
  std::vector<double> level_rps;              ///< Ascending profiled loads.
  std::vector<DiscreteDistribution> delays;   ///< One distribution per level.

  /// Largest profiled load at which delays were *stationary* (no steady
  /// growth through the measurement window). Levels beyond this have no
  /// steady state; the profiler detects them by comparing first- and
  /// second-half means. Infinity when every level was stable.
  double max_stable_rps = std::numeric_limits<double>::infinity();

  /// Sustained-overload model: offered load beyond the stable region builds
  /// backlog for the rest of the update horizon, adding
  /// (rps/stable - 1) * overload_horizon_ms of queueing delay. Linear
  /// extrapolation would badly underestimate this.
  double overload_horizon_ms = 120000.0;
};

/// Interpolates a profile at an arbitrary offered load. Loads beyond the
/// profiled maximum add horizon-bounded backlog delay (see
/// LoadProfile::overload_horizon_ms). Distributions interpolate pointwise
/// across equal-size quantile supports.
DiscreteDistribution InterpolateProfile(const LoadProfile& profile,
                                        double rps);

/// G(.) for the replicated database: each replica follows the same offline
/// profile; a replica's delay depends only on the RPS routed to it.
class ProfiledReplicaModel final : public ServerDelayModel {
 public:
  /// `replicas` identical replicas sharing one `profile`.
  ProfiledReplicaModel(int replicas, LoadProfile profile);

  int NumDecisions() const override { return replicas_; }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override;
  std::string Name() const override { return "profiled-replica"; }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override;
  /// Exactly `decision_rps <= min(first level, max_stable_rps)`: there every
  /// replica gets the first level's distribution and none is overloaded.
  bool FlatUpTo(double decision_rps) const override;

  const LoadProfile& profile() const { return profile_; }

 private:
  int replicas_;
  LoadProfile profile_;
};

/// G(.) for the priority-queue broker, from non-preemptive priority
/// queueing theory: a message at priority p waits behind the residual
/// service plus the backlogs of levels <= p, i.e.
///   W_p = W0 / ((1 - sigma_{p-1}) (1 - sigma_p)),  sigma_p = sum_{k<=p} rho_k
/// with deterministic service (one pull per consume interval). Overload is
/// clamped to a horizon-bounded backlog delay.
class PriorityQueueModel final : public ServerDelayModel {
 public:
  /// `levels` priority levels; consumers drain one message every
  /// `consume_interval_ms` across `num_consumers` consumers.
  PriorityQueueModel(int levels, double consume_interval_ms, int num_consumers,
                     double handling_cost_ms = 0.5,
                     double overload_horizon_ms = 10000.0);

  int NumDecisions() const override { return levels_; }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override;
  std::string Name() const override { return "priority-queue"; }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override;

  /// Mean waiting time at a priority level (exposed for tests).
  double MeanWaitMs(int decision, std::span<const double> load_fractions,
                    double total_rps) const;

 private:
  // Support size of the discretized waiting-time distribution.
  static constexpr int kDelayPoints = 12;

  int levels_;
  double consume_interval_ms_;
  int num_consumers_;
  double handling_cost_ms_;
  double overload_horizon_ms_;
  // log(1 - q_i) at the mid-quantiles q_i = (i + 0.5) / kDelayPoints: the
  // unit exponential's quantiles are their negations. Fixed per model, so
  // computed once here rather than on every DelayDistribution call.
  std::array<double, kDelayPoints> log_survival_{};
};

}  // namespace e2e
