// Deterministic fault plans (Fig. 18, Fig. 20; DESIGN.md, docs/FAULTS.md).
//
// A FaultPlan is a compiled list of faults to inject into a testbed run:
// controller crashes, broker message drops/delays, database replica
// slowdowns/partitions, and estimator skew. Plans parse from a compact text
// spec so benches and tests can describe whole failure scenarios in one
// string, e.g.:
//
//   crash ctrl t=60s for=30s; drop broker p=0.02 seed=7; delay db +15ms t=[120s,180s]
//
// Everything is driven by the virtual clock (src/sim/event_loop.h) and
// explicit seeds, so a plan's effects are bit-reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace e2e::fault {

/// The kinds of faults a plan can inject.
enum class FaultKind : std::uint8_t {
  kCrashController,   ///< Fail the primary; backup elected after the window.
  kDropMessages,      ///< Drop published broker messages with probability p.
  kDelayMessages,     ///< Add a fixed delay to every broker delivery.
  kDelayReplica,      ///< Add a fixed service delay to db replica(s).
  kPartitionReplica,  ///< Make db replica(s) unreachable (reads fail over).
  kSkewEstimator,     ///< Add relative error to external-delay estimates.
  kOverloadReplica,   ///< Degrade db replica(s) service rate by a factor.
  kOverloadBroker,    ///< Slow the broker consumers by a factor.
};

/// Sentinel for "active until the end of the run".
inline constexpr double kOpenEndMs = std::numeric_limits<double>::infinity();

/// Sentinel replica target: every replica NOT targeted by the parent clause
/// of a correlated `then` chain ("partition db r=0 ... then overload db x2
/// survivors"). Only valid on `then` children of a replica-targeted parent.
inline constexpr int kSurvivorsReplica = -2;

/// One fault clause. Which fields are meaningful depends on `kind`; Parse()
/// and Validate() enforce the combinations.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrashController;
  double start_ms = 0.0;      ///< Activation time (virtual ms).
  double end_ms = kOpenEndMs; ///< Deactivation time; crash: election done.
  double probability = 0.0;   ///< kDropMessages: per-message drop chance.
  double delta_ms = 0.0;      ///< kDelay*: added delay in ms.
  double error = 0.0;         ///< kSkewEstimator: added relative error.
  double factor = 1.0;        ///< kOverload*: service slowdown factor.
  int replica = -1;           ///< db faults: -1 = all, kSurvivorsReplica =
                              ///< complement of the parent clause's target.
  std::uint64_t seed = 0;     ///< kDropMessages: seed of the drop stream.
  /// Index of the parent clause in FaultPlan::faults for `then` children
  /// (-1 = top-level clause). A child with no explicit window starts when
  /// its parent's window ends (or starts, for open-ended parents).
  int follows = -1;

  /// Canonical single-clause spec text (round-trips through Parse).
  std::string ToString() const;
};

/// An ordered list of fault clauses.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  /// Parses the compact text grammar (docs/FAULTS.md):
  ///
  ///   plan    := chain (';' chain)*
  ///   chain   := clause (' then ' clause)*
  ///   clause  := 'crash ctrl' window
  ///            | 'drop broker' 'p='FLOAT ['seed='INT] [window]
  ///            | 'delay broker' '+'DUR [window]
  ///            | 'delay db' '+'DUR [db-target] [window]
  ///            | 'partition db' [db-target] [window]
  ///            | 'overload db' 'x'FLOAT [db-target] [window]
  ///            | 'overload broker' 'x'FLOAT [window]
  ///            | 'skew est' 'err='FLOAT [window]
  ///   db-target := 'r='INT | 'survivors'
  ///   window  := 't='DUR ['for='DUR]  |  't=['DUR','DUR']'
  ///   DUR     := FLOAT('ms'|'s'|'m')?        (bare numbers are ms)
  ///
  /// A `then` child with no explicit t= starts when its parent's window
  /// ends (or at the parent's start if the parent is open-ended), so
  /// correlated scenarios like "partition db r=0 t=[60s,90s] then overload
  /// db x2 survivors for=30s" read naturally. `survivors` targets every
  /// replica except the parent clause's r=N.
  ///
  /// The target may also be attached with '@' ("crash ctrl@t=60s").
  /// Throws std::invalid_argument on malformed specs.
  static FaultPlan Parse(const std::string& spec);

  /// Structural validation (ranges, windows); Parse() already calls this.
  /// Throws std::invalid_argument on violations.
  void Validate() const;

  bool empty() const { return faults.empty(); }

  /// Canonical spec text ("; "-joined clauses; round-trips through Parse).
  std::string ToString() const;
};

/// Record of one fault transition the injector applied, kept in
/// ExperimentResult so runs are self-describing.
struct InjectedFault {
  double at_ms = 0.0;
  std::string description;
};

}  // namespace e2e::fault
