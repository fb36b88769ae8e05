// Replicated controller group with leader election (§5, "Fault tolerance
// of E2E controller"; evaluated in Fig. 18).
//
// Both replicas receive the same input state (observations). When the
// primary fails, updates stop; the shared-resource service keeps using its
// cached decision table. After an election delay, the backup is promoted
// and resumes updates: it adopts the last published table and plans from
// its own observations, which kept arriving through the election.
#pragma once

#include <memory>
#include <optional>

#include "core/controller.h"

namespace e2e {

/// A primary/backup controller pair behind the Controller-like interface.
class ReplicatedControllerGroup {
 public:
  /// Both controllers must be configured identically (they are replicas).
  ReplicatedControllerGroup(std::unique_ptr<Controller> primary,
                            std::unique_ptr<Controller> backup);

  /// Broadcast an observation to all live replicas (shared input state).
  void ObserveArrival(DelayMs external_delay_ms, double now_ms);

  /// Ticks the active controller; during an election window this is a
  /// no-op (stale table keeps serving). Handles promotion when the
  /// election completes. Returns true when a table was recomputed.
  bool Tick(double now_ms);

  /// Decision from the active controller's cache; -1 when none. During an
  /// election the *failed* primary's cached table keeps answering, exactly
  /// as the paper's clients keep their local lookup table.
  int Decide(DelayMs true_external_delay_ms);

  /// Injects a primary failure at `now_ms`; the backup is promoted
  /// `election_delay_ms` later. Fault plans carry the election window per
  /// crash clause ("crash ctrl t=60s for=30s"; paper Fig. 18: ~25 s).
  /// Throws std::invalid_argument on a negative delay.
  void FailPrimary(double now_ms, double election_delay_ms);

  /// Sets the external-delay estimation error on every replica (Fig. 20a;
  /// the fault injector's "skew est" clause drives this mid-run).
  void SetExternalDelayError(double relative_error);

  /// Broadcasts placement penalties (docs/RESILIENCE.md) to both replicas,
  /// so whichever controller is active after a failover keeps solving
  /// against the same per-replica resilience view.
  void SetDecisionPenalties(std::vector<double> penalties_ms);

  /// True while no controller is active (election in progress).
  bool InElection() const { return election_deadline_ms_.has_value(); }

  /// True once the backup has been promoted.
  bool promoted() const { return promoted_; }

  /// The controller currently answering Decide() calls.
  const Controller& active() const;
  Controller& active_mutable();

 private:
  std::unique_ptr<Controller> primary_;
  std::unique_ptr<Controller> backup_;
  bool primary_failed_ = false;
  bool promoted_ = false;
  std::optional<double> election_deadline_ms_;
};

}  // namespace e2e
