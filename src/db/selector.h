// Replica-selection policies (the decision surface E2E controls in the
// database use case).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "util/rng.h"
#include "util/types.h"

namespace e2e::db {

/// What a selector may observe about the cluster at decision time.
struct ClusterView {
  /// Per-replica load (queued + in-service requests).
  std::vector<int> loads;
  /// Per-replica mean of recently observed total delays (ms); 0 when a
  /// replica has served nothing yet. The signal the paper's modified
  /// Cassandra client tracks alongside load.
  std::vector<double> recent_delay_ms;
};

/// The per-request information available to a selector. The external delay
/// is the field E2E tags onto requests at the frontend (§3.1).
struct DbRequest {
  RequestId id = 0;
  DelayMs external_delay_ms = 0.0;
  std::uint64_t range_start = 0;
  std::size_t range_count = 100;
  /// Hedged-read delay (resilience layer): when > 0 and hedging is enabled
  /// on the executor, the read is cloned to the next-best reachable replica
  /// after this much virtual time without a response. Experiments set it
  /// per sensitivity class; 0 disables hedging for the request.
  double hedge_delay_ms = 0.0;
};

/// Replica-selection policy interface.
class ReplicaSelector {
 public:
  virtual ~ReplicaSelector() = default;

  /// Returns the replica index in [0, view.loads.size()).
  virtual int SelectReplica(const DbRequest& request,
                            const ClusterView& view) = 0;

  /// Policy name for reports.
  virtual std::string Name() const = 0;
};

/// The paper's default policy: perfect load balancing (least-loaded with
/// round-robin tie-breaking).
class LoadBalancedSelector final : public ReplicaSelector {
 public:
  int SelectReplica(const DbRequest& request, const ClusterView& view) override;
  std::string Name() const override { return "default-load-balanced"; }

 private:
  std::size_t next_ = 0;
};

/// Latency-aware selection in the style of C3 (Suresh et al., NSDI'15 —
/// cited by the paper as the state of the art in tail-cutting replica
/// selection): rank replicas by a score combining observed delay and
/// outstanding load, pick the best. Minimizes delay percentiles — exactly
/// the conventional wisdom E2E argues is insufficient — so it is the
/// strongest *QoE-agnostic* baseline.
class LatencyAwareSelector final : public ReplicaSelector {
 public:
  /// `load_weight_ms` converts one outstanding request into an equivalent
  /// delay penalty (C3's cubic replica scoring simplified to linear).
  explicit LatencyAwareSelector(double load_weight_ms = 40.0)
      : load_weight_ms_(load_weight_ms) {}

  int SelectReplica(const DbRequest& request, const ClusterView& view) override;
  std::string Name() const override { return "latency-aware-c3"; }

 private:
  double load_weight_ms_;
  std::size_t next_ = 0;
};

/// Probability-table selector: the controller's decision table (§5) read
/// as a per-replica probability vector for each row. This is how E2E's
/// cached decision lookup table drives Cassandra: the controller refreshes
/// the table; the client only does an O(log k) lookup plus a categorical
/// draw.
class TableSelector final : public ReplicaSelector {
 public:
  /// Each row sends its request to the row's decision with probability
  /// 1 - `epsilon` and spreads `epsilon` evenly over the other replicas
  /// (probabilistic rows, §5).
  TableSelector(std::string name, Rng rng, double epsilon)
      : name_(std::move(name)), rng_(rng), epsilon_(epsilon) {}

  /// Atomically replaces the table; throws std::invalid_argument when
  /// DecisionTable::Validate does.
  void SetTable(DecisionTable table);

  /// True when a table with rows has been installed.
  bool HasTable() const { return !table_.rows.empty(); }

  int SelectReplica(const DbRequest& request, const ClusterView& view) override;
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  Rng rng_;
  double epsilon_;
  DecisionTable table_;
  /// One probability vector per decision, rebuilt on each install.
  std::vector<std::vector<double>> probabilities_;
  std::size_t fallback_next_ = 0;
};

}  // namespace e2e::db
