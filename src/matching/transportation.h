// Capacitated transportation solve for the request→decision mapping (§4.3).
//
// The mapping subproblem assigns n external-delay buckets to decision
// "slots", where all `units[d]` slots of decision d share one byte-identical
// weight column: the edge weight depends only on (bucket, decision). Solving
// it as an n×n assignment (matching/assignment.h) wastes an O(n³) Hungarian
// run on duplicated columns. This solver works on the collapsed n×D problem
// directly — n unit-supply sources, D sinks with capacity `units[d]` — via
// successive shortest augmenting paths with dual potentials, where each
// Dijkstra runs over the D decision nodes only (paths alternate
// bucket→decision→assigned-bucket→decision…, and the per-decision assignment
// lists collapse the intermediate bucket hops). Complexity is
// O(n²·D + n·D²) against Hungarian's O(n³) on the expanded matrix, an
// ~n/D speedup at the controller's operating point (n=256, D=8 → ~32×).
//
// Determinism: every loop scans in ascending index order and every
// comparison that picks a column/row is strict, so ties break toward the
// smallest index. Two runs on the same input produce identical assignments,
// and tests/matching_test.cc checks the objective is always exactly the
// optimum the expanded Hungarian solve finds.
//
// Identical columns: when every column with positive capacity holds bitwise
// the same finite costs (a flat G hands every decision one delay
// distribution), no relaxation is ever strict and the potentials stay 0, so
// the search's answer is fixed in advance: rows 0..n−1 in order, each to the
// lowest-index column with spare capacity. Solve() detects that input and
// fills it directly. Any non-finite cost keeps the search, so an infinite
// entry still fails with "no augmenting path".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matching/weight_matrix.h"

namespace e2e {

/// Result of a transportation solve over an n×D matrix with per-column
/// capacities: every row is assigned one column; column c is used by at
/// most capacity[c] rows.
struct TransportationResult {
  /// column_of_row[r] = column (decision) assigned to row r.
  std::vector<std::size_t> column_of_row;
  /// Sum of the selected entries (cost for the min solver, weight for max).
  double total = 0.0;
};

/// The transportation solver. The caller fills its cost buffer straight
/// from its own data, and Solve() runs the row searches over it: no
/// WeightMatrix and no copy of the costs. The search state is per-thread
/// working memory whose per-column row lists share one flat rows×cols
/// array, so a solve allocates nothing once the buffers have grown to the
/// largest instance seen. One scratch serves one thread at a time; the
/// threads are the sharded replay's shards, since a policy solve is serial.
class TransportationScratch {
 public:
  /// Sizes the cost buffer for a rows×cols instance and returns it for the
  /// caller to fill, column-major: entry (r, c) at [c * rows + r]. Entries
  /// hold whatever an earlier instance left, so write every one. Throws on a
  /// zero dimension, like WeightMatrix.
  std::span<double> Costs(std::size_t rows, std::size_t cols);

  /// Solves the min-cost transportation problem over the buffer the last
  /// Costs() call sized. Requires capacity.size() == cols, all capacities
  /// >= 0 and sum(capacity) >= rows; throws std::invalid_argument
  /// otherwise. With `maximize` the buffer holds negated weights (IEEE
  /// negation is exact and addition is sign-symmetric, so this is bitwise
  /// the max-weight solve) and the total is reported as a weight. The
  /// reference stays valid until the next call on this scratch.
  const TransportationResult& Solve(std::span<const int> capacity,
                                    bool maximize);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> cost_;
  TransportationResult result_;
};

/// Solves the minimum-cost transportation problem for `cost` (rows are
/// unit-supply sources, columns are sinks with the given capacities).
/// Requires capacity.size() == cost.cols(), all capacities >= 0, and
/// sum(capacity) >= cost.rows(); surplus capacity simply goes unused, which
/// is the collapsed form of the padded rectangular assignment. Optimal.
TransportationResult SolveMinCostTransportation(
    const WeightMatrix& cost, std::span<const int> capacity);

/// Solves the maximum-weight transportation problem (the min-cost solve
/// over the negated weights). Optimal.
TransportationResult SolveMaxWeightTransportation(
    const WeightMatrix& weight, std::span<const int> capacity);

}  // namespace e2e
