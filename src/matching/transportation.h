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
// Incremental re-solves: the hill climb in core/policy.cc evaluates
// neighboring allocations that differ from a solved base by shifting a few
// capacity units while the cost matrix stays bitwise identical.
// TransportationSolver records, during the cold solve, (a) periodic
// checkpoints of the full solver state and (b) for every column the rows at
// which its occupancy grew and the first row that finalized it while
// saturated. Capacities are read at exactly one point of the algorithm — the
// "did the search terminate here" test — so the first row whose search can
// behave differently under a perturbed capacity vector is computable from
// those event rows, and Resolve() replays the recorded algorithm from the
// last checkpoint at or before it. The replay runs the identical code over
// the identical matrix, so the result is byte-for-byte what a cold solve
// under the new capacities would produce (tests/matching_test.cc pins this
// property over randomized perturbations; docs/PERFORMANCE.md has the
// argument).
//
// One search loop serves every solve: TransportationSolver::Solve(),
// Resolve() and the throwaway solves of TransportationScratch all run the
// same row searches. Their per-search buffers are per-thread scratch and
// the per-column row lists share one flat rows×cols array, so the searches
// never allocate, and a throwaway solve allocates nothing once its buffers
// have grown to the instance size.
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

class TransportationScratch;

/// Stateful transportation solver: owns the matrix, solves once cold, and
/// then answers capacity-perturbed re-solves by replaying only the suffix of
/// rows whose searches can observe the perturbation. `maximize` selects the
/// max-weight objective: the constructor negates the owned matrix in place
/// and the searches minimize that cost (IEEE negation is exact and addition
/// is sign-symmetric, so this is bitwise identical to solving the weights
/// directly, and no second copy of the matrix exists).
///
/// Thread safety: Solve() mutates; Resolve() is const and touches only the
/// recorded state plus per-thread scratch, so any number of threads may call
/// Resolve() concurrently after the one Solve().
class TransportationSolver {
 public:
  /// Validates like the free functions below: capacity.size() must equal
  /// matrix.cols(), all capacities >= 0, sum(capacity) >= matrix.rows().
  /// Solves nobody re-solves from belong on TransportationScratch, which
  /// records no replay state.
  TransportationSolver(WeightMatrix matrix, std::vector<int> capacity,
                       bool maximize);

  /// Runs the cold solve (recording replay state) and returns the result.
  /// Idempotent: later calls return the cached result.
  const TransportationResult& Solve();

  /// Incremental re-solve under a new capacity vector (same matrix). The
  /// result is byte-identical — assignment, tie-breaking, and total — to a
  /// cold solve over (matrix, new_capacity). Requires Solve() to have run;
  /// validates new_capacity like the constructor. `rows_replayed`, when
  /// non-null, receives the number of row searches actually re-run (0 when
  /// the perturbation provably cannot change the solve).
  TransportationResult Resolve(std::span<const int> new_capacity,
                               std::size_t* rows_replayed = nullptr) const;

  bool solved() const { return solved_; }
  std::span<const int> capacity() const { return capacity_; }

  /// The costs the row searches read, column-major (entry (r, c) at
  /// [c * rows + r]): the matrix as given for the min objective, negated
  /// for max. Two solvers search identically iff these bytes are equal —
  /// the warm-start gate in core/policy.cc relies on this.
  std::span<const double> costs() const { return cost_.Data(); }

 private:
  friend class TransportationScratch;

  // Full solver state between row searches: the column potentials, the
  // per-column assigned-row lists, and the row→column map. Column c's list
  // is rows_of_col[c * rows, c * rows + occupancy[c]) in insertion order —
  // the order matters, since relax loops and augment erases iterate it.
  // One flat array for all lists makes copying a state a few vector
  // assignments that reuse capacity; Resolve()'s restore skips the slots
  // past each column's occupancy.
  struct SearchState {
    std::vector<double> potential;
    std::vector<std::size_t> rows_of_col;
    std::vector<std::size_t> occupancy;
    std::vector<std::size_t> column_of_row;

    // The empty state of a rows×cols instance.
    void Reset(std::size_t rows, std::size_t cols);
    // Makes this a copy of `from`, a state of a `rows`-row instance,
    // copying only each column's live slots.
    void RestoreFrom(const SearchState& from, std::size_t rows);
  };
  struct Checkpoint {
    std::size_t row = 0;  // State is "all rows < row processed".
    SearchState state;
  };

  // Runs row searches [first_row, rows) over `state` with `capacity`,
  // reading the column-major `cost` array (already negated for the
  // max-weight objective). When `record` is non-null (cold solve only)
  // fills its checkpoints_/fill_rows_/sat_select_row_. Static so the const
  // Resolve() path and the throwaway solves can run it without a solver.
  static void RunRows(std::span<const double> cost, std::size_t rows,
                      std::size_t cols, SearchState& state,
                      std::size_t first_row, std::span<const int> capacity,
                      TransportationSolver* record);

  // Writes `state`'s assignment and the total of its entries of `cost` into
  // `result`, reusing the result's storage. The total is reported in the
  // caller's objective: negated back to a weight when `maximize`.
  static void FillResult(std::span<const double> cost, std::size_t rows,
                         const SearchState& state, bool maximize,
                         TransportationResult& result);

  // The owned matrix, negated in place for the max objective.
  WeightMatrix cost_;
  std::vector<int> capacity_;
  bool maximize_ = false;
  bool solved_ = false;
  TransportationResult result_;

  // Replay state recorded by the cold solve.
  std::size_t checkpoint_stride_ = 1;
  std::vector<Checkpoint> checkpoints_;
  // fill_rows_[c][k] = row whose search terminated at column c while it held
  // k rows (its occupancy grew k → k+1 there). Occupancy only ever grows, and
  // only at search terminations, so this is the full occupancy trajectory.
  std::vector<std::vector<std::size_t>> fill_rows_;
  // sat_select_row_[c] = first row whose search finalized column c while it
  // was saturated (occupancy == capacity, search continued through it);
  // the row count when that never happened.
  std::vector<std::size_t> sat_select_row_;
};

/// Reusable working memory for throwaway solves: solves nobody re-solves
/// from, such as the hill climb's neighbor evaluations. The caller fills the
/// cost buffer straight from its own data, and Solve() runs the solver's row
/// searches over it — no WeightMatrix, no TransportationSolver, no copy of
/// the costs, and no allocation once the buffers have grown to the largest
/// instance seen. One scratch serves one thread at a time.
class TransportationScratch {
 public:
  /// Sizes the cost buffer for a rows×cols instance and returns it for the
  /// caller to fill, column-major: entry (r, c) at [c * rows + r]. Entries
  /// hold whatever an earlier instance left, so write every one. Throws on a
  /// zero dimension, like WeightMatrix.
  std::span<double> Costs(std::size_t rows, std::size_t cols);

  /// Solves the min-cost transportation problem over the buffer the last
  /// Costs() call sized, validating `capacity` like TransportationSolver.
  /// With `maximize` the buffer holds negated weights and the total is
  /// reported as a weight, so the result is bit for bit what
  /// TransportationSolver(weights, capacity, true).Solve() returns. The
  /// reference stays valid until the next call on this scratch.
  const TransportationResult& Solve(std::span<const int> capacity,
                                    bool maximize);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> cost_;
  TransportationSolver::SearchState state_;
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
