#include "matching/transportation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// How a column was reached during one row's Dijkstra.
struct Arrival {
  std::size_t prev_col = 0;   // Meaningful when !entry.
  std::size_t moved_row = 0;  // Row that moves prev_col → this col.
  bool entry = true;          // Reached directly from the new row.
};

// One solve's working state. Each solve starts by resetting it, and every
// buffer entry a row search reads it first writes, so nothing carries
// between solves; the vectors only keep their capacity. Per thread,
// because the sharded replay's shards solve concurrently (a policy solve
// itself is serial).
struct SolveState {
  // Between row searches: the column potentials, the per-column assigned-row
  // lists, and the row→column map. Column c's list is
  // rows_of_col[c * rows, c * rows + occupancy[c]) in insertion order — the
  // order matters, since relax loops and augment erases iterate it.
  std::vector<double> potential;
  std::vector<std::size_t> rows_of_col;
  std::vector<std::size_t> occupancy;
  std::vector<std::size_t> column_of_row;
  // Within one row search.
  std::vector<double> dist;
  std::vector<std::uint8_t> finalized;
  std::vector<Arrival> arrival;
  // The reduced cost of each row assigned to the column being relaxed, at
  // that column — constant across target columns, so hoisted out of the
  // per-target loop.
  std::vector<double> at_cur;
};

// This thread's state, reset to the empty assignment of a rows×cols
// instance.
SolveState& ThreadSolveState(std::size_t rows, std::size_t cols) {
  thread_local SolveState state;
  state.potential.assign(cols, 0.0);
  // Slots past a column's occupancy are never read, so they need no fill.
  state.rows_of_col.resize(rows * cols);
  state.occupancy.assign(cols, 0);
  state.column_of_row.assign(rows, 0);
  if (state.dist.size() < cols) {
    state.dist.resize(cols);
    state.finalized.resize(cols);
    state.arrival.resize(cols);
  }
  if (state.at_cur.size() < rows) state.at_cur.resize(rows);
  return state;
}

void ValidateCapacity(std::span<const int> capacity, std::size_t rows,
                      std::size_t cols) {
  if (capacity.size() != cols) {
    throw std::invalid_argument(
        "TransportationScratch: capacity size != columns");
  }
  std::size_t total_capacity = 0;
  for (const int c : capacity) {
    if (c < 0) {
      throw std::invalid_argument("TransportationScratch: negative capacity");
    }
    total_capacity += static_cast<std::size_t>(c);
  }
  if (total_capacity < rows) {
    throw std::invalid_argument(
        "TransportationScratch: total capacity < rows");
  }
}

// Successive shortest augmenting paths with column potentials. The
// alternating path bucket→column→assigned-bucket→column… only ever changes
// state at columns, so Dijkstra runs over the `num_cols` column nodes; a
// transition col→col' costs the cheapest reduced reassignment of any row
// currently on col. The complementary-slackness invariant (every assigned
// row minimizes cost(r,·) − potential[·] at its column) keeps transition
// costs non-negative, so Dijkstra applies; entry labels may be negative,
// which only shifts all labels by a constant.
//
// Runs every row search over the column-major `cost` array (already
// negated for the max-weight objective), starting from `state`'s empty
// assignment.
void RunRows(std::span<const double> cost, std::size_t rows, std::size_t cols,
             std::span<const int> capacity, SolveState& state) {
  const std::size_t n = rows;
  const std::size_t num_cols = cols;
  double* const dist = state.dist.data();
  std::uint8_t* const finalized = state.finalized.data();
  Arrival* const arrival = state.arrival.data();
  double* const at_cur = state.at_cur.data();
  double* const potential = state.potential.data();
  std::size_t* const rows_of_col = state.rows_of_col.data();
  std::size_t* const occupancy = state.occupancy.data();
  std::size_t* const column_of_row = state.column_of_row.data();

  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < num_cols; ++c) {
      dist[c] = cost[c * n + r] - potential[c];
      finalized[c] = 0;
      arrival[c] = Arrival{};
    }
    std::size_t final_col = num_cols;
    while (final_col == num_cols) {
      // Min-dist unfinalized column; strict < breaks ties toward the
      // smallest index, deterministically.
      std::size_t cur = num_cols;
      for (std::size_t c = 0; c < num_cols; ++c) {
        if (finalized[c] == 0 && (cur == num_cols || dist[c] < dist[cur])) {
          cur = c;
        }
      }
      if (cur == num_cols || dist[cur] == kInf) {
        throw std::logic_error("TransportationScratch: no augmenting path");
      }
      finalized[cur] = 1;
      if (occupancy[cur] < static_cast<std::size_t>(capacity[cur])) {
        // Occupancy of `cur` grows here (the only place it ever changes —
        // augment chains shift rows through saturated columns net-zero).
        final_col = cur;
        break;
      }
      const std::size_t occupants = occupancy[cur];
      if (occupants == 0) continue;
      const std::size_t* const assigned = rows_of_col + cur * n;
      const double* const cur_col = cost.data() + cur * n;
      const double potential_cur = potential[cur];
      for (std::size_t i = 0; i < occupants; ++i) {
        at_cur[i] = cur_col[assigned[i]] - potential_cur;
      }
      const double dist_cur = dist[cur];
      for (std::size_t c = 0; c < num_cols; ++c) {
        if (finalized[c] != 0) continue;
        const double* const col = cost.data() + c * n;
        const double potential_c = potential[c];
        // One pass per target column with the running minimum in a
        // register. The candidate expression and the strict-< update are
        // exactly the historical relax step — the final arrival is the
        // first occupant attaining the minimum (later equal candidates
        // fail the strict <).
        double best = dist[c];
        std::size_t best_i = occupants;
        for (std::size_t i = 0; i < occupants; ++i) {
          const double cand =
              dist_cur + ((col[assigned[i]] - potential_c) - at_cur[i]);
          if (cand < best) {
            best = cand;
            best_i = i;
          }
        }
        if (best_i != occupants) {
          dist[c] = best;
          arrival[c] = Arrival{cur, assigned[best_i], false};
        }
      }
    }

    // Dual update (Jonker–Volgenant form): finalized columns absorb the
    // slack to the augmenting path's endpoint; unreached columns keep their
    // potential.
    for (std::size_t c = 0; c < num_cols; ++c) {
      if (finalized[c]) potential[c] += dist[c] - dist[final_col];
    }

    // Augment: walk the arrival chain back to the entry edge, shifting each
    // intermediate row one column forward, then place the new row. Erasing
    // shifts the rest of the list down in place, so every list keeps its
    // insertion order.
    std::size_t cur = final_col;
    while (!arrival[cur].entry) {
      const std::size_t moved = arrival[cur].moved_row;
      const std::size_t prev = arrival[cur].prev_col;
      std::size_t* const from = rows_of_col + prev * n;
      std::size_t* const from_end = from + occupancy[prev];
      std::size_t* const at = std::find(from, from_end, moved);
      std::copy(at + 1, from_end, at);
      --occupancy[prev];
      rows_of_col[cur * n + occupancy[cur]++] = moved;
      column_of_row[moved] = cur;
      cur = prev;
    }
    rows_of_col[cur * n + occupancy[cur]++] = r;
    column_of_row[r] = cur;
  }
}

// True when every column with positive capacity holds bitwise the same
// finite costs: one memcmp per such column against the first, then one
// finiteness pass over the first. Zero-capacity columns may hold anything.
bool UsableColumnsIdentical(std::span<const double> cost, std::size_t rows,
                            std::size_t cols, std::span<const int> capacity) {
  const double* first = nullptr;
  for (std::size_t c = 0; c < cols; ++c) {
    if (capacity[c] == 0) continue;
    const double* const col = cost.data() + c * rows;
    if (first == nullptr) {
      first = col;
    } else if (std::memcmp(col, first, rows * sizeof(double)) != 0) {
      return false;
    }
  }
  return std::all_of(first, first + rows,
                     [](double x) { return std::isfinite(x); });
}

// RunRows' answer when UsableColumnsIdentical holds: rows 0..n−1 in order,
// each to the lowest-index column with spare capacity. Every usable column
// starts a row search at the same label x_r; a relaxation through a full
// column offers dist_cur + ((x_a − 0) − (x_a − 0)) = dist_cur, never
// strictly less; and each dual update adds x_r − x_r = +0, so the
// potentials stay 0. The search therefore finalizes the usable columns in
// ascending index order and stops at the first with spare capacity, with no
// augment chain. A zero-capacity column may be finalized, but it never
// relaxes a column and never takes a row. Leaves `state`'s row lists and
// occupancy as RunRows would.
void FillInIndexOrder(std::size_t rows, std::span<const int> capacity,
                      SolveState& state) {
  std::size_t c = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (state.occupancy[c] == static_cast<std::size_t>(capacity[c])) ++c;
    state.rows_of_col[c * rows + state.occupancy[c]++] = r;
    state.column_of_row[r] = c;
  }
}

// Writes `state`'s assignment and the total of its entries of `cost` into
// `result`, reusing the result's storage. The total is reported in the
// caller's objective: negated back to a weight when `maximize`.
void FillResult(std::span<const double> cost, std::size_t rows,
                const SolveState& state, bool maximize,
                TransportationResult& result) {
  result.column_of_row.assign(state.column_of_row.begin(),
                              state.column_of_row.end());
  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += cost[result.column_of_row[r] * rows + r];
  }
  result.total = maximize ? -total : total;
}

TransportationResult SolveWeights(const WeightMatrix& matrix,
                                  std::span<const int> capacity,
                                  bool maximize) {
  TransportationScratch scratch;
  const std::span<double> cost = scratch.Costs(matrix.rows(), matrix.cols());
  const std::span<const double> data = matrix.Data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    cost[i] = maximize ? -data[i] : data[i];
  }
  return scratch.Solve(capacity, maximize);
}

}  // namespace

std::span<double> TransportationScratch::Costs(std::size_t rows,
                                               std::size_t cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("TransportationScratch: zero dimension");
  }
  rows_ = rows;
  cols_ = cols;
  cost_.resize(rows * cols);
  return std::span<double>(cost_.data(), cost_.size());
}

const TransportationResult& TransportationScratch::Solve(
    std::span<const int> capacity, bool maximize) {
  ValidateCapacity(capacity, rows_, cols_);
  SolveState& state = ThreadSolveState(rows_, cols_);
  if (UsableColumnsIdentical(cost_, rows_, cols_, capacity)) {
    FillInIndexOrder(rows_, capacity, state);
  } else {
    RunRows(cost_, rows_, cols_, capacity, state);
  }
  FillResult(cost_, rows_, state, maximize, result_);
  return result_;
}

TransportationResult SolveMinCostTransportation(
    const WeightMatrix& cost, std::span<const int> capacity) {
  return SolveWeights(cost, capacity, /*maximize=*/false);
}

TransportationResult SolveMaxWeightTransportation(
    const WeightMatrix& weight, std::span<const int> capacity) {
  return SolveWeights(weight, capacity, /*maximize=*/true);
}

}  // namespace e2e
