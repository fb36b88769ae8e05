#include "matching/transportation.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Target number of replay checkpoints recorded across a cold solve. More
// checkpoints shorten replays but cost O(state) memory each.
constexpr std::size_t kTargetCheckpoints = 8;

// How a column was reached during one row's Dijkstra.
struct Arrival {
  std::size_t prev_col = 0;   // Meaningful when !entry.
  std::size_t moved_row = 0;  // Row that moves prev_col → this col.
  bool entry = true;          // Reached directly from the new row.
};

// One row search's working buffers. Every entry a search reads it first
// writes, so the buffers carry nothing between searches; they only keep
// their capacity. Per thread, because Resolve() and the throwaway solves
// run concurrently on the policy's worker pool.
struct RowBuffers {
  std::vector<double> dist;
  std::vector<std::uint8_t> finalized;
  std::vector<Arrival> arrival;
  // The reduced cost of each row assigned to the column being relaxed, at
  // that column — constant across target columns, so hoisted out of the
  // per-target loop.
  std::vector<double> at_cur;
};

RowBuffers& ThreadRowBuffers(std::size_t rows, std::size_t cols) {
  thread_local RowBuffers buffers;
  if (buffers.dist.size() < cols) {
    buffers.dist.resize(cols);
    buffers.finalized.resize(cols);
    buffers.arrival.resize(cols);
  }
  if (buffers.at_cur.size() < rows) buffers.at_cur.resize(rows);
  return buffers;
}

void ValidateCapacity(std::span<const int> capacity, std::size_t rows,
                      std::size_t cols) {
  if (capacity.size() != cols) {
    throw std::invalid_argument(
        "TransportationSolver: capacity size != columns");
  }
  std::size_t total_capacity = 0;
  for (const int c : capacity) {
    if (c < 0) {
      throw std::invalid_argument("TransportationSolver: negative capacity");
    }
    total_capacity += static_cast<std::size_t>(c);
  }
  if (total_capacity < rows) {
    throw std::invalid_argument("TransportationSolver: total capacity < rows");
  }
}

}  // namespace

void TransportationSolver::SearchState::Reset(std::size_t rows,
                                              std::size_t cols) {
  potential.assign(cols, 0.0);
  // Slots past a column's occupancy are never read, so they need no fill.
  rows_of_col.resize(rows * cols);
  occupancy.assign(cols, 0);
  column_of_row.assign(rows, 0);
}

void TransportationSolver::SearchState::RestoreFrom(const SearchState& from,
                                                    std::size_t rows) {
  potential = from.potential;
  occupancy = from.occupancy;
  column_of_row = from.column_of_row;
  rows_of_col.resize(from.rows_of_col.size());
  for (std::size_t c = 0; c < occupancy.size(); ++c) {
    std::copy_n(from.rows_of_col.data() + c * rows, occupancy[c],
                rows_of_col.data() + c * rows);
  }
}

TransportationSolver::TransportationSolver(WeightMatrix matrix,
                                           std::vector<int> capacity,
                                           bool maximize)
    : cost_(std::move(matrix)),
      capacity_(std::move(capacity)),
      maximize_(maximize) {
  ValidateCapacity(capacity_, cost_.rows(), cost_.cols());
  if (maximize_) {
    for (std::size_t c = 0; c < cost_.cols(); ++c) {
      for (std::size_t r = 0; r < cost_.rows(); ++r) {
        cost_.At(r, c) = -cost_.At(r, c);
      }
    }
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
// Capacity is read at exactly one point — the termination test on a freshly
// finalized column — which is what makes the recorded fill/saturation rows
// sufficient for Resolve() to bound where a perturbed capacity vector can
// first change the control flow.
void TransportationSolver::RunRows(std::span<const double> cost,
                                   std::size_t rows, std::size_t cols,
                                   SearchState& state, std::size_t first_row,
                                   std::span<const int> capacity,
                                   TransportationSolver* record) {
  const std::size_t n = rows;
  const std::size_t num_cols = cols;
  RowBuffers& buffers = ThreadRowBuffers(n, num_cols);
  double* const dist = buffers.dist.data();
  std::uint8_t* const finalized = buffers.finalized.data();
  Arrival* const arrival = buffers.arrival.data();
  double* const at_cur = buffers.at_cur.data();
  double* const potential = state.potential.data();
  std::size_t* const rows_of_col = state.rows_of_col.data();
  std::size_t* const occupancy = state.occupancy.data();
  std::size_t* const column_of_row = state.column_of_row.data();

  for (std::size_t r = first_row; r < n; ++r) {
    if (record != nullptr && r % record->checkpoint_stride_ == 0) {
      record->checkpoints_.push_back(Checkpoint{r, state});
    }
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
        throw std::logic_error("TransportationSolver: no augmenting path");
      }
      finalized[cur] = 1;
      if (occupancy[cur] < static_cast<std::size_t>(capacity[cur])) {
        // Occupancy of `cur` grows here (the only place it ever changes —
        // augment chains shift rows through saturated columns net-zero).
        if (record != nullptr) record->fill_rows_[cur].push_back(r);
        final_col = cur;
        break;
      }
      if (record != nullptr && record->sat_select_row_[cur] == n) {
        record->sat_select_row_[cur] = r;
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

void TransportationSolver::FillResult(std::span<const double> cost,
                                      std::size_t rows,
                                      const SearchState& state, bool maximize,
                                      TransportationResult& result) {
  result.column_of_row.assign(state.column_of_row.begin(),
                              state.column_of_row.end());
  double total = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += cost[result.column_of_row[r] * rows + r];
  }
  result.total = maximize ? -total : total;
}

const TransportationResult& TransportationSolver::Solve() {
  if (solved_) return result_;
  const std::size_t n = cost_.rows();
  const std::size_t num_cols = cost_.cols();
  checkpoint_stride_ = std::max<std::size_t>(1, n / kTargetCheckpoints);
  checkpoints_.clear();
  fill_rows_.assign(num_cols, {});
  sat_select_row_.assign(num_cols, n);

  SearchState state;
  state.Reset(n, num_cols);
  RunRows(cost_.Data(), n, num_cols, state, 0, capacity_, this);
  FillResult(cost_.Data(), n, state, maximize_, result_);
  solved_ = true;
  return result_;
}

TransportationResult TransportationSolver::Resolve(
    std::span<const int> new_capacity, std::size_t* rows_replayed) const {
  if (!solved_) {
    throw std::logic_error("TransportationSolver: Resolve before Solve");
  }
  const std::size_t n = cost_.rows();
  ValidateCapacity(new_capacity, n, cost_.cols());

  // First row whose search can observe the perturbation. Capacity[c] is read
  // only when a search finalizes c: the test (occupancy < capacity[c])
  // changes outcome iff occupancy lies in [min(old,new), max(old,new)).
  // Occupancy is monotone and every value it takes is witnessed by a
  // recorded fill (growth) or saturated-selection event, so the earliest
  // such event across perturbed columns is the first possible divergence;
  // every earlier row search runs bit-identically under either vector.
  std::size_t divergence = n;
  for (std::size_t c = 0; c < new_capacity.size(); ++c) {
    if (new_capacity[c] == capacity_[c]) continue;
    if (new_capacity[c] > capacity_[c]) {
      // Old run refused to terminate at saturated c; a larger capacity
      // terminates there.
      divergence = std::min(divergence, sat_select_row_[c]);
    } else if (fill_rows_[c].size() >
               static_cast<std::size_t>(new_capacity[c])) {
      // Old run grew c past the new cap; the growth step at occupancy ==
      // new_capacity[c] would no longer terminate there.
      divergence = std::min(
          divergence,
          fill_rows_[c][static_cast<std::size_t>(new_capacity[c])]);
    }
  }
  if (divergence >= n) {
    // No row search ever observes the difference: the cold solve under
    // new_capacity is the recorded solve.
    if (rows_replayed != nullptr) *rows_replayed = 0;
    return result_;
  }

  const Checkpoint* nearest = &checkpoints_.front();
  for (const Checkpoint& ck : checkpoints_) {
    if (ck.row <= divergence) {
      nearest = &ck;
    } else {
      break;
    }
  }
  // Restored into per-thread storage: concurrent re-solves each replay
  // their own copy, and the copy reuses the last replay's capacity.
  thread_local SearchState state;
  state.RestoreFrom(nearest->state, n);
  RunRows(cost_.Data(), n, cost_.cols(), state, nearest->row, new_capacity,
          /*record=*/nullptr);
  if (rows_replayed != nullptr) *rows_replayed = n - nearest->row;
  TransportationResult result;
  FillResult(cost_.Data(), n, state, maximize_, result);
  return result;
}

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
  state_.Reset(rows_, cols_);
  TransportationSolver::RunRows(cost_, rows_, cols_, state_, 0, capacity,
                                /*record=*/nullptr);
  TransportationSolver::FillResult(cost_, rows_, state_, maximize, result_);
  return result_;
}

namespace {

TransportationResult SolveThrowaway(const WeightMatrix& matrix,
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

TransportationResult SolveMinCostTransportation(
    const WeightMatrix& cost, std::span<const int> capacity) {
  return SolveThrowaway(cost, capacity, /*maximize=*/false);
}

TransportationResult SolveMaxWeightTransportation(
    const WeightMatrix& weight, std::span<const int> capacity) {
  return SolveThrowaway(weight, capacity, /*maximize=*/true);
}

}  // namespace e2e
