#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "matching/assignment.h"
#include "matching/transportation.h"
#include "proptest.h"
#include "util/rng.h"

namespace e2e {
namespace {

WeightMatrix RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng,
                          double lo = -10.0, double hi = 10.0) {
  WeightMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = rng.Uniform(lo, hi);
    }
  }
  return m;
}

bool IsPermutation(const std::vector<std::size_t>& cols, std::size_t limit) {
  std::vector<bool> used(limit, false);
  for (std::size_t c : cols) {
    if (c >= limit || used[c]) return false;
    used[c] = true;
  }
  return true;
}

TEST(WeightMatrix, StoresValues) {
  WeightMatrix m(2, 3, 1.5);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m.At(0, 1), -4.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_THROW(WeightMatrix(0, 3), std::invalid_argument);
}

TEST(Assignment, TrivialOneByOne) {
  WeightMatrix m(1, 1);
  m.At(0, 0) = 5.0;
  const auto r = SolveMaxWeightAssignment(m);
  EXPECT_EQ(r.column_of_row[0], 0u);
  EXPECT_DOUBLE_EQ(r.total, 5.0);
}

TEST(Assignment, KnownThreeByThree) {
  // Classic example: optimal is the anti-diagonal.
  WeightMatrix m(3, 3);
  const double values[3][3] = {{1, 2, 9}, {2, 9, 3}, {9, 4, 5}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m.At(r, c) = values[r][c];
  }
  const auto result = SolveMaxWeightAssignment(m);
  EXPECT_DOUBLE_EQ(result.total, 27.0);
  EXPECT_EQ(result.column_of_row[0], 2u);
  EXPECT_EQ(result.column_of_row[1], 1u);
  EXPECT_EQ(result.column_of_row[2], 0u);
}

TEST(Assignment, MinCostKnown) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = 10.0;
  m.At(1, 0) = 10.0;
  m.At(1, 1) = 1.0;
  const auto result = SolveMinCostAssignment(m);
  EXPECT_DOUBLE_EQ(result.total, 2.0);
  EXPECT_EQ(result.column_of_row[0], 0u);
  EXPECT_EQ(result.column_of_row[1], 1u);
}

TEST(Assignment, RejectsMoreRowsThanCols) {
  WeightMatrix m(3, 2);
  EXPECT_THROW(SolveMaxWeightAssignment(m), std::invalid_argument);
  EXPECT_THROW(GreedyMaxWeightAssignment(m), std::invalid_argument);
  EXPECT_THROW(BruteForceMaxWeightAssignment(m), std::invalid_argument);
}

TEST(Assignment, RectangularUsesBestColumns) {
  WeightMatrix m(2, 4);
  // Best columns are 3 (row 0) and 2 (row 1).
  const double values[2][4] = {{1, 2, 3, 10}, {1, 2, 8, 3}};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m.At(r, c) = values[r][c];
  }
  const auto result = SolveMaxWeightAssignment(m);
  EXPECT_DOUBLE_EQ(result.total, 18.0);
  EXPECT_EQ(result.column_of_row[0], 3u);
  EXPECT_EQ(result.column_of_row[1], 2u);
}

TEST(Assignment, NegativeWeightsHandled) {
  WeightMatrix m(2, 2);
  m.At(0, 0) = -1.0;
  m.At(0, 1) = -5.0;
  m.At(1, 0) = -5.0;
  m.At(1, 1) = -2.0;
  const auto result = SolveMaxWeightAssignment(m);
  EXPECT_DOUBLE_EQ(result.total, -3.0);
}

// Property: the solver matches brute force on random instances.
class AssignmentOptimality : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentOptimality, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 7));
    const auto cols = static_cast<std::size_t>(
        rng.UniformInt(static_cast<std::int64_t>(n),
                       static_cast<std::int64_t>(n) + 2));
    const WeightMatrix m = RandomMatrix(n, cols, rng);
    const auto fast = SolveMaxWeightAssignment(m);
    const auto exact = BruteForceMaxWeightAssignment(m);
    EXPECT_NEAR(fast.total, exact.total, 1e-9)
        << "n=" << n << " cols=" << cols << " trial=" << trial;
    EXPECT_TRUE(IsPermutation(fast.column_of_row, cols));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentOptimality,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Assignment, GreedyNeverBeatsOptimal) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(2, 12));
    const WeightMatrix m = RandomMatrix(n, n, rng, 0.0, 100.0);
    const auto optimal = SolveMaxWeightAssignment(m);
    const auto greedy = GreedyMaxWeightAssignment(m);
    EXPECT_GE(optimal.total + 1e-9, greedy.total);
    EXPECT_TRUE(IsPermutation(greedy.column_of_row, n));
  }
}

TEST(Assignment, LargeInstanceIsConsistent) {
  Rng rng(123);
  const WeightMatrix m = RandomMatrix(64, 64, rng);
  const auto result = SolveMaxWeightAssignment(m);
  EXPECT_TRUE(IsPermutation(result.column_of_row, 64));
  double recomputed = 0.0;
  for (std::size_t r = 0; r < 64; ++r) {
    recomputed += m.At(r, result.column_of_row[r]);
  }
  EXPECT_NEAR(result.total, recomputed, 1e-9);
  // The result must beat a simple identity assignment almost surely.
  double identity = 0.0;
  for (std::size_t r = 0; r < 64; ++r) identity += m.At(r, r);
  EXPECT_GE(result.total, identity);
}

TEST(Assignment, DuplicateColumnsTieSafely) {
  // Columns with identical weights (as produced by slots of the same
  // decision) must still produce a valid permutation.
  WeightMatrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m.At(r, c) = (c < 2) ? 1.0 + static_cast<double>(r) : 5.0;
    }
  }
  const auto result = SolveMaxWeightAssignment(m);
  EXPECT_TRUE(IsPermutation(result.column_of_row, 4));
  EXPECT_DOUBLE_EQ(result.total, 5.0 + 5.0 + 3.0 + 4.0);
}

// --- Transportation solve (collapsed mapping) ----------------------------

// Checks feasibility (every row assigned, no column over capacity) and that
// `total` matches the sum of the selected entries.
void ExpectFeasible(const WeightMatrix& m, const std::vector<int>& capacity,
                    const TransportationResult& result) {
  ASSERT_EQ(result.column_of_row.size(), m.rows());
  std::vector<int> used(capacity.size(), 0);
  double recomputed = 0.0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const std::size_t c = result.column_of_row[r];
    ASSERT_LT(c, m.cols());
    ++used[c];
    recomputed += m.At(r, c);
  }
  for (std::size_t c = 0; c < capacity.size(); ++c) {
    EXPECT_LE(used[c], capacity[c]);
  }
  EXPECT_NEAR(result.total, recomputed, 1e-9);
}

// Expands the n×D capacitated instance into the equivalent n×sum(capacity)
// assignment with one duplicated column per unit of capacity, and returns
// the expanded Hungarian optimum. This is exactly the matrix the policy
// built before the collapse.
double ExpandedOptimum(const WeightMatrix& m,
                       const std::vector<int>& capacity) {
  std::size_t slots = 0;
  for (int c : capacity) slots += static_cast<std::size_t>(c);
  WeightMatrix expanded(m.rows(), slots);
  std::size_t s = 0;
  for (std::size_t c = 0; c < capacity.size(); ++c) {
    for (int u = 0; u < capacity[static_cast<std::size_t>(c)]; ++u, ++s) {
      for (std::size_t r = 0; r < m.rows(); ++r) {
        expanded.At(r, s) = m.At(r, c);
      }
    }
  }
  return SolveMaxWeightAssignment(expanded).total;
}

TEST(Transportation, ValidatesInputs) {
  const WeightMatrix m(2, 2, 1.0);
  const std::vector<int> short_caps = {2};
  const std::vector<int> negative = {3, -1};
  const std::vector<int> scarce = {1, 0};
  EXPECT_THROW(SolveMaxWeightTransportation(m, short_caps),
               std::invalid_argument);
  EXPECT_THROW(SolveMaxWeightTransportation(m, negative),
               std::invalid_argument);
  EXPECT_THROW(SolveMaxWeightTransportation(m, scarce),
               std::invalid_argument);
}

TEST(Transportation, ForcedReassignmentFindsOptimum) {
  // Row 2 prefers column 0, but its capacity is taken by rows whose
  // alternative is cheap — the augmenting path must reroute through the
  // occupied column rather than pay the naive price.
  WeightMatrix cost(3, 2);
  cost.At(0, 0) = 1.0;
  cost.At(0, 1) = 2.0;
  cost.At(1, 0) = 1.0;
  cost.At(1, 1) = 2.0;
  cost.At(2, 0) = 1.0;
  cost.At(2, 1) = 100.0;
  const std::vector<int> capacity = {2, 1};
  const auto result = SolveMinCostTransportation(cost, capacity);
  ExpectFeasible(cost, capacity, result);
  EXPECT_DOUBLE_EQ(result.total, 1.0 + 2.0 + 1.0);
  EXPECT_EQ(result.column_of_row[2], 0u);
}

TEST(Transportation, MatchesExpandedHungarianOnRandomInstances) {
  proptest::Check("transportation-vs-hungarian", [](Rng& rng) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(1, 24));
    const auto cols = static_cast<std::size_t>(rng.UniformInt(1, 6));
    // Random capacities covering rows; sometimes exact, sometimes surplus
    // (the collapsed form of the padded rectangular assignment).
    std::vector<int> capacity(cols, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      ++capacity[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(cols) - 1))];
    }
    const auto surplus = rng.UniformInt(0, 3);
    for (std::int64_t s = 0; s < surplus; ++s) {
      ++capacity[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(cols) - 1))];
    }
    const WeightMatrix m = RandomMatrix(rows, cols, rng);
    const auto collapsed = SolveMaxWeightTransportation(m, capacity);
    ExpectFeasible(m, capacity, collapsed);
    EXPECT_NEAR(collapsed.total, ExpandedOptimum(m, capacity), 1e-9);
  });
}

TEST(Transportation, AllTiedWeightsAreDeterministic) {
  proptest::Check("transportation-all-tied", [](Rng& rng) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(1, 16));
    const auto cols = static_cast<std::size_t>(rng.UniformInt(1, 5));
    const double w = rng.Uniform(-5.0, 5.0);
    const WeightMatrix m(rows, cols, w);
    std::vector<int> capacity(cols, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      ++capacity[r % cols];
    }
    const auto first = SolveMaxWeightTransportation(m, capacity);
    ExpectFeasible(m, capacity, first);
    // Any feasible solution is optimal; the objective is exact.
    EXPECT_NEAR(first.total, static_cast<double>(rows) * w, 1e-9);
    // Ties break by index, so a rerun reproduces the identical assignment.
    const auto second = SolveMaxWeightTransportation(m, capacity);
    EXPECT_EQ(first.column_of_row, second.column_of_row);
  });
  // Every column with capacity holds the same per-row values, bit for bit;
  // zero-capacity columns hold anything, and capacity may be in surplus.
  // Every assignment then ties, and the search settles each row, in order,
  // on the lowest-index column with room; the total is the row-order sum.
  proptest::Check("transportation-identical-columns", [](Rng& rng) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(1, 24));
    const auto cols = static_cast<std::size_t>(rng.UniformInt(1, 6));
    const auto random_col = [&] {
      return static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(cols) - 1));
    };
    std::vector<int> capacity(cols, 0);
    for (std::size_t r = 0; r < rows; ++r) ++capacity[random_col()];
    const auto surplus = rng.UniformInt(0, 3);
    for (std::int64_t s = 0; s < surplus; ++s) ++capacity[random_col()];
    std::vector<double> value(rows);
    for (double& v : value) v = rng.Uniform(-10.0, 10.0);
    WeightMatrix m = RandomMatrix(rows, cols, rng);
    for (std::size_t c = 0; c < cols; ++c) {
      if (capacity[c] == 0) continue;
      for (std::size_t r = 0; r < rows; ++r) m.At(r, c) = value[r];
    }
    std::vector<std::size_t> fill(rows);
    std::vector<int> room = capacity;
    std::size_t col = 0;
    double total = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      while (room[col] == 0) ++col;
      --room[col];
      fill[r] = col;
      total += value[r];
    }
    const auto max_side = SolveMaxWeightTransportation(m, capacity);
    EXPECT_EQ(max_side.column_of_row, fill);
    EXPECT_EQ(max_side.total, total);
    const auto min_side = SolveMinCostTransportation(m, capacity);
    EXPECT_EQ(min_side.column_of_row, fill);
    EXPECT_EQ(min_side.total, total);
  });
  // Only finite identical columns settle without the search: a row that
  // every column prices at infinity still has no augmenting path.
  const double inf = std::numeric_limits<double>::infinity();
  WeightMatrix cost(3, 2, 1.0);
  cost.At(1, 0) = inf;
  cost.At(1, 1) = inf;
  const std::vector<int> capacity = {2, 1};
  EXPECT_THROW(SolveMinCostTransportation(cost, capacity), std::logic_error);
}

TEST(Transportation, MinAndMaxSolversMirror) {
  proptest::Check("transportation-min-max-mirror", [](Rng& rng) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(1, 12));
    const auto cols = static_cast<std::size_t>(rng.UniformInt(1, 4));
    std::vector<int> capacity(cols, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      ++capacity[r % cols];
    }
    const WeightMatrix m = RandomMatrix(rows, cols, rng);
    WeightMatrix negated(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        negated.At(r, c) = -m.At(r, c);
      }
    }
    const auto max_side = SolveMaxWeightTransportation(m, capacity);
    const auto min_side = SolveMinCostTransportation(negated, capacity);
    EXPECT_EQ(max_side.column_of_row, min_side.column_of_row);
    EXPECT_NEAR(max_side.total, -min_side.total, 1e-9);
  });
}

// Fills `scratch` with `m`'s costs (negated weights for the max objective)
// and solves.
const TransportationResult& ScratchSolve(TransportationScratch& scratch,
                                         const WeightMatrix& m,
                                         const std::vector<int>& capacity,
                                         bool maximize) {
  const std::span<double> cost = scratch.Costs(m.rows(), m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      cost[c * m.rows() + r] = maximize ? -m.At(r, c) : m.At(r, c);
    }
  }
  return scratch.Solve(capacity, maximize);
}

TEST(Transportation, ReusedScratchMatchesFreshSolveByteForByte) {
  // One scratch serves every instance, so its buffers grow and shrink with
  // (rows, cols) and must carry nothing from one instance into the next: it
  // must agree bit for bit with a fresh solve of each instance. Covers
  // all-tied, rectangular (surplus capacity), zero-capacity and
  // single-column instances, both objectives, and the hill climb's one-unit
  // neighbour perturbations.
  TransportationScratch scratch;
  proptest::Check("transportation-scratch-vs-solver", [&scratch](Rng& rng) {
    const auto rows = static_cast<std::size_t>(rng.UniformInt(1, 40));
    const auto cols = rng.UniformInt(0, 5) == 0
                          ? std::size_t{1}
                          : static_cast<std::size_t>(rng.UniformInt(2, 9));
    const WeightMatrix m =
        rng.UniformInt(0, 4) == 0  // All tied.
            ? WeightMatrix(rows, cols, rng.Uniform(-5.0, 5.0))
            : RandomMatrix(rows, cols, rng);
    const bool maximize = rng.UniformInt(0, 1) == 1;
    const auto random_col = [&] {
      return static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(cols) - 1));
    };
    std::vector<int> capacity(cols, 0);
    for (std::size_t r = 0; r < rows; ++r) ++capacity[random_col()];
    const auto surplus = rng.UniformInt(0, 3);
    for (std::int64_t s = 0; s < surplus; ++s) ++capacity[random_col()];
    if (cols > 1 && rng.UniformInt(0, 2) == 0) {
      // Empty one column into its neighbour: a zero-capacity decision.
      const std::size_t c = random_col();
      capacity[(c + 1) % cols] += capacity[c];
      capacity[c] = 0;
    }

    const auto expect_fresh = [&](const std::vector<int>& caps) {
      const TransportationResult& reused =
          ScratchSolve(scratch, m, caps, maximize);
      const TransportationResult fresh =
          maximize ? SolveMaxWeightTransportation(m, caps)
                   : SolveMinCostTransportation(m, caps);
      ExpectFeasible(m, caps, reused);
      EXPECT_EQ(reused.column_of_row, fresh.column_of_row);
      EXPECT_EQ(reused.total, fresh.total);
    };
    expect_fresh(capacity);
    for (int perturbation = 0; perturbation < 3; ++perturbation) {
      // Move one unit between columns (a hill-climb neighbour), sometimes
      // draining a column to zero.
      std::vector<int> perturbed = capacity;
      const std::size_t from = random_col();
      if (perturbed[from] == 0) continue;
      const std::size_t to = random_col();
      --perturbed[from];
      ++perturbed[to];
      expect_fresh(perturbed);
    }
  });
}

TEST(Transportation, ScratchValidatesInputs) {
  TransportationScratch scratch;
  EXPECT_THROW(scratch.Costs(0, 2), std::invalid_argument);
  EXPECT_THROW(scratch.Costs(2, 0), std::invalid_argument);
  const std::span<double> cost = scratch.Costs(2, 2);
  std::fill(cost.begin(), cost.end(), 1.0);
  const std::vector<int> short_caps = {2};
  const std::vector<int> negative = {3, -1};
  const std::vector<int> scarce = {1, 0};
  EXPECT_THROW(scratch.Solve(short_caps, false), std::invalid_argument);
  EXPECT_THROW(scratch.Solve(negative, false), std::invalid_argument);
  EXPECT_THROW(scratch.Solve(scarce, false), std::invalid_argument);
  const std::vector<int> capacity = {1, 1};
  EXPECT_EQ(scratch.Solve(capacity, false).total, 2.0);
}

}  // namespace
}  // namespace e2e
