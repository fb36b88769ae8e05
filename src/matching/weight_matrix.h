// Dense weight/cost matrix for the assignment solver.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace e2e {

/// Dense matrix of doubles. Rows index requests (or buckets), columns index
/// decision slots. Storage is column-major (structure-of-arrays): the
/// transportation solver's Dijkstra inner loops scan a fixed column across
/// many rows (`cost(moved, c)` for every row currently assigned to a
/// column), so keeping each column contiguous turns those scans into
/// sequential loads. `At(r, c)` keeps its historical row/column semantics —
/// only the layout changed, so every fill site and every solve stays
/// byte-identical.
class WeightMatrix {
 public:
  /// Creates a rows x cols matrix filled with `fill`.
  WeightMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (rows == 0 || cols == 0) {
      throw std::invalid_argument("WeightMatrix: zero dimension");
    }
  }

  /// Mutable element access (bounds-checked in debug builds only via vector).
  double& At(std::size_t r, std::size_t c) { return data_[c * rows_ + r]; }

  /// Const element access.
  double At(std::size_t r, std::size_t c) const { return data_[c * rows_ + r]; }

  /// Contiguous view of column c (one double per row).
  std::span<const double> Column(std::size_t c) const {
    return std::span<const double>(data_.data() + c * rows_, rows_);
  }

  /// Flat storage view, column-major. Two matrices with equal dimensions are
  /// element-wise bitwise equal iff their Data() bytes compare equal — the
  /// warm-start gate in core/policy.cc compares solver costs this way.
  std::span<const double> Data() const {
    return std::span<const double>(data_.data(), data_.size());
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace e2e
