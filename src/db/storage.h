// The table each replica serves range reads from.
//
// The paper's Cassandra testbed serves range queries of 100 rows over a
// table fully replicated to each replica group (§7.1). What the experiments
// measure is which replica serves a read and how long it takes, and that
// comes from each replica's SimServer profile; no output reads the rows. So
// the table is built once, sorted by key, and never changes: copies of an
// engine share it, and a range read pins it and views a slice of it, with
// no copy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e::db {

using Key = std::uint64_t;

/// The rows of a table, ascending by key.
using Rows = std::vector<std::pair<Key, std::string>>;

/// One row of a RowSet; `value` views bytes the set keeps alive.
struct RowView {
  Key key = 0;
  std::string_view value;
};

/// The rows of one range read, ascending by key: a slice of the table,
/// which the set pins. The views it hands out stay valid while it lives,
/// even after the engine that produced it is gone; moving the set keeps
/// them valid too.
class RowSet {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RowView operator[](std::size_t i) const;
  /// The first and last rows; both throw std::out_of_range on an empty set.
  RowView front() const;
  RowView back() const;

 private:
  friend class StorageEngine;
  // Rows [first_, first_ + size_) of *rows_.
  std::shared_ptr<const Rows> rows_;
  std::size_t first_ = 0;
  std::size_t size_ = 0;
};

/// An immutable table. Copying an engine shares its rows.
class StorageEngine {
 public:
  /// A table of `rows`, whose keys must ascend strictly; throws
  /// std::invalid_argument naming the first row that does not.
  explicit StorageEngine(Rows rows = {});

  /// Returns up to `count` rows with key >= start, ascending. Any `count`
  /// is valid: the result is sized by the rows the table holds there.
  RowSet RangeQuery(Key start, std::size_t count) const;

  /// True when the table holds no rows.
  bool empty() const { return rows_->empty(); }

 private:
  std::shared_ptr<const Rows> rows_;
};

}  // namespace e2e::db
