// In-memory LSM-flavoured storage engine backing each replica.
//
// The paper's Cassandra testbed serves range queries of 100 rows over a
// replicated table (§7.1). This engine reproduces the read path that
// matters for that workload: a sorted memtable, immutable sorted runs
// flushed from it, newest-version-wins reads, and k-way-merged range scans
// with tombstone handling. Runs are immutable and shared: a copy of an
// engine shares its runs, and a range read that one tombstone-free run
// answers alone pins that run and views its slice, with no merge and no
// copy. Every other read merges its sources into one owned block (RowSet).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e::db {

using Key = std::uint64_t;

/// One row of a RowSet; `value` views bytes the set keeps alive.
struct RowView {
  Key key = 0;
  std::string_view value;
};

/// One immutable sorted run of an engine (defined in storage.cc).
struct Run;

/// The rows of one range read, ascending by key. A set either pins one of
/// the engine's immutable runs and views a slice of it, or owns one block
/// of the rows it merged. Either way the views it hands out stay valid
/// while it lives, whatever happens to the engine after the read; moving
/// the set keeps them valid too.
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
  std::size_t size_ = 0;
  // A pinned view: rows [first_, first_ + size_) of *run_.
  std::shared_ptr<const Run> run_;
  std::size_t first_ = 0;
  // Otherwise (run_ null) an owned block of the merged rows.
  std::vector<Key> keys_;
  std::vector<std::size_t> ends_;  // Row i's bytes end at ends_[i].
  std::vector<char> bytes_;        // Every value, in key order.
};

/// Sorted in-memory store with memtable + immutable runs. Copying an engine
/// shares its runs; each copy writes to its own memtable and runs after.
class StorageEngine {
 public:
  /// `memtable_limit` entries trigger an automatic flush; more than
  /// `max_runs` runs trigger an automatic full compaction.
  explicit StorageEngine(std::size_t memtable_limit = 4096,
                         std::size_t max_runs = 8);

  /// Inserts or overwrites a key.
  void Put(Key key, std::string value);

  /// Deletes a key (tombstone; reclaimed on compaction).
  void Delete(Key key);

  /// Point lookup; nullopt when absent or deleted.
  std::optional<std::string> Get(Key key) const;

  /// Returns up to `count` live rows with key >= start, ascending,
  /// newest version of each key. Any `count` is valid: the result is sized
  /// by the entries the engine holds, never by `count` alone. When the
  /// memtable holds nothing at or after `start` and one tombstone-free run
  /// holds everything the engine does there, the set pins that run.
  RowSet RangeQuery(Key start, std::size_t count) const;

  /// Forces the memtable into a new immutable run.
  void Flush();

  /// Merges all runs (and the memtable) into a single run, dropping
  /// tombstones and stale versions.
  void Compact();

  /// Number of live keys (linear scan of versions; intended for tests).
  std::size_t LiveKeyCount() const;

  /// Current number of immutable runs.
  std::size_t RunCount() const { return runs_.size(); }

  /// Entries currently in the memtable.
  std::size_t MemtableSize() const { return memtable_.size(); }

 private:
  // A value of nullopt is a tombstone.
  using Versioned = std::optional<std::string>;

  // Looks `key` up across memtable and runs, newest first.
  const Versioned* FindNewest(Key key) const;

  std::size_t memtable_limit_;
  std::size_t max_runs_;
  std::map<Key, Versioned> memtable_;
  std::vector<std::shared_ptr<const Run>> runs_;  // runs_[0] is oldest.
};

}  // namespace e2e::db
