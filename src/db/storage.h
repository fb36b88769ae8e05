// In-memory LSM-flavoured storage engine backing each replica.
//
// The paper's Cassandra testbed serves range queries of 100 rows over a
// replicated table (§7.1). This engine reproduces the read path that
// matters for that workload: a sorted memtable, immutable sorted runs
// flushed from it, newest-version-wins reads, and k-way-merged range scans
// with tombstone handling. A range read returns one owned block (RowSet):
// the keys, one contiguous copy of the value bytes and their offsets, so a
// read costs a handful of allocations however many rows it returns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e::db {

using Key = std::uint64_t;

/// One row of a RowSet; `value` views the set's bytes.
struct RowView {
  Key key = 0;
  std::string_view value;
};

/// The rows of one range read, ascending by key. The set owns its bytes, so
/// the views it hands out stay valid while it lives, whatever happens to the
/// engine after the read; moving the set keeps them valid too.
class RowSet {
 public:
  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  RowView operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {keys_[i],
            std::string_view(bytes_.data() + begin, ends_[i] - begin)};
  }
  RowView front() const { return (*this)[0]; }
  RowView back() const { return (*this)[size() - 1]; }

 private:
  friend class StorageEngine;
  std::vector<Key> keys_;
  std::vector<std::size_t> ends_;  // Row i's bytes end at ends_[i].
  std::vector<char> bytes_;        // Every value, in key order.
};

/// Sorted in-memory store with memtable + immutable runs.
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
  /// by the entries the engine holds, never by `count` alone.
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
  using Run = std::vector<std::pair<Key, Versioned>>;

  // Looks `key` up across memtable and runs, newest first.
  const Versioned* FindNewest(Key key) const;

  std::size_t memtable_limit_;
  std::size_t max_runs_;
  std::map<Key, Versioned> memtable_;
  std::vector<Run> runs_;  // runs_[0] is oldest.
};

}  // namespace e2e::db
