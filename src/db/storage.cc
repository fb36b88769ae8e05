#include "db/storage.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

namespace e2e::db {

// Entries ascending by key, one per key; a nullopt value is a tombstone.
// A run never changes once built, so engines and RowSets share it.
struct Run {
  std::vector<std::pair<Key, std::optional<std::string>>> entries;
  bool tombstone_free = true;
};

RowView RowSet::operator[](std::size_t i) const {
  if (run_ != nullptr) {
    const auto& [key, value] = run_->entries[first_ + i];
    return {key, *value};
  }
  const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
  return {keys_[i], std::string_view(bytes_.data() + begin, ends_[i] - begin)};
}

RowView RowSet::front() const {
  if (empty()) throw std::out_of_range("RowSet::front: empty set");
  return (*this)[0];
}

RowView RowSet::back() const {
  if (empty()) throw std::out_of_range("RowSet::back: empty set");
  return (*this)[size_ - 1];
}

StorageEngine::StorageEngine(std::size_t memtable_limit, std::size_t max_runs)
    : memtable_limit_(std::max<std::size_t>(memtable_limit, 1)),
      max_runs_(std::max<std::size_t>(max_runs, 1)) {}

void StorageEngine::Put(Key key, std::string value) {
  memtable_[key] = std::move(value);
  if (memtable_.size() >= memtable_limit_) Flush();
}

void StorageEngine::Delete(Key key) {
  memtable_[key] = std::nullopt;
  if (memtable_.size() >= memtable_limit_) Flush();
}

const StorageEngine::Versioned* StorageEngine::FindNewest(Key key) const {
  if (const auto it = memtable_.find(key); it != memtable_.end()) {
    return &it->second;
  }
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    const auto& entries = (*run)->entries;
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const auto& entry, Key k) { return entry.first < k; });
    if (it != entries.end() && it->first == key) return &it->second;
  }
  return nullptr;
}

std::optional<std::string> StorageEngine::Get(Key key) const {
  const Versioned* v = FindNewest(key);
  if (v == nullptr || !v->has_value()) return std::nullopt;
  return **v;
}

RowSet StorageEngine::RangeQuery(Key start, std::size_t count) const {
  RowSet out;
  if (count == 0) return out;

  // One cursor per source holding entries at or after `start`, sitting on
  // its current entry. Each step takes the smallest key, resolves its
  // newest version across the cursors on it and advances them; a cursor
  // leaves the merge when its source runs out.
  struct Cursor {
    int priority;    // Newer sources get higher priority; memtable is newest.
    const Run* run;  // Null for the memtable.
    std::size_t pos;                                  // Runs only.
    std::map<Key, Versioned>::const_iterator mem_it;  // Memtable only.
    Key key;
    const Versioned* value;
  };
  // Loads the entry `c` sits on; false when its source has run out.
  const auto load = [this](Cursor& c) {
    if (c.run == nullptr) {
      if (c.mem_it == memtable_.end()) return false;
      c.key = c.mem_it->first;
      c.value = &c.mem_it->second;
    } else {
      if (c.pos == c.run->entries.size()) return false;
      c.key = c.run->entries[c.pos].first;
      c.value = &c.run->entries[c.pos].second;
    }
    return true;
  };

  // `held` counts the entries the sources hold at or after `start` (the
  // memtable's walk stops at `count`). No read returns more rows than
  // min(count, held), so that sizes the buffers, whatever `count` asks.
  std::vector<Cursor> cursors;
  cursors.reserve(runs_.size() + 1);
  std::size_t held = 0;
  Cursor mem{.priority = static_cast<int>(runs_.size()),
             .run = nullptr,
             .pos = 0,
             .mem_it = memtable_.lower_bound(start),
             .key = 0,
             .value = nullptr};
  for (auto it = mem.mem_it; it != memtable_.end() && held < count; ++it) {
    ++held;
  }
  if (load(mem)) cursors.push_back(mem);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& run = *runs_[i];
    const auto it = std::lower_bound(
        run.entries.begin(), run.entries.end(), start,
        [](const auto& entry, Key k) { return entry.first < k; });
    held += static_cast<std::size_t>(run.entries.end() - it);
    Cursor c{.priority = static_cast<int>(i),
             .run = &run,
             .pos = static_cast<std::size_t>(it - run.entries.begin()),
             .mem_it = {},
             .key = 0,
             .value = nullptr};
    if (load(c)) cursors.push_back(c);
  }

  // When the only source at or after `start` is a tombstone-free run, the
  // rows are that run's slice from `start`: pin the run and view them, with
  // no merge and no copy. Memtable entries are mutable, and a tombstone or
  // a second source needs versions resolved, so every other read merges.
  if (cursors.size() == 1 && cursors[0].run != nullptr &&
      cursors[0].run->tombstone_free) {
    const Cursor& only = cursors[0];
    // A run's priority is its index in runs_.
    out.run_ = runs_[static_cast<std::size_t>(only.priority)];
    out.first_ = only.pos;
    out.size_ = std::min(count, only.run->entries.size() - only.pos);
    return out;
  }

  // The merge collects the winning values; their bytes are copied after it
  // into one buffer of exactly their total size.
  const std::size_t max_rows = std::min(count, held);
  std::vector<const std::string*> values;
  values.reserve(max_rows);
  out.keys_.reserve(max_rows);
  while (!cursors.empty() && out.keys_.size() < count) {
    Key next = cursors.front().key;
    for (const Cursor& c : cursors) next = std::min(next, c.key);
    const Versioned* winner = nullptr;
    int best_priority = -1;
    for (std::size_t i = 0; i < cursors.size();) {
      Cursor& c = cursors[i];
      if (c.key == next) {
        if (c.priority > best_priority) {
          best_priority = c.priority;
          winner = c.value;
        }
        if (c.run == nullptr) {
          ++c.mem_it;
        } else {
          ++c.pos;
        }
        if (!load(c)) {  // Exhausted: the last cursor takes its slot.
          c = cursors.back();
          cursors.pop_back();
          continue;
        }
      }
      ++i;
    }
    if (winner->has_value()) {  // Tombstones return no row.
      out.keys_.push_back(next);
      values.push_back(&**winner);
    }
  }

  std::size_t bytes = 0;
  out.ends_.reserve(values.size());
  for (const std::string* v : values) out.ends_.push_back(bytes += v->size());
  out.bytes_.resize(bytes);
  char* dst = out.bytes_.data();
  for (const std::string* v : values) {
    dst = std::copy(v->begin(), v->end(), dst);
  }
  out.size_ = out.keys_.size();
  return out;
}

void StorageEngine::Flush() {
  if (memtable_.empty()) return;
  auto run = std::make_shared<Run>();
  run->entries.reserve(memtable_.size());
  for (auto& [key, value] : memtable_) {
    run->tombstone_free = run->tombstone_free && value.has_value();
    run->entries.emplace_back(key, std::move(value));
  }
  memtable_.clear();
  runs_.push_back(std::move(run));
  if (runs_.size() > max_runs_) Compact();
}

void StorageEngine::Compact() {
  // Full merge: collect newest versions, drop tombstones.
  std::map<Key, Versioned> merged;
  for (const auto& run : runs_) {  // oldest first; later writes overwrite.
    for (const auto& [key, value] : run->entries) merged[key] = value;
  }
  for (const auto& [key, value] : memtable_) merged[key] = value;
  memtable_.clear();
  runs_.clear();
  auto combined = std::make_shared<Run>();
  combined->entries.reserve(merged.size());
  for (auto& [key, value] : merged) {
    if (value.has_value()) {
      combined->entries.emplace_back(key, std::move(value));
    }
  }
  if (!combined->entries.empty()) runs_.push_back(std::move(combined));
}

std::size_t StorageEngine::LiveKeyCount() const {
  std::set<Key> seen;
  std::size_t live = 0;
  auto visit = [&](Key key, const Versioned& value) {
    if (seen.insert(key).second && value.has_value()) ++live;
  };
  for (const auto& [key, value] : memtable_) visit(key, value);
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    for (const auto& [key, value] : (*run)->entries) visit(key, value);
  }
  return live;
}

}  // namespace e2e::db
