#include "db/storage.h"

#include <algorithm>
#include <set>

namespace e2e::db {

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
    const auto it = std::lower_bound(
        run->begin(), run->end(), key,
        [](const auto& entry, Key k) { return entry.first < k; });
    if (it != run->end() && it->first == key) return &it->second;
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
      if (c.pos == c.run->size()) return false;
      c.key = (*c.run)[c.pos].first;
      c.value = &(*c.run)[c.pos].second;
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
    const Run& run = runs_[i];
    const auto it = std::lower_bound(
        run.begin(), run.end(), start,
        [](const auto& entry, Key k) { return entry.first < k; });
    held += static_cast<std::size_t>(run.end() - it);
    Cursor c{.priority = static_cast<int>(i),
             .run = &run,
             .pos = static_cast<std::size_t>(it - run.begin()),
             .mem_it = {},
             .key = 0,
             .value = nullptr};
    if (load(c)) cursors.push_back(c);
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
  return out;
}

void StorageEngine::Flush() {
  if (memtable_.empty()) return;
  Run run;
  run.reserve(memtable_.size());
  for (auto& [key, value] : memtable_) {
    run.emplace_back(key, std::move(value));
  }
  memtable_.clear();
  runs_.push_back(std::move(run));
  if (runs_.size() > max_runs_) Compact();
}

void StorageEngine::Compact() {
  // Full merge: collect newest versions, drop tombstones.
  std::map<Key, Versioned> merged;
  for (const Run& run : runs_) {  // oldest first; later writes overwrite.
    for (const auto& [key, value] : run) merged[key] = value;
  }
  for (const auto& [key, value] : memtable_) merged[key] = value;
  memtable_.clear();
  runs_.clear();
  Run combined;
  combined.reserve(merged.size());
  for (auto& [key, value] : merged) {
    if (value.has_value()) combined.emplace_back(key, std::move(value));
  }
  if (!combined.empty()) runs_.push_back(std::move(combined));
}

std::size_t StorageEngine::LiveKeyCount() const {
  std::set<Key> seen;
  std::size_t live = 0;
  auto visit = [&](Key key, const Versioned& value) {
    if (seen.insert(key).second && value.has_value()) ++live;
  };
  for (const auto& [key, value] : memtable_) visit(key, value);
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    for (const auto& [key, value] : *run) visit(key, value);
  }
  return live;
}

}  // namespace e2e::db
