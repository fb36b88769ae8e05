#include "db/storage.h"

#include <algorithm>
#include <stdexcept>

namespace e2e::db {

RowView RowSet::operator[](std::size_t i) const {
  const auto& [key, value] = (*rows_)[first_ + i];
  return {key, value};
}

RowView RowSet::front() const {
  if (empty()) throw std::out_of_range("RowSet::front: empty set");
  return (*this)[0];
}

RowView RowSet::back() const {
  if (empty()) throw std::out_of_range("RowSet::back: empty set");
  return (*this)[size_ - 1];
}

StorageEngine::StorageEngine(Rows rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].first <= rows[i - 1].first) {
      throw std::invalid_argument(
          "StorageEngine: keys not strictly ascending at row " +
          std::to_string(i));
    }
  }
  rows_ = std::make_shared<const Rows>(std::move(rows));
}

RowSet StorageEngine::RangeQuery(Key start, std::size_t count) const {
  const auto first = std::lower_bound(
      rows_->begin(), rows_->end(), start,
      [](const auto& row, Key k) { return row.first < k; });
  RowSet out;
  out.rows_ = rows_;
  out.first_ = static_cast<std::size_t>(first - rows_->begin());
  out.size_ = std::min(count, rows_->size() - out.first_);
  return out;
}

}  // namespace e2e::db
