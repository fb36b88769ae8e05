#include "stats/bucketizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace e2e {

Bucketizer::Bucketizer(std::span<const double> samples, int target_buckets,
                       double max_span)
    : Bucketizer(target_buckets, max_span) {
  if (samples.empty()) {
    throw std::invalid_argument("Bucketizer: empty samples");
  }
  samples_.assign(samples.begin(), samples.end());
  sorted_ = false;
}

Bucketizer::Bucketizer(int target_buckets, double max_span)
    : target_buckets_(target_buckets), max_span_(max_span) {
  if (target_buckets < 1) {
    throw std::invalid_argument("Bucketizer: target_buckets < 1");
  }
  if (!(max_span > 0.0)) {  // NaN fails too.
    throw std::invalid_argument("Bucketizer: max_span <= 0");
  }
}

void Bucketizer::Add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
  built_ = false;
}

std::span<const double> Bucketizer::samples() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

std::span<const Bucket> Bucketizer::buckets() const {
  Refresh();
  return buckets_;
}

std::size_t Bucketizer::BucketIndex(double x) const {
  Refresh();
  // Binary search over bucket lower edges.
  std::size_t lo = 0;
  std::size_t hi = buckets_.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (x >= buckets_[mid].lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Bucketizer::Refresh() const {
  if (samples_.empty()) {
    throw std::logic_error("Bucketizer: no samples accumulated");
  }
  if (built_ && sorted_) return;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  buckets_.clear();
  const std::vector<double>& sorted = samples_;

  // Candidate edges: equal-population quantile cuts...
  std::vector<double> edges;
  edges.push_back(sorted.front());
  for (int i = 1; i < target_buckets_; ++i) {
    const auto pos = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(sorted.size()) /
        static_cast<double>(target_buckets_));
    edges.push_back(sorted[std::min(pos, sorted.size() - 1)]);
  }
  edges.push_back(sorted.back());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  if (edges.size() == 1) edges.push_back(edges.front());

  // ...then split any interval wider than max_span into equal-width pieces.
  std::vector<double> refined;
  refined.push_back(edges.front());
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const double lo = edges[i - 1];
    const double hi = edges[i];
    const int pieces = std::max(1, static_cast<int>(std::ceil(
                                       (hi - lo) / max_span_ - 1e-9)));
    for (int p = 1; p <= pieces; ++p) {
      // Use the exact edge for the last piece so no sample can fall outside
      // the final interval due to floating-point rounding.
      refined.push_back(p == pieces ? hi
                                    : lo + (hi - lo) * static_cast<double>(p) /
                                          static_cast<double>(pieces));
    }
  }

  // Materialize buckets with population stats; drop empty intervals except
  // when that would leave none.
  std::size_t begin = 0;
  for (std::size_t i = 1; i < refined.size(); ++i) {
    const double lo = refined[i - 1];
    const double hi = refined[i];
    const bool last = i + 1 == refined.size();
    std::size_t end = begin;
    while (end < sorted.size() &&
           (sorted[end] < hi || (last && sorted[end] <= hi))) {
      ++end;
    }
    if (end > begin) {
      Bucket b;
      b.lo = lo;
      b.hi = hi;
      b.population = end - begin;
      double sum = 0.0;
      for (std::size_t k = begin; k < end; ++k) sum += sorted[k];
      b.representative = sum / static_cast<double>(b.population);
      buckets_.push_back(b);
    }
    begin = end;
  }
  if (buckets_.empty()) {
    Bucket b;
    b.lo = sorted.front();
    b.hi = sorted.back();
    b.population = sorted.size();
    b.representative =
        std::accumulate(sorted.begin(), sorted.end(), 0.0) /
        static_cast<double>(sorted.size());
    buckets_.push_back(b);
  }
  // Dropping an empty interval above leaves a hole between the surviving
  // neighbors: a later query inside the hole binary-searches (on lo) into
  // the bucket *below* it even when the one above is nearer. Stitch each
  // kept bucket up to its successor so the buckets tile
  // [first.lo, last.hi) with no gaps. (Holes are interior-only: the first
  // and last refined intervals contain min/max samples, so they survive.)
  for (std::size_t i = 0; i + 1 < buckets_.size(); ++i) {
    buckets_[i].hi = buckets_[i + 1].lo;
  }
  for (Bucket& b : buckets_) {
    b.weight = static_cast<double>(b.population) /
               static_cast<double>(sorted.size());
  }
  built_ = true;
}

}  // namespace e2e
