// Spatial coarsening (§5): split the external-delay range into k intervals
// so that (1) the request population is evenly split across intervals and
// (2) no interval spans more than a threshold delta. The decision policy then
// runs over buckets instead of individual requests.
//
// Two construction modes share one bucketing algorithm:
//  * batch — the one-shot constructor over a complete sample set;
//  * streaming — an empty bucketizer that accumulates samples one at a time
//    (Add), so the replay builds each group's stats as its records arrive
//    instead of batch-collecting the whole window (docs/SCALE.md).
// The buckets are always rebuilt from the ascending-sorted sample multiset,
// so Adds in any order that accumulate the same multiset yield bit-identical
// buckets, the batch constructor's over the same samples included.
// tests/scale_test.cc property-checks exactly this.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace e2e {

/// One external-delay interval [lo, hi) plus its population statistics.
struct Bucket {
  double lo = 0.0;            ///< Inclusive lower edge.
  double hi = 0.0;            ///< Exclusive upper edge (inclusive for last).
  double representative = 0;  ///< Mean of the member samples.
  std::size_t population = 0; ///< Number of member samples.

  /// Fraction of total population in this bucket.
  double weight = 0.0;
};

/// Bucketization of a sample multiset. The bucket view is a pure function
/// of (sample multiset, target_buckets, max_span); accumulation order never
/// reaches it.
class Bucketizer {
 public:
  /// Builds buckets from `samples` targeting `target_buckets` equal-population
  /// intervals; any interval wider than `max_span` is split further, so the
  /// result can have more than `target_buckets` buckets. Every bucket holds at
  /// least one sample, and the buckets tile [first.lo, last.hi) contiguously:
  /// empty intervals are absorbed into the bucket below them, so a bucket's
  /// *boundary* span can exceed `max_span` across sample-free regions — the
  /// span of its member samples never does. Throws when samples are empty,
  /// target_buckets < 1, or max_span is not > 0 (NaN included).
  Bucketizer(std::span<const double> samples, int target_buckets,
             double max_span);

  /// Streaming mode: starts empty; feed samples with Add. Throws when
  /// target_buckets < 1 or max_span is not > 0 (NaN included).
  Bucketizer(int target_buckets, double max_span);

  /// Adds one sample. Amortized O(1); the bucket view is rebuilt lazily on
  /// the next read.
  void Add(double sample);

  /// Number of accumulated samples.
  std::size_t sample_count() const { return samples_.size(); }

  /// True when no samples have been accumulated yet.
  bool empty() const { return samples_.empty(); }

  /// The accumulated samples, sorted ascending. (The per-request policy
  /// path builds its one-bucket-per-distinct-delay view from these.)
  std::span<const double> samples() const;

  int target_buckets() const { return target_buckets_; }
  double max_span() const { return max_span_; }

  /// The buckets, ordered by interval. Throws std::logic_error when no
  /// samples have been accumulated.
  std::span<const Bucket> buckets() const;

  /// Number of buckets. Throws std::logic_error when empty.
  std::size_t size() const { return buckets().size(); }

  /// Index of the bucket containing x (clamped to first/last bucket).
  /// Throws std::logic_error when empty.
  std::size_t BucketIndex(double x) const;

 private:
  /// Sorts samples and rebuilds the bucket view when stale.
  void Refresh() const;

  int target_buckets_ = 0;
  double max_span_ = 0.0;
  // Lazily sorted/rebuilt on read: accumulation stays O(1) per sample and
  // the (deterministic) rebuild runs once per window close, not per Add.
  mutable std::vector<double> samples_;
  mutable std::vector<Bucket> buckets_;
  mutable bool sorted_ = true;
  mutable bool built_ = false;
};

}  // namespace e2e
