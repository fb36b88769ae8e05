#include "stats/divergence.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e {
namespace {

constexpr double kEpsilon = 1e-12;

double Log2(double x) { return std::log(x) / std::log(2.0); }

}  // namespace

FixedHistogram::FixedHistogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi) {
  // An infinite bound makes Add's bin NaN (lo = -inf, cast to long is
  // undefined) or 0 for every finite sample (hi = +inf).
  if (!std::isfinite(lo)) {
    throw std::invalid_argument("FixedHistogram: lo not finite");
  }
  if (!std::isfinite(hi)) {
    throw std::invalid_argument("FixedHistogram: hi not finite");
  }
  if (!(lo < hi) || bins < 1) {
    throw std::invalid_argument("FixedHistogram: need lo < hi and bins >= 1");
  }
  counts_.assign(static_cast<std::size_t>(bins), 0);
}

void FixedHistogram::Add(double x) {
  const double norm = (x - lo_) / (hi_ - lo_);
  const auto bin = std::clamp<long>(
      static_cast<long>(norm * static_cast<double>(counts_.size())), 0,
      static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void FixedHistogram::AddAll(std::span<const double> xs) {
  for (double x : xs) Add(x);
}

std::vector<double> FixedHistogram::Probabilities() const {
  std::vector<double> probs(counts_.size(), 0.0);
  if (total_ == 0) return probs;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    probs[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return probs;
}

void FixedHistogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), std::size_t{0});
  total_ = 0;
}

double KlDivergence(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size() || p.empty()) {
    throw std::invalid_argument("KlDivergence: size mismatch or empty");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    total += p[i] * Log2(p[i] / std::max(q[i], kEpsilon));
  }
  return total;
}

double JsDivergence(std::span<const double> p, std::span<const double> q) {
  if (p.size() != q.size() || p.empty()) {
    throw std::invalid_argument("JsDivergence: size mismatch or empty");
  }
  std::vector<double> m(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) m[i] = 0.5 * (p[i] + q[i]);
  return 0.5 * KlDivergence(p, m) + 0.5 * KlDivergence(q, m);
}

double JsDivergenceOfSamples(std::span<const double> a,
                             std::span<const double> b, double lo, double hi,
                             int bins) {
  FixedHistogram ha(lo, hi, bins);
  FixedHistogram hb(lo, hi, bins);
  ha.AddAll(a);
  hb.AddAll(b);
  const auto pa = ha.Probabilities();
  const auto pb = hb.Probabilities();
  return JsDivergence(pa, pb);
}

}  // namespace e2e
