#include "layers.h"

#include <algorithm>
#include <chrono>
#include <vector>

namespace e2e::perfbench {
namespace {

using Steady = std::chrono::steady_clock;

double Since(Steady::time_point start) {
  return std::chrono::duration<double>(Steady::now() - start).count();
}

}  // namespace

double ClockReadSeconds() {
  static const double cost = [] {
    // Median of several batches, so one preempted batch cannot skew it.
    constexpr int kReads = 100000;
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
      const auto start = Steady::now();
      Steady::time_point last = start;
      for (int i = 0; i < kReads; ++i) last = Steady::now();
      batches.push_back(std::chrono::duration<double>(last - start).count() /
                        kReads);
    }
    std::nth_element(batches.begin(), batches.begin() + 4, batches.end());
    return batches[4];
  }();
  return cost;
}

double LayerSeconds(const CallLedger& ledger) {
  const auto calls = static_cast<double>(ledger.calls + ledger.overload_calls);
  return std::max(0.0, ledger.seconds - calls * ClockReadSeconds());
}

DiscreteDistribution TracedServerModel::DelayDistribution(
    int decision, std::span<const double> load_fractions,
    double total_rps) const {
  const auto start = Steady::now();
  DiscreteDistribution d =
      base_.DelayDistribution(decision, load_fractions, total_rps);
  ledger_.seconds += Since(start);
  ++ledger_.calls;
  return d;
}

bool TracedServerModel::IsOverloaded(int decision,
                                     std::span<const double> load_fractions,
                                     double total_rps) const {
  const auto start = Steady::now();
  const bool overloaded =
      base_.IsOverloaded(decision, load_fractions, total_rps);
  ledger_.seconds += Since(start);
  ++ledger_.overload_calls;
  return overloaded;
}

double TracedQoeModel::Qoe(DelayMs total_delay) const {
  const auto start = Steady::now();
  const double q = base_->Qoe(total_delay);
  ledger_.seconds += Since(start);
  ++ledger_.calls;
  return q;
}

double TracedQoeModel::Derivative(DelayMs total_delay) const {
  const auto start = Steady::now();
  const double d = base_->Derivative(total_delay);
  ledger_.seconds += Since(start);
  ++ledger_.calls;
  return d;
}

}  // namespace e2e::perfbench
