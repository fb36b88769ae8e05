#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <ctime>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace e2e::perfbench {
namespace {

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

// 1-based nearest rank of percentile p among n samples. The epsilon keeps
// p/100*n from rounding up past an exact integer (0.999 * 10000).
double NearestRank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

std::string FullDigits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), IsNameChar);
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsNameChar(c) || c == '/' || c == '%';
  });
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("Percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("Percentile: p outside (0, 100]");
  }
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const auto rank =
      static_cast<std::size_t>(NearestRank(p, samples.size()));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double TailPercentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) - NearestRank(p, n) >= 10.0) return p;
  }
  return 0.0;
}

std::string PercentileLabel(double p) {
  if (p == 99.9) return "p99.9";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(p));
  return buf;
}

void Ledger::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!IsValidMetricName(name)) {
    throw std::invalid_argument("bad metric name '" + name + "'");
  }
  if (!IsValidUnit(unit)) {
    throw std::invalid_argument("bad unit '" + unit + "' for " + name);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::invalid_argument("duplicate metric " + name);
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

const Metric& Ledger::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("no metric " + name);
}

void Ledger::Print(std::ostream& out) const {
  for (const Metric& m : metrics_) {
    out << "metric " << m.name << ' ' << FullDigits(m.value) << ' ' << m.unit
        << '\n';
  }
}

void RunOutcome::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

std::string ResultLine(const RunOutcome& outcome, const Ledger& ledger,
                       const std::vector<std::string>& keys) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted()
      << ", \"failed\": " << outcome.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Metric& m = ledger.Get(keys[i]);
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << FullDigits(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ReferenceSeconds() {
  static volatile double sink = 0.0;
  const double start = WallSeconds();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64: fixed inputs.
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<double> values(std::size_t{1} << 16);
  for (double& v : values) {
    v = static_cast<double>(next() >> 11) * 0x1.0p-53 * 10000.0;
  }
  std::sort(values.begin(), values.end());
  double acc = 0.0;
  for (const double v : values) {
    acc += 1.0 / (1.0 + std::exp((v - 5000.0) / 1000.0));
  }
  std::map<std::uint64_t, double> ordered;
  for (int i = 0; i < 40000; ++i) {
    ordered.emplace(next() & 0xfffff, acc);
    if (ordered.size() > 4096) ordered.erase(ordered.begin());
  }
  sink = sink + acc + static_cast<double>(ordered.size());
  return WallSeconds() - start;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace e2e::perfbench
