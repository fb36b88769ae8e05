// The benchmark's metric ledger: named, unit-tagged values, the percentile
// rule, run-level outcome counts, and the clocks the benchmark reads.
//
// Every value the benchmark reports goes through a Ledger, which enforces the
// metric-name and unit grammar of BENCHMARK.json and refuses duplicates and
// non-finite values, so a malformed metric fails the run instead of reaching
// the output line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace e2e::perfbench {

/// Metric names the output line carries with `--trace 0` (every workload
/// reports all of them; README.md defines each per workload).
inline const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "run_s", "peak_rss_mb", "mean_qoe"};
  return names;
}

/// Metric names the output line carries with `--trace 1`.
inline const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "trace.generate_s",
      "core.g.build_s",
      "ingest_s",
      "core.policy.solves",
      "core.policy.solve_s",
      "core.policy.solve_us.p50",
      "core.policy.solve_us.p90",
      "core.policy.self_s",
      "core.policy.transport_solves",
      "core.policy.warm_resolves",
      "core.policy.warm_ratio",
      "core.policy.allocations_evaluated",
      "core.policy.hill_climb_steps",
      "core.g.calls",
      "core.g.overload_calls",
      "core.g.s",
      "qoe.calls",
      "qoe.s",
      "core.table.lookup_ns",
      "testbed.self_s",
      "tracing_overhead_s",
      "sim.events",
      "db.requests",
      "db.failovers",
  };
  return names;
}

/// Metric-name grammar: starts with a letter or digit; at most 64 letters,
/// digits, '_', '.' and '-'.
bool IsValidMetricName(std::string_view name);

/// Unit grammar: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool IsValidUnit(std::string_view unit);

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`. Throws on an
/// empty sample set or p outside (0, 100].
double Percentile(std::vector<double> samples, double p);

/// Median (the nearest-rank p50) of `samples`; throws when empty.
double Median(std::vector<double> samples);

/// The highest of p99.9, p99 and p90 that leaves at least ten of `n`
/// samples beyond it under the nearest-rank rule, or 0 when even p90 does
/// not (fewer than 100 samples) — then only the median is reportable.
double TailPercentile(std::size_t n);

/// "p90", "p99", "p99.9" for the percentiles TailPercentile returns.
std::string PercentileLabel(double p);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered, duplicate-free set of metrics.
class Ledger {
 public:
  /// Appends a metric. Throws std::invalid_argument on a malformed name or
  /// unit, a duplicate name, or a non-finite value.
  void Add(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The metric called `name`; throws std::out_of_range when absent.
  const Metric& Get(const std::string& name) const;

  /// Writes one "metric <name> <value> <unit>" line per metric.
  void Print(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
};

/// Output checks and operation counts of one run. A failed check counts as
/// a failed operation.
class RunOutcome {
 public:
  void Attempt(std::uint64_t ops) { attempted_ += ops; }
  void Fail(std::uint64_t ops) { failed_ += ops; }

  /// Records a check; when `ok` is false the run is marked incorrect, one
  /// failed operation is counted, and `what` is kept for the report.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failures_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The output line: {"correct", "attempted", "failed", "metrics"} with the
/// metrics of `ledger` named in `keys`, in that order, every value printed
/// with all 17 significant digits. Throws when a key is missing.
std::string ResultLine(const RunOutcome& outcome, const Ledger& ledger,
                       const std::vector<std::string>& keys);

/// Monotonic wall time in seconds (only differences are meaningful).
double WallSeconds();

/// CPU time of the whole process (all threads) in seconds.
double CpuSeconds();

/// Wall seconds of one run of the reference kernel: sorting and scoring
/// 2^16 pseudo-random doubles, then 40,000 ordered-map updates, on fixed
/// inputs (~10 ms). Timed next to a measurement, it reads how fast the host
/// currently runs the kind of work the workloads do.
double ReferenceSeconds();

/// The reference kernel time calibrated metrics are scaled to.
inline constexpr double kReferenceNominalSeconds = 0.010;

/// `wall` seconds measured while the reference kernel took `reference`
/// seconds, rescaled to a host on which it takes kReferenceNominalSeconds.
/// On a shared machine this cancels most of the neighbours' slowdown, which
/// stretches the kernel and the measured work alike.
inline double CalibratedSeconds(double wall, double reference) {
  return wall * kReferenceNominalSeconds / reference;
}

/// Peak resident set size of the process in MiB.
double PeakRssMb();

}  // namespace e2e::perfbench
