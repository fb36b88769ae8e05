// perfbench: runs one benchmark workload and prints its report. The last
// line of standard output is the result object:
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Lines before it are "metric <name> <value> <unit>" (every figure, by the
// names README.md lists), "check <name> <value>" (the deterministic output
// values run.py compares against expected.json) and "FAILED <what>" for a
// failed output check. Exit code 2 on a usage error, 1 when the run throws.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace e2e::perfbench {
namespace {

// Parses "--key value" and "--key=value" pairs.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("--" + arg + " needs a value");
    }
    if (!args.emplace(arg, value).second) {
      throw std::invalid_argument("--" + arg + " given twice");
    }
  }
  return args;
}

// Whole-string numeric parses: "4x" is an error, not 4.
std::uint64_t ParseUnsigned(const std::string& key, const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size() || s.front() == '-') {
    throw std::invalid_argument("--" + key + ": not a whole number: " + s);
  }
  return v;
}

double ParsePositive(const std::string& key, const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size() || !(v > 0.0)) {
    throw std::invalid_argument("--" + key + ": not a positive number: " + s);
  }
  return v;
}

RunOptions ParseOptions(int argc, char** argv) {
  RunOptions o;
  for (const auto& [key, value] : ParseArgs(argc, argv)) {
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      o.seed = ParseUnsigned(key, value);
    } else if (key == "seconds") {
      o.seconds = ParsePositive(key, value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: expected 0 or 1");
      }
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == o.workload;
  if (!known) {
    std::string names;
    for (const std::string& w : WorkloadNames()) names += " " + w;
    throw std::invalid_argument("--workload: expected one of" + names);
  }
  return o;
}

int Main(int argc, char** argv) {
  RunOptions options;
  try {
    options = ParseOptions(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    std::cout << "perfbench workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    const RunReport report = RunWorkload(options);
    report.metrics.Print(std::cout);
    report.detail.Print(std::cout);
    for (const Metric& c : report.checks.metrics()) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", c.value);
      std::cout << "check " << c.name << ' ' << value << "\n";
    }
    for (const std::string& f : report.outcome.failures()) {
      std::cout << "FAILED " << f << "\n";
    }
    std::cout << ResultLine(report.outcome, report.metrics,
                            options.trace ? PerLayerMetricNames()
                                          : EndToEndMetricNames())
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace e2e::perfbench

int main(int argc, char** argv) { return e2e::perfbench::Main(argc, argv); }
