#include "common.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>

#include "testbed/workloads.h"

namespace e2e::bench {

const Trace& StandardTrace(double scale) {
  static std::map<double, Trace> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    TraceGenParams params;
    params.seed = kSeed;
    params.scale = scale;
    it = cache.emplace(scale, TraceGenerator(params).Generate()).first;
  }
  return it->second;
}

const QoeModel& QoeForPage(PageType page) {
  static const SigmoidQoeModel type12 = SigmoidQoeModel::TraceTimeOnSite();
  // Page type 3 is scored by user rating (Fig. 3b), rescaled from grades
  // 1-5 onto [0, 1] so gains are comparable across page types.
  static const NormalizedQoeModel type3 = NormalizedQoeModel::FromGradeScale(
      std::make_shared<const SigmoidQoeModel>(
          SigmoidQoeModel::MTurkMicrosoftPage()));
  return page == PageType::kType3 ? static_cast<const QoeModel&>(type3)
                                  : static_cast<const QoeModel&>(type12);
}

QoeModelSelector PageQoeSelector() {
  return [](PageType page) -> const QoeModel& { return QoeForPage(page); };
}

void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const std::string& setup) {
  std::cout << "==== " << figure << " ====\n"
            << "Paper: " << paper_claim << "\n"
            << "Setup: " << setup << "\n\n";
}

DbExperimentConfig StandardDbConfig(DbPolicy policy, double speedup) {
  DbExperimentConfig config;
  config.policy = policy;
  config.common.speedup = speedup;
  config.dataset_keys = 20000;
  config.value_bytes = 64;
  config.range_count = 100;  // Paper: range queries of 100 rows.
  config.cluster.replica_groups = 3;
  config.cluster.concurrency_per_replica = 160;
  config.cluster.base_service_ms = 220.0;
  config.cluster.capacity = 160.0;
  config.cluster.service_alpha = 8.0;
  config.cluster.service_beta = 1.3;
  config.profile_levels = 16;
  config.profile_max_rps = 100.0;
  config.profile_duration_ms = 60000.0;
  config.common.controller.external.window_ms = 10000.0;  // Paper: 10 s updates.
  config.common.controller.external.min_samples = 50;
  config.common.controller.policy.target_buckets = 24;
  config.common.controller.cache.rps_change_threshold = 0.15;
  config.common.seed = kSeed;
  return config;
}

BrokerExperimentConfig StandardBrokerConfig(BrokerPolicy policy,
                                            double speedup) {
  BrokerExperimentConfig config;
  config.policy = policy;
  config.common.speedup = speedup;
  config.broker.priority_levels = 8;
  config.broker.consume_interval_ms = 5.0;  // Paper: 1 msg / 5 ms.
  config.broker.num_consumers = 1;
  config.common.controller.external.window_ms = 10000.0;
  config.common.controller.external.min_samples = 50;
  config.common.controller.policy.target_buckets = 16;
  config.common.seed = kSeed;
  return config;
}

bool TelemetryRequested(const Flags& flags) {
  return flags.Has("metrics_out");
}

bool ResilienceRequested(const Flags& flags) {
  const std::string value = flags.GetString("resilience", "off");
  if (value == "off") return false;
  if (value == "on") return true;
  std::cerr << "bad --resilience: expected 'off' or 'on', got '" << value
            << "'\n";
  std::exit(2);
}

resilience::ResilienceConfig StandardResilience(Testbed testbed) {
  return testbed == Testbed::kDb
             ? resilience::ResilienceConfig::DbAllOn()
             : resilience::ResilienceConfig::BrokerAllOn();
}

void WriteTelemetrySidecar(const Flags& flags, const std::string& label,
                           const ExperimentResult& result) {
  if (!flags.Has("metrics_out") || result.telemetry.empty()) return;
  const std::string base = flags.GetString("metrics_out", "");
  const auto dot = base.rfind('.');
  const auto slash = base.rfind('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::string stem = has_ext ? base.substr(0, dot) : base;
  const std::string ext = has_ext ? base.substr(dot) : ".txt";
  const std::string path = stem + "." + label + ext;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open --metrics_out sidecar " + path);
  }
  out << (ext == ".json" ? result.telemetry.SerializeJson()
                         : result.telemetry.SerializeText());
}

const std::vector<TraceRecord>& TestbedSlice() {
  static const std::vector<TraceRecord> slice = [] {
    const Trace& trace = StandardTrace(1.0);
    return HourSlice(trace, PageType::kType1, 16, 17);
  }();
  return slice;
}

}  // namespace e2e::bench
