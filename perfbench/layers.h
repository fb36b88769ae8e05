// Pass-through decorators that time the calls the policy makes into the
// server-delay model G(.) and the QoE model Q(.). They forward every call
// unchanged, so a run through them produces the same bytes as a run
// without them; the difference in wall time is the tracing overhead.
//
// The counters are plain (non-atomic) fields: a decorator must only be
// used on a serial path (one thread at a time), which is how the traced
// re-drives use them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/server_delay_model.h"
#include "qoe/qoe_model.h"

namespace e2e::perfbench {

/// Calls into one layer and the wall time spent inside them.
struct CallLedger {
  std::uint64_t calls = 0;
  std::uint64_t overload_calls = 0;  ///< G's IsOverloaded (G only).
  double seconds = 0.0;
};

/// Cost of one steady-clock read, calibrated once per process. Each timed
/// call's interval holds about one read beyond the call itself.
double ClockReadSeconds();

/// `ledger.seconds` less the clock reads its timed calls added: the time
/// spent inside the layer (never below zero).
double LayerSeconds(const CallLedger& ledger);

/// Times DelayDistribution and IsOverloaded on `base` into `ledger`. Both
/// must outlive the decorator.
class TracedServerModel final : public ServerDelayModel {
 public:
  TracedServerModel(const ServerDelayModel& base, CallLedger& ledger)
      : base_(base), ledger_(ledger) {}

  int NumDecisions() const override { return base_.NumDecisions(); }
  DiscreteDistribution DelayDistribution(
      int decision, std::span<const double> load_fractions,
      double total_rps) const override;
  std::string Name() const override { return base_.Name(); }
  bool IsOverloaded(int decision, std::span<const double> load_fractions,
                    double total_rps) const override;

 private:
  const ServerDelayModel& base_;
  CallLedger& ledger_;
};

/// Times Qoe and Derivative on `base` into `ledger`. The base model is
/// shared so the decorator can stand in wherever a QoeModelPtr goes.
class TracedQoeModel final : public QoeModel {
 public:
  TracedQoeModel(QoeModelPtr base, CallLedger& ledger)
      : base_(std::move(base)), ledger_(ledger) {}

  double Qoe(DelayMs total_delay) const override;
  std::string Name() const override { return base_->Name(); }
  DelayMs SensitiveLo() const override { return base_->SensitiveLo(); }
  DelayMs SensitiveHi() const override { return base_->SensitiveHi(); }
  double MaxQoe() const override { return base_->MaxQoe(); }
  double Derivative(DelayMs total_delay) const override;

 private:
  QoeModelPtr base_;
  CallLedger& ledger_;
};

}  // namespace e2e::perfbench
