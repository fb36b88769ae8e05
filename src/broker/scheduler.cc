#include "broker/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace e2e::broker {

int FifoScheduler::AssignPriority(const Message& /*message*/,
                                  const BrokerView& view) {
  if (view.queue_depths.empty()) {
    throw std::invalid_argument("FifoScheduler: empty view");
  }
  // One shared level: priority queues degenerate to publish-order FIFO.
  return 0;
}

void TableScheduler::SetTable(DecisionTable table) {
  table.Validate();
  table_ = std::move(table);
}

int TableScheduler::AssignPriority(const Message& message,
                                   const BrokerView& view) {
  if (view.queue_depths.empty()) {
    throw std::invalid_argument("TableScheduler: empty view");
  }
  if (!HasTable()) {
    return 0;  // No table yet: behave like FIFO (fault-tolerance fallback).
  }
  return std::min<int>(table_.Lookup(message.external_delay_ms),
                       static_cast<int>(view.queue_depths.size()) - 1);
}

DeadlineScheduler::DeadlineScheduler(DelayMs deadline_ms, DelayMs max_slack_ms)
    : deadline_ms_(deadline_ms), max_slack_ms_(max_slack_ms) {
  if (deadline_ms_ <= 0.0 || max_slack_ms_ <= 0.0) {
    throw std::invalid_argument("DeadlineScheduler: non-positive parameter");
  }
}

int DeadlineScheduler::AssignPriority(const Message& message,
                                      const BrokerView& view) {
  if (view.queue_depths.empty()) {
    throw std::invalid_argument("DeadlineScheduler: empty view");
  }
  const int levels = static_cast<int>(view.queue_depths.size());
  const DelayMs slack = deadline_ms_ - message.external_delay_ms;
  if (slack <= 0.0) {
    // Already past the deadline: a deadline-driven policy sees zero value
    // in such requests, so they all share the lowest priority — the exact
    // blindness Fig. 21 exposes.
    return levels - 1;
  }
  // Smaller slack -> higher priority. Slack >= max_slack maps to the
  // second-to-last level (still above expired requests).
  const int urgent_levels = std::max(1, levels - 1);
  const double frac = std::min(1.0, slack / max_slack_ms_);
  const int level = std::min(urgent_levels - 1,
                             static_cast<int>(frac * urgent_levels));
  return level;
}

std::string DeadlineScheduler::Name() const {
  return "timecard-deadline-" + std::to_string(static_cast<int>(deadline_ms_));
}

}  // namespace e2e::broker
