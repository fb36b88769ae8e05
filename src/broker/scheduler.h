// Message-scheduling policies (the decision surface E2E controls in the
// broker use case).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/policy.h"
#include "util/types.h"

namespace e2e::broker {

/// A published message. As in the database use case, the external delay is
/// tagged onto the message by the frontend.
struct Message {
  RequestId id = 0;
  DelayMs external_delay_ms = 0.0;
  std::size_t payload_bytes = 1024;
};

/// What a scheduler may observe at decision time.
struct BrokerView {
  /// Queue depth per priority level (index 0 = highest priority).
  std::vector<int> queue_depths;
};

/// Priority-assignment policy. Priority 0 is served first.
class MessageScheduler {
 public:
  virtual ~MessageScheduler() = default;

  /// Returns a priority level in [0, view.queue_depths.size()).
  virtual int AssignPriority(const Message& message,
                             const BrokerView& view) = 0;

  /// Policy name for reports.
  virtual std::string Name() const = 0;
};

/// The paper's default policy: FIFO — every message gets the same priority,
/// so delivery order equals publish order.
class FifoScheduler final : public MessageScheduler {
 public:
  int AssignPriority(const Message& message, const BrokerView& view) override;
  std::string Name() const override { return "default-fifo"; }
};

/// Table-driven scheduler: the controller's decision table (§5) applied to
/// the broker, each row's decision read as a priority level. The
/// slope-based baseline installs a table of the same shape.
class TableScheduler final : public MessageScheduler {
 public:
  explicit TableScheduler(std::string name) : name_(std::move(name)) {}

  /// Atomically replaces the table; throws std::invalid_argument when
  /// DecisionTable::Validate does.
  void SetTable(DecisionTable table);

  /// True when a table with rows has been installed.
  bool HasTable() const { return !table_.rows.empty(); }

  /// The installed table.
  const DecisionTable& table() const { return table_; }

  /// The table's decision for the message, clamped to the view's levels;
  /// 0 (FIFO) before any table is installed.
  int AssignPriority(const Message& message, const BrokerView& view) override;
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  DecisionTable table_;
};

/// Deadline-driven scheduler in the style of Timecard (§7.4): each request
/// has a total-delay deadline; the scheduler maximizes the number of
/// requests served within it by prioritizing the smallest remaining slack
/// (deadline - external delay). Requests that already exceeded the deadline
/// are indistinguishable to it and all drop to the lowest priority.
class DeadlineScheduler final : public MessageScheduler {
 public:
  /// `deadline_ms` is the total-delay deadline (paper: 2.0/3.4/5.9 s).
  /// `max_slack_ms` is the slack mapped to the lowest urgent priority.
  DeadlineScheduler(DelayMs deadline_ms, DelayMs max_slack_ms);

  int AssignPriority(const Message& message, const BrokerView& view) override;
  std::string Name() const override;

 private:
  DelayMs deadline_ms_;
  DelayMs max_slack_ms_;
};

}  // namespace e2e::broker
