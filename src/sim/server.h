// A simulated processing station with load-dependent service times.
//
// Database replicas (src/db) are built on this: jobs queue FIFO behind a
// bounded number of service slots, and each job's service time is drawn
// from a caller-supplied profile of the *current* load, reproducing the
// convex load→latency curves the paper profiles offline (§6). A job in
// service keeps its completion and timing in a reused slot of the server,
// so its completion event allocates nothing (docs/PERFORMANCE.md §7).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace e2e {

/// Timing of one completed job.
struct JobTiming {
  double enqueue_ms = 0.0;  ///< Virtual time the job was submitted.
  double start_ms = 0.0;    ///< Virtual time service began.
  double finish_ms = 0.0;   ///< Virtual time service completed.

  double QueueDelayMs() const { return start_ms - enqueue_ms; }
  double ServiceDelayMs() const { return finish_ms - start_ms; }
  double TotalDelayMs() const { return finish_ms - enqueue_ms; }
};

/// Draws a service time (ms) given the number of jobs being served
/// concurrently (including the starting job) at service start. Queued jobs
/// are excluded: they contribute queueing delay, not service contention.
using ServiceTimeFn = std::function<double(int in_service, Rng& rng)>;

/// FIFO station with `concurrency` parallel service slots.
class SimServer {
 public:
  using Completion = std::function<void(const JobTiming&)>;

  /// `loop` must outlive the server.
  SimServer(std::string name, EventLoop& loop, int concurrency,
            ServiceTimeFn service_time, Rng rng);

  /// Submits a job; `done` fires on the event loop when service completes.
  void Submit(Completion done);

  /// Jobs currently queued or in service.
  int Load() const { return in_service_ + static_cast<int>(queue_.size()); }

  /// Jobs waiting (not yet in service).
  int QueueLength() const { return static_cast<int>(queue_.size()); }

  /// Fault injection: a fixed extra service delay added to every job that
  /// starts while set (fault::FaultInjector's "delay db" clause). Throws
  /// std::invalid_argument on negative or non-finite values.
  void SetExtraServiceDelayMs(double extra_ms);
  double extra_service_delay_ms() const { return extra_service_delay_ms_; }

  /// Completed-job statistics.
  const StreamingSummary& total_delay_stats() const { return total_stats_; }
  const StreamingSummary& service_delay_stats() const { return service_stats_; }
  std::uint64_t completed_count() const { return completed_; }
  const std::string& name() const { return name_; }

  /// Busy server-milliseconds integral up to `now_ms`: the exact
  /// ∫ in_service(t) dt of this server's virtual history. Dividing a
  /// window's increment by (window length × capacity) yields the true
  /// busy-period utilization over that window — unlike sampling the load at
  /// arrival instants, which oversamples busy periods exactly when arrivals
  /// cluster (the PASTA property only holds for Poisson arrivals, and
  /// replayed traces are anything but). `now_ms` must not precede the last
  /// state transition (any current loop time is safe).
  double BusyServerMs(double now_ms) const {
    return busy_ms_integral_ +
           static_cast<double>(in_service_) * (now_ms - busy_last_update_ms_);
  }

 private:
  struct Pending {
    Completion done;
    double enqueue_ms;
  };
  // A job in service. Its completion event captures only (this, slot), so
  // the closure fits std::function's local buffer and allocates nothing.
  struct InService {
    Completion done;
    JobTiming timing;
  };

  void TryStart();
  // The completion event of the job in `slot`.
  void Complete(std::size_t slot);
  // Folds the elapsed span at the current in_service_ level into
  // busy_ms_integral_; call immediately before every in_service_ change.
  void AccumulateBusy();

  std::string name_;
  EventLoop& loop_;
  int concurrency_;
  ServiceTimeFn service_time_;
  Rng rng_;
  std::deque<Pending> queue_;
  // Reused through free_slots_; never more than `concurrency_` entries.
  std::vector<InService> in_service_slots_;
  std::vector<std::size_t> free_slots_;
  double extra_service_delay_ms_ = 0.0;
  int in_service_ = 0;
  double busy_ms_integral_ = 0.0;
  double busy_last_update_ms_ = 0.0;
  std::uint64_t completed_ = 0;
  StreamingSummary total_stats_;
  StreamingSummary service_stats_;
};

/// Contention-based service-time profile with lognormal jitter:
///   t = base * (1 + alpha * (min(in_service, capacity)/capacity)^beta) * jitter.
/// `capacity` is the in-service concurrency at which contention saturates
/// (typically the server's concurrency); total delay under offered load then
/// rises through queueing, giving the convex load→delay curves the paper
/// profiles offline at {5%,...,100%} of a server's maximum request rate.
/// `base_ms` and `capacity` must be finite and > 0, `alpha` finite and
/// >= -1, `beta` finite and >= 0 (so the inflation never goes negative),
/// and `jitter_sigma` (the jitter's log-space sigma) finite and >= 0;
/// anything else throws std::invalid_argument naming the parameter.
/// A `jitter_sigma` of 0 means no jitter and no RNG draw.
ServiceTimeFn MakeConvexLoadProfile(double base_ms, double capacity,
                                    double alpha = 1.0, double beta = 1.6,
                                    double jitter_sigma = 0.35);

}  // namespace e2e
