// Deterministic fork/join worker pool: the sharded replay's fan-out
// (docs/SCALE.md), the one place the solve path runs threads.
//
// The repo's replay guarantee is byte-exact output for identical seeds, so
// parallelism is only admissible when the *result* is independent of thread
// scheduling. ThreadPool enforces the one shape that satisfies this:
// ParallelFor(count, fn) runs fn(i) for every index exactly once, each
// invocation writes only to its own index's output slot, and the caller
// consumes the slots in ascending index order after the barrier. Scheduling
// decides *when* each index runs, never *what* it computes or the order in
// which results are merged — so any worker count (including 1) produces
// identical bytes.
//
// detlint bans raw std::thread/std::async elsewhere (rule: raw-thread);
// this pool is the single allowlisted spawn site.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

/// A fixed-size fork/join pool. The calling thread participates in every
/// ParallelFor, so a pool with `workers == 1` spawns no threads at all and
/// degenerates to a plain serial loop.
class ThreadPool {
 public:
  /// Creates a pool that runs work on `workers` threads total (the caller
  /// plus `workers - 1` background threads). `workers < 1` throws.
  explicit ThreadPool(int workers);

  /// Joins the background threads. ParallelFor blocks until its job is
  /// drained, so no job can be in flight here.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// pool, and blocks until all invocations finished. fn must be safe to
  /// call concurrently and must not recurse into the same pool. If
  /// invocations throw, the exception from the lowest-indexed throwing
  /// invocation is rethrown on the caller after the barrier — a
  /// deterministic choice, independent of which worker ran it.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// Total threads doing work (caller included).
  int workers() const { return workers_; }

  /// Sensible default worker count for this machine: hardware concurrency
  /// clamped to [1, 16]. 1 (serial) when the hardware reports nothing.
  static int DefaultWorkers();

 private:
  // One fork/join batch. Workers claim indices from `next`; the last
  // invocation to finish bumps `generation` and wakes the caller.
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;
    std::size_t finished = 0;
    std::exception_ptr error;
    std::size_t error_index = 0;
  };

  void WorkerLoop();
  // Claims and runs indices of the current job until none remain. Returns
  // true when this call retired the job's last invocation.
  bool DrainCurrentJob(std::unique_lock<std::mutex>& lock);

  int workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait for a job / shutdown.
  std::condition_variable done_cv_;  // The caller waits for the barrier.
  Job* job_ = nullptr;               // Owned by ParallelFor's frame.
  bool shutdown_ = false;
};

}  // namespace e2e
