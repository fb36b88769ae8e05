// Deterministic fork/join worker pool, the one place the program runs
// threads. Two fan-outs use it: the sharded replay plans its groups on it
// (docs/SCALE.md), and a policy solve given a pool pipelines each climb
// round's mapping solves through it (docs/PERFORMANCE.md §11, §12).
//
// The repo's replay guarantee is byte-exact output for identical seeds, so
// parallelism is only admissible when the *result* is independent of thread
// scheduling. ThreadPool offers two shapes that satisfy this:
//
//   * ParallelFor(count, fn): fork/join. fn(i) runs for every index exactly
//     once, each invocation writes only to its own index's output slot, and
//     the caller consumes the slots in ascending index order after the
//     barrier.
//   * ParallelFor(count, produce, fn): a pipeline. The calling thread runs
//     produce(i) in index order, and fn(i) may start on any pool thread the
//     moment produce(i) has returned, while the caller produces i + 1. Only
//     produce may touch state the caller owns; fn(i) reads what produce(i)
//     and earlier produces left and writes only its own index's slot. The
//     fork/join form is this one with a produce that does nothing.
//
// Scheduling decides *when* each index runs, never *what* it computes or the
// order in which results are merged — so any worker count (including 1)
// produces identical bytes.
//
// Waiting: a worker waiting for the next job or the next released index,
// and the caller waiting at the barrier, spin briefly (each call is a few
// microseconds of work, shorter than a sleep and wake) and then block on a
// condition variable, so a pool between jobs burns no CPU.
//
// detlint bans raw std::thread/std::async elsewhere (rule: raw-thread);
// this pool is the single allowlisted spawn site.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
  /// invocations throw, every other invocation still runs, and the
  /// exception from the lowest-indexed throwing invocation is rethrown on
  /// the caller after the barrier — a deterministic choice, independent of
  /// which worker ran it.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// The pipelined form. The calling thread runs produce(0), produce(1), ...
  /// in index order; fn(i) may start on any pool thread once produce(i) has
  /// returned (everything produce(i) wrote happens before fn(i)), and runs
  /// concurrently with later produces. After the last produce the caller
  /// helps run what is left, then blocks until every fn finished. With
  /// `workers == 1` it runs produce(i) then fn(i) for each i in turn.
  ///
  /// Failures: the one at the lowest index is rethrown after the barrier,
  /// a produce(i) failure counting as index i. A produce(i) failure stops
  /// production: no fn(j) with j >= i starts after it, every fn(j) with
  /// j < i still runs, and calls in flight finish before the throw. An fn
  /// failure stops nothing, as in the fork/join form. Neither function may
  /// recurse into the same pool.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& produce,
                   const std::function<void(std::size_t)>& fn);

  /// Total threads doing work (caller included).
  int workers() const { return workers_; }

  /// Sensible default worker count for this machine: hardware concurrency
  /// clamped to [1, 16]. 1 (serial) when the hardware reports nothing.
  static int DefaultWorkers();

 private:
  // One ParallelFor, on the caller's frame. Indices are claimed from `next`
  // without the mutex; a claimed index runs once it is below `ready`, and is
  // given up once it is at or above `end`.
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    // produce(i) has returned for every i < ready. Written by the caller
    // only; claimers read it with acquire.
    alignas(64) std::atomic<std::size_t> ready{0};
    // One past the last index fn may run at: count, or the index whose
    // produce threw.
    std::atomic<std::size_t> end{0};
    // The next index to claim.
    alignas(64) std::atomic<std::size_t> next{0};
    // Background workers that joined this job and have not left it. Changed
    // only under mu_; the caller's spin reads it without.
    alignas(64) std::atomic<int> inside{0};
    // The lowest-indexed failure so far. Guarded by mu_.
    std::exception_ptr error;
    std::size_t error_index = 0;
  };

  // Both ParallelFor forms; a null `produce` does nothing.
  void Run(std::size_t count, const std::function<void(std::size_t)>* produce,
           const std::function<void(std::size_t)>& fn);
  void WorkerLoop();
  // Runs a whole job on the calling thread: produce(i), then fn(i), in
  // index order. The pool has no background thread.
  void RunSerial(Job& job, const std::function<void(std::size_t)>* produce);
  // Claims and runs indices of `job` until a claim is at or above its end.
  void RunClaims(Job& job);
  // Waits until index i of `job` is released (true) or given up (false).
  bool AwaitRelease(Job& job, std::size_t i);
  // Runs fn(i), recording a failure as the job's if it is the lowest so far.
  void RunOne(Job& job, std::size_t i);
  void RecordError(Job& job, std::size_t i, std::exception_ptr error);
  // Wakes the workers blocked on release_cv_, if any, after `ready` or
  // `end` moved.
  void WakeReleaseWaiters();

  int workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;     // Workers wait for a job / shutdown.
  std::condition_variable release_cv_;  // Workers wait for an index.
  std::condition_variable done_cv_;     // The caller waits for the barrier.
  Job* job_ = nullptr;  // The open job, on ParallelFor's frame. Guarded by
                        // mu_.
  // Bumped under mu_ for every job posted and at shutdown; workers spin on
  // it before blocking on work_cv_.
  std::atomic<std::uint64_t> generation_{0};
  int idle_blocked_ = 0;  // Workers blocked on work_cv_. Guarded by mu_.
  // Workers blocked or about to block on release_cv_. Read by the caller
  // after each release, so a release with no one asleep takes no lock.
  std::atomic<int> release_blocked_{0};
  bool shutdown_ = false;  // Guarded by mu_.
};

}  // namespace e2e
