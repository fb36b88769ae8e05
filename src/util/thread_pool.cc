#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace e2e {
namespace {

// How long a waiter polls before it blocks: kSpinPauses polls with a CPU
// pause between them, then kSpinYields polls that give the core away. A
// produce or an fn call of the policy solve takes a few microseconds, so a
// released index or the barrier rarely keeps a poller past the pauses; a
// wait past the whole spin is a gap between recomputes, or a caller
// preempted on a busy host, and ends in a condition variable.
constexpr int kSpinPauses = 1024;
constexpr int kSpinYields = 64;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `settled` through the spin; true as soon as it holds, false when
// the spin ran out first.
template <typename Settled>
bool Spin(const Settled& settled) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (settled()) return true;
    CpuRelax();
  }
  for (int i = 0; i < kSpinYields; ++i) {
    if (settled()) return true;
    std::this_thread::yield();
  }
  return settled();
}

}  // namespace

ThreadPool::ThreadPool(int workers) : workers_(workers) {
  if (workers < 1) {
    throw std::invalid_argument("ThreadPool: workers < 1");
  }
  threads_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    generation_.fetch_add(1);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::DefaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(std::min(hw, 16u));
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;  // The generation of the last job looked at.
  while (true) {
    Spin([&] { return generation_.load() != seen; });
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_blocked_;
      work_cv_.wait(lock, [&] { return generation_.load() != seen; });
      --idle_blocked_;
      if (shutdown_) return;
      seen = generation_.load();
      job = job_;
      if (job == nullptr) continue;  // Closed before this worker came.
      job->inside.fetch_add(1);
    }
    RunClaims(*job);
    std::lock_guard<std::mutex> lock(mu_);
    if (job->inside.fetch_sub(1) == 1) done_cv_.notify_one();
  }
}

void ThreadPool::RunClaims(Job& job) {
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (!AwaitRelease(job, i)) return;
    RunOne(job, i);
  }
}

bool ThreadPool::AwaitRelease(Job& job, std::size_t i) {
  // ready never passes end, so index i is either released, given up, or
  // still to come.
  const auto settled = [&] {
    return job.ready.load() > i || job.end.load() <= i;
  };
  if (!Spin(settled)) {
    // Counted before the predicate is read under mu_; the caller stores
    // `ready` before it reads the count (both sequentially consistent), so
    // either this read sees the release or the caller sees the count and
    // notifies.
    release_blocked_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      release_cv_.wait(lock, settled);
    }
    release_blocked_.fetch_sub(1);
  }
  return job.ready.load() > i;
}

void ThreadPool::RunOne(Job& job, std::size_t i) {
  try {
    (*job.fn)(i);
  } catch (...) {
    RecordError(job, i, std::current_exception());
  }
}

void ThreadPool::RecordError(Job& job, std::size_t i,
                             std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the lowest-indexed failure: which thread ran it must not change
  // what the caller observes.
  if (job.error == nullptr || i < job.error_index) {
    job.error = std::move(error);
    job.error_index = i;
  }
}

void ThreadPool::WakeReleaseWaiters() {
  // `ready` and `end` move outside mu_. A worker that read their old values
  // under mu_ holds it until it waits, so once this empty section has run
  // the notify reaches every such worker.
  { std::lock_guard<std::mutex> lock(mu_); }
  release_cv_.notify_all();
}

void ThreadPool::RunSerial(Job& job,
                           const std::function<void(std::size_t)>* produce) {
  for (std::size_t i = 0; i < job.count; ++i) {
    if (produce != nullptr) {
      try {
        (*produce)(i);
      } catch (...) {
        RecordError(job, i, std::current_exception());
        return;
      }
    }
    RunOne(job, i);
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  Run(count, nullptr, fn);
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& produce,
                             const std::function<void(std::size_t)>& fn) {
  Run(count, &produce, fn);
}

void ThreadPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>* produce,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  Job job;
  job.count = count;
  job.fn = &fn;
  job.end.store(count);
  if (produce == nullptr) job.ready.store(count);  // Nothing to wait for.

  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_ != nullptr) {
      throw std::logic_error("ThreadPool: ParallelFor re-entered");
    }
    job_ = &job;
    generation_.fetch_add(1);
    wake = idle_blocked_ > 0;
  }
  if (wake) work_cv_.notify_all();

  if (threads_.empty()) {
    RunSerial(job, produce);
  } else {
    if (produce != nullptr) {
      for (std::size_t i = 0; i < count; ++i) {
        try {
          (*produce)(i);
        } catch (...) {
          RecordError(job, i, std::current_exception());
          job.end.store(i);
          WakeReleaseWaiters();
          break;
        }
        job.ready.store(i + 1);
        if (release_blocked_.load() != 0) WakeReleaseWaiters();
      }
    }
    // Every index below end is released now: help run what is left.
    while (true) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.end.load()) break;
      RunOne(job, i);
    }
  }

  // The barrier: no worker joins once job_ is cleared, and those inside
  // leave after their last claim.
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = nullptr;
  }
  if (!Spin([&] { return job.inside.load() == 0; })) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return job.inside.load() == 0; });
  }

  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace e2e
