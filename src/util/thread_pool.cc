#include "util/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace e2e {

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
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::DefaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(std::min(hw, 16u));
}

bool ThreadPool::DrainCurrentJob(std::unique_lock<std::mutex>& lock) {
  Job* job = job_;
  bool retired_last = false;
  while (job->next < job->count) {
    const std::size_t index = job->next++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job->fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr &&
        (job->error == nullptr || index < job->error_index)) {
      // Keep the lowest-indexed failure: which worker ran it must not
      // change what the caller observes.
      job->error = error;
      job->error_index = index;
    }
    if (++job->finished == job->count) retired_last = true;
  }
  return retired_last;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Wake only when indices remain to claim (or at shutdown): a job whose
    // indices are all claimed is someone else's to retire.
    work_cv_.wait(lock, [&] {
      return shutdown_ || (job_ != nullptr && job_->next < job_->count);
    });
    if (shutdown_) return;
    if (DrainCurrentJob(lock)) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  Job job;
  job.count = count;
  job.fn = &fn;

  std::unique_lock<std::mutex> lock(mu_);
  if (job_ != nullptr) {
    throw std::logic_error("ThreadPool: ParallelFor re-entered");
  }
  job_ = &job;
  if (!threads_.empty()) work_cv_.notify_all();

  // The caller works too; with zero background threads this is the entire
  // (serial) execution.
  DrainCurrentJob(lock);
  done_cv_.wait(lock, [&] { return job.finished == job.count; });
  job_ = nullptr;

  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace e2e
