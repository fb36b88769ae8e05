// detlint fixture: parallel-shared-write on the pipelined
// ParallelFor(count, produce, fn). produce runs on the calling thread, one
// index after another, so only fn is a task.
#include <cstddef>
#include <functional>
#include <vector>

class ThreadPool {
 public:
  template <typename Produce, typename Fn>
  void ParallelFor(std::size_t n, Produce&& produce, Fn&& fn);
};

// Positive: fn accumulates into a by-reference capture.
double PositiveSharedWriteInFn(ThreadPool& pool, std::vector<double>& xs) {
  double sum = 0.0;
  pool.ParallelFor(
      xs.size(), [&](std::size_t i) { xs[i] = 1.0; },
      [&](std::size_t i) { sum += xs[i]; });
  return sum;
}

// Positive: a named fn, resolved at the call site, writes a member through
// `this`; the named produce's member write is fine.
class Stage {
 public:
  void PositiveNamedFn(ThreadPool& pool, std::size_t n) {
    auto produce = [this](std::size_t i) { last_ = i; };
    auto fn = [this](std::size_t) { ++solved_; };
    pool.ParallelFor(n, produce, fn);
  }

 private:
  std::size_t last_ = 0;
  std::size_t solved_ = 0;
};

// Negative: produce appends to a shared vector and bumps a shared counter;
// fn writes only its own slot.
void NegativeSharedWriteInProduce(ThreadPool& pool, std::vector<double>& out) {
  std::vector<double> staged;
  std::size_t produced = 0;
  pool.ParallelFor(
      out.size(),
      [&](std::size_t i) {
        staged.push_back(static_cast<double>(i));
        ++produced;
      },
      [&](std::size_t i) { out[i] = 2.0 * static_cast<double>(i); });
}

// Negative: the task is a parameter, not a lambda the symbol table can
// resolve; the produce lambda before it is not analysed in its place.
void NegativeUnresolvedFn(ThreadPool& pool,
                          const std::function<void(std::size_t)>& task,
                          std::size_t n) {
  std::size_t produced = 0;
  pool.ParallelFor(n, [&](std::size_t) { ++produced; }, task);
}
