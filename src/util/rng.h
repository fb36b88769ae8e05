// Deterministic random-number utilities.
//
// Every stochastic component in the reproduction (trace synthesis, service
// jitter, MTurk rater panel, ...) draws from an explicitly seeded `Rng`
// passed in by its owner, so whole experiments replay bit-identically from a
// single top-level seed. Never use global RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace e2e {

/// A seeded pseudo-random generator with the distribution helpers the
/// reproduction needs. Fork() derives independent streams.
///
/// The engine is MT19937-64 as the C++ standard defines `std::mt19937_64`:
/// the same seeding, twist and tempering, so every word, every std
/// distribution drawn through it and every Fork() equal what
/// `std::mt19937_64` gives from the same seed (tests/util_test.cc keeps it
/// as the oracle). It differs only in how the twist is compiled: libstdc++
/// writes the twist's conditional xor as `(y & 1) ? a : 0`, which g++ 12
/// turns into a jump on a random bit, and about half of those mispredict.
/// Written as a mask it does not branch, and a word costs less than half
/// as much (docs/PERFORMANCE.md §5). The state is the standard's 312
/// words, about 2.5 KB, and a copy copies all of it.
class Rng {
 public:
  /// Creates a generator from an explicit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child stream. Children created with distinct
  /// `stream` values from the same parent state do not overlap in practice.
  Rng Fork(std::uint64_t stream) {
    const std::uint64_t base = engine_();
    return Rng(base ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Normal truncated below at `floor` (re-draws; floor must be plausible).
  double TruncatedNormal(double mean, double stddev, double floor) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double x = Normal(mean, stddev);
      if (x >= floor) return x;
    }
    return floor;
  }

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential with the given mean (= 1/rate).
  double ExponentialMean(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index drawn from the categorical distribution given by `weights`.
  /// Weights must be non-negative with a positive sum.
  std::size_t Categorical(std::span<const double> weights) {
    return Categorical(weights, CategoricalTotal(weights));
  }

  /// Sum of `weights` in index order; throws std::invalid_argument on a
  /// negative weight or a sum that is not positive. Computed once, it lets
  /// repeated draws from fixed weights skip the re-validation.
  static double CategoricalTotal(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("Categorical: negative weight");
      total += w;
    }
    if (total <= 0.0) {
      throw std::invalid_argument("Categorical: weights sum to zero");
    }
    return total;
  }

  /// Categorical draw with `total` = CategoricalTotal(weights); the same
  /// index, from the same engine state, as the one-argument form.
  std::size_t Categorical(std::span<const double> weights, double total) {
    double x = Uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Raw 64-bit draw (for seeding sub-components).
  std::uint64_t NextU64() { return engine_(); }

 private:
  /// MT19937-64 (w = 64, n = 312, m = 156, r = 31) with the standard's
  /// parameters, as a uniform random bit generator the std distributions
  /// accept: the same `result_type`, `min()` and `max()` as
  /// `std::mt19937_64`, so each distribution consumes the same words.
  class Engine {
   public:
    using result_type = std::uint64_t;

    /// The standard's seeding: x[0] = seed,
    /// x[i] = f · (x[i−1] ⊕ (x[i−1] ≫ 62)) + i.
    explicit Engine(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /// The next tempered word; twists all 312 words every 312th call.
    result_type operator()() {
      if (index_ >= kStateWords) Twist();
      result_type z = state_[index_++];
      z ^= (z >> 29) & 0x5555555555555555ULL;
      z ^= (z << 17) & 0x71d67fffeda60000ULL;
      z ^= (z << 37) & 0xfff7eee000000000ULL;
      z ^= z >> 43;
      return z;
    }

   private:
    static constexpr std::size_t kStateWords = 312;

    /// Regenerates every state word with the twist recurrence, the
    /// conditional xor of the twist matrix written as a mask.
    void Twist();

    std::array<result_type, kStateWords> state_;  // Seeded in the ctor.
    std::size_t index_ = kStateWords;             // The first call twists.
  };

  Engine engine_;
};

}  // namespace e2e
