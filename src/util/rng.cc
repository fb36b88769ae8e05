#include "util/rng.h"

namespace e2e {
namespace {

constexpr std::size_t kMiddleWord = 156;  // m: the recurrence's offset.
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;  // a
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;  // w − r bits
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One twist step: the upper bit of `word`, the lower 31 bits of `next`,
// shifted right once, xored with `far` and, when the low bit is set, with
// the matrix. `0 − (y & 1)` is all ones or all zeros, so the conditional
// xor needs no branch.
inline std::uint64_t TwistStep(std::uint64_t word, std::uint64_t next,
                               std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

}  // namespace

Rng::Engine::Engine(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Rng::Engine::Twist() {
  // The standard's three loops: the far word is k + m while that is in
  // range, then wraps to k + m − n; the last word pairs with the first.
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = kMiddleWord;
  std::size_t k = 0;
  for (; k < n - m; ++k) {
    state_[k] = TwistStep(state_[k], state_[k + 1], state_[k + m]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = TwistStep(state_[k], state_[k + 1], state_[k + m - n]);
  }
  state_[n - 1] = TwistStep(state_[n - 1], state_[0], state_[m - 1]);
  index_ = 0;
}

}  // namespace e2e
