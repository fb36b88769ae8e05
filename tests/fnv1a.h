// Byte-wise FNV-1a-64, for the tests that pin every byte a run exports.
#pragma once

#include <cstdint>
#include <string_view>

namespace e2e {

inline std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace e2e
