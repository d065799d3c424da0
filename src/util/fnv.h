// FNV-1a, 64-bit: the hash under every stable fingerprint — Value and
// ProcessSet content hashes, the wire frame checksum, the history
// fingerprint and the explorer/conformance sweep fingerprints.  Pinned
// values depend on it bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ftss {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Folds n bytes at `data` into h, in memory order.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view s) {
  return fnv1a_bytes(h, s.data(), s.size());
}

// Folds x's eight bytes into h, least significant first, whatever the
// host's byte order.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace ftss
