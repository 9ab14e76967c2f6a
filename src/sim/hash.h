// Deterministic content hashing for the incremental migration data path.
//
// Segments (text, base data) are named by a 64-bit FNV-1a digest of their bytes:
// the same program text hashes to the same name on every host and every run, so a
// per-host content-addressed cache can answer "have I seen this text before?"
// without coordination. Hashing is bookkeeping, like metrics: computing a digest
// never charges virtual-time cost (see DESIGN.md).
//
// FNV-1a is not collision-resistant against adversaries; dump validation therefore
// always re-checks the digest of the *reconstructed* bytes, so a collision (or a
// corrupted cache entry) surfaces as a clean Errno, never a silently wrong restore.
//
// A segment travels as a sim::Blob (src/sim/blob.h), which hashes its bytes once
// and keeps the digest. That is safe because a blob's bytes never change: its
// kept digest is always the digest of its bytes. Anything that changes bytes —
// patching a delta, an injected corruption, a test flipping a cached file —
// makes a new blob, so the check above still runs on bytes never hashed before.

#ifndef PMIG_SRC_SIM_HASH_H_
#define PMIG_SRC_SIM_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmig::sim {

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t HashBytes(const uint8_t* data, size_t len,
                          uint64_t seed = kFnvOffsetBasis) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t HashBytes(const std::vector<uint8_t>& bytes,
                          uint64_t seed = kFnvOffsetBasis) {
  return HashBytes(bytes.data(), bytes.size(), seed);
}

inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = kFnvOffsetBasis) {
  return HashBytes(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), seed);
}

// 16 lowercase hex characters; used as the cache file name for a digest.
inline std::string HexDigest(uint64_t h) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

// Parses a 16-hex-char digest back; returns false on any other string.
inline bool ParseHexDigest(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t h = 0;
  for (const char c : s) {
    h <<= 4;
    if (c >= '0' && c <= '9') {
      h |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      h |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = h;
  return true;
}

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_HASH_H_
