// Deterministic content hashing for the incremental migration data path.
//
// Segments (text, base data) are named by a 64-bit digest of their bytes: the
// same program text hashes to the same name on every host and every run, so a
// per-host content-addressed cache can answer "have I seen this text before?"
// without coordination. Hashing is bookkeeping, like metrics: computing a digest
// never charges virtual-time cost (see DESIGN.md).
//
// The digest is XXH64 with seed 0. It reads the input in 32-byte stripes of
// four little-endian 64-bit words, one word into each of four accumulator
// lanes (multiply, rotate, multiply). It is word-parallel for speed: a
// byte-serial hash chains one multiply per byte, while the four lanes depend
// on nothing but themselves, so the CPU overlaps their multiplies and a digest
// costs a few cycles per 8 bytes (DESIGN.md gives the measured cost). The
// lanes are then merged, the length is added, the last 0–31 bytes are
// consumed as words, one 4-byte step and single bytes, and a final avalanche
// mixes every input bit into every output bit.
//
// The digest is not cryptographic and not collision-resistant against an
// adversary; dump validation therefore always re-checks the digest of the
// *reconstructed* bytes, so a collision (or a corrupted cache entry) surfaces
// as a clean Errno, never a silently wrong restore, and the checkpoint dedup
// compares bytes behind every digest match.
//
// A segment travels as a sim::Blob (src/sim/blob.h), which hashes its bytes once
// and keeps the digest. That is safe because a blob's bytes never change: its
// kept digest is always the digest of its bytes. Anything that changes bytes —
// patching a delta, an injected corruption, a test flipping a cached file —
// makes a new blob, so the check above still runs on bytes never hashed before.

#ifndef PMIG_SRC_SIM_HASH_H_
#define PMIG_SRC_SIM_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace pmig::sim {

namespace hash_internal {

// Input words are little-endian; Read64/Read32 copy them directly.
static_assert(std::endian::native == std::endian::little);

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// One lane step: absorbs a word into an accumulator.
inline uint64_t Round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

// Folds a finished lane into the merged hash.
inline uint64_t MergeLane(uint64_t h, uint64_t lane) {
  return (h ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace hash_internal

inline uint64_t HashBytes(const uint8_t* data, size_t len) {
  using namespace hash_internal;
  const uint8_t* p = data;
  const uint8_t* const end = data + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (const uint8_t* const last_stripe = end - 32; p <= last_stripe; p += 32) {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(len);

  // The tail: every byte past the last whole stripe.
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Read64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Read32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }

  // Avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

inline uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  return HashBytes(bytes.data(), bytes.size());
}

inline uint64_t HashBytes(std::string_view bytes) {
  return HashBytes(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
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
