// Immutable shared bytes with a kept content digest: the one representation of
// a segment (program text, a delta base, a segment-cache file) wherever it
// travels — an a.out image, a VM context, a dump file, an inode.
//
// Copies share the bytes and the digest. The bytes never change after
// construction, so the digest computed on the first Digest() call stays the
// digest of the bytes for the blob's whole life. The digest is sim::HashBytes
// (XXH64, word-parallel: see sim/hash.h), which is not cryptographic, so a
// digest match vouches for bytes only together with the re-check of the
// reconstructed data that restore always runs. Changed
// bytes — a patched data segment, an injected or test-made corruption — are
// always a new Blob, which hashes afresh. The simulator runs on one host
// thread, so keeping the digest needs no synchronisation.

#ifndef PMIG_SRC_SIM_BLOB_H_
#define PMIG_SRC_SIM_BLOB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/hash.h"

namespace pmig::sim {

class Blob {
 public:
  Blob() = default;  // the empty blob
  explicit Blob(std::string bytes) : rep_(std::make_shared<Rep>(std::move(bytes))) {}
  Blob(const uint8_t* data, size_t size)
      : Blob(std::string(reinterpret_cast<const char*>(data), size)) {}
  explicit Blob(const std::vector<uint8_t>& bytes) : Blob(bytes.data(), bytes.size()) {}

  std::string_view view() const {
    return rep_ == nullptr ? std::string_view("", 0) : std::string_view(rep_->bytes);
  }
  const uint8_t* data() const { return reinterpret_cast<const uint8_t*>(view().data()); }
  size_t size() const { return view().size(); }
  bool empty() const { return size() == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }

  // HashBytes of the bytes, computed on the first call and kept for every copy.
  uint64_t Digest() const {
    if (rep_ == nullptr) return HashBytes(view());
    if (!rep_->hashed) {
      rep_->digest = HashBytes(view());
      rep_->hashed = true;
    }
    return rep_->digest;
  }
  // True once some copy of this blob has computed its digest.
  bool digest_kept() const { return rep_ != nullptr && rep_->hashed; }

  // Content equality (two separately built blobs may hold equal bytes).
  friend bool operator==(const Blob& a, const Blob& b) { return a.view() == b.view(); }

 private:
  struct Rep {
    explicit Rep(std::string b) : bytes(std::move(b)) {}
    const std::string bytes;
    uint64_t digest = 0;
    bool hashed = false;
  };
  std::shared_ptr<Rep> rep_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_BLOB_H_
