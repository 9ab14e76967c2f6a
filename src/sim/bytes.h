// Little-endian binary serialization helpers used by the dump-file formats
// (core files, a.outXXXXX headers, filesXXXXX, stackXXXXX).

#ifndef PMIG_SRC_SIM_BYTES_H_
#define PMIG_SRC_SIM_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pmig::sim {

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) {
    U8(static_cast<uint8_t>(v & 0xFF));
    U8(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v & 0xFFFF));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // Length-prefixed string.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Blob(const std::vector<uint8_t>& b) {
    U32(static_cast<uint32_t>(b.size()));
    out_.append(reinterpret_cast<const char*>(b.data()), b.size());
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint16_t U16() {
    const uint16_t lo = U8();
    return static_cast<uint16_t>(lo | (U8() << 8));
  }
  uint32_t U32() {
    const uint32_t lo = U16();
    return lo | (static_cast<uint32_t>(U16()) << 16);
  }
  uint64_t U64() {
    const uint64_t lo = U32();
    return lo | (static_cast<uint64_t>(U32()) << 32);
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string Str() {
    const uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  std::vector<uint8_t> Blob() {
    const uint32_t n = U32();
    if (!Need(n)) return {};
    std::vector<uint8_t> b(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                           bytes_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || pos_ + n > bytes_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_BYTES_H_
