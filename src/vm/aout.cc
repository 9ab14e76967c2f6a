#include "src/vm/aout.h"

#include <cstring>

namespace pmig::vm {

namespace {

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 24) & 0xFF));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

std::vector<uint8_t> AoutImage::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(kAoutHeaderBytes + text.size() + data.size());
  PutU32(out, header.magic);
  PutU32(out, header.machtype);
  PutU32(out, static_cast<uint32_t>(text.size()));
  PutU32(out, static_cast<uint32_t>(data.size()));
  PutU32(out, header.entry);
  out.insert(out.end(), text.begin(), text.end());
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

Result<AoutImage> AoutImage::Parse(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kAoutHeaderBytes) return Errno::kNoExec;
  AoutImage img;
  img.header.magic = GetU32(&bytes[0]);
  img.header.machtype = GetU32(&bytes[4]);
  img.header.text_size = GetU32(&bytes[8]);
  img.header.data_size = GetU32(&bytes[12]);
  img.header.entry = GetU32(&bytes[16]);
  if (img.header.magic != kAoutMagic) return Errno::kNoExec;
  if (img.header.machtype != 10 && img.header.machtype != 20) return Errno::kNoExec;
  const size_t need = kAoutHeaderBytes + static_cast<size_t>(img.header.text_size) +
                      static_cast<size_t>(img.header.data_size);
  if (bytes.size() < need) return Errno::kNoExec;
  if (img.header.text_size % kInstrBytes != 0) return Errno::kNoExec;
  if (img.header.entry >= img.header.text_size && img.header.text_size != 0) {
    return Errno::kNoExec;
  }
  const uint8_t* text_begin = bytes.data() + kAoutHeaderBytes;
  img.text = sim::Blob(text_begin, img.header.text_size);
  img.data.assign(text_begin + img.header.text_size,
                  text_begin + img.header.text_size + img.header.data_size);
  return img;
}

}  // namespace pmig::vm
