#include "src/vm/aout.h"

#include <cstring>

namespace pmig::vm {

namespace {

void PutU32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

std::string AoutImage::Serialize() const {
  std::string out;
  out.reserve(kAoutHeaderBytes + text.size() + data.size());
  PutU32(out, header.magic);
  PutU32(out, header.machtype);
  PutU32(out, static_cast<uint32_t>(text.size()));
  PutU32(out, static_cast<uint32_t>(data.size()));
  PutU32(out, header.entry);
  out.append(text.view());
  out.append(data.begin(), data.end());
  return out;
}

Result<AoutImage> AoutImage::Parse(std::string_view bytes) {
  if (bytes.size() < kAoutHeaderBytes) return Errno::kNoExec;
  const auto* const raw = reinterpret_cast<const uint8_t*>(bytes.data());
  AoutImage img;
  img.header.magic = GetU32(raw);
  img.header.machtype = GetU32(raw + 4);
  img.header.text_size = GetU32(raw + 8);
  img.header.data_size = GetU32(raw + 12);
  img.header.entry = GetU32(raw + 16);
  if (img.header.magic != kAoutMagic) return Errno::kNoExec;
  if (img.header.machtype != 10 && img.header.machtype != 20) return Errno::kNoExec;
  const size_t need = kAoutHeaderBytes + static_cast<size_t>(img.header.text_size) +
                      static_cast<size_t>(img.header.data_size);
  if (bytes.size() < need) return Errno::kNoExec;
  if (img.header.text_size % kInstrBytes != 0) return Errno::kNoExec;
  if (img.header.entry >= img.header.text_size && img.header.text_size != 0) {
    return Errno::kNoExec;
  }
  const uint8_t* text_begin = raw + kAoutHeaderBytes;
  img.text = sim::Blob(text_begin, img.header.text_size);
  img.data.assign(text_begin + img.header.text_size,
                  text_begin + img.header.text_size + img.header.data_size);
  return img;
}

}  // namespace pmig::vm
