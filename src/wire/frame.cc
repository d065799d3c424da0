#include "wire/frame.h"

#include "util/fnv.h"

namespace ftss::wire {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'T', 'S', 'W'};
void put_u32le(std::uint8_t* p, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}
void put_u64le(std::uint8_t* p, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
}
std::uint32_t get_u32le(const std::uint8_t* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return x;
}
std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

// Hash of one frame's covered region: header bytes [4, 12) then the body.
std::uint64_t frame_hash(const std::uint8_t* frame, std::size_t body_len) {
  const std::uint64_t h = fnv1a_bytes(kFnv1aBasis, frame + 4, 8);
  return fnv1a_bytes(h, frame + kFrameHeaderSize, body_len);
}

}  // namespace

void encode_frame(FrameType type, const Value& body,
                  std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.resize(start + kFrameHeaderSize);
  std::uint8_t* header = out.data() + start;
  header[0] = kMagic[0];
  header[1] = kMagic[1];
  header[2] = kMagic[2];
  header[3] = kMagic[3];
  header[4] = kWireVersion;
  header[5] = static_cast<std::uint8_t>(type);
  header[6] = 0;
  header[7] = 0;
  encode_value(body, out);
  const std::size_t body_len = out.size() - start - kFrameHeaderSize;
  header = out.data() + start;  // encode_value may have reallocated
  put_u32le(header + 8, static_cast<std::uint32_t>(body_len));
  put_u64le(header + 12, frame_hash(header, body_len));
}

WireError decode_frame_header(const std::uint8_t* data, std::size_t size,
                              FrameHeader* out) {
  if (size < kFrameHeaderSize) return WireError::kTruncated;
  if (data[0] != kMagic[0] || data[1] != kMagic[1] || data[2] != kMagic[2] ||
      data[3] != kMagic[3]) {
    return WireError::kBadMagic;
  }
  if (data[4] != kWireVersion) return WireError::kBadVersion;
  if (data[5] < 1 || data[5] > kMaxFrameType) return WireError::kBadFrameType;
  if (data[6] != 0 || data[7] != 0) return WireError::kBadFlags;
  out->type = static_cast<FrameType>(data[5]);
  out->flags = 0;
  out->body_len = get_u32le(data + 8);
  out->body_hash = get_u64le(data + 12);
  if (out->body_len > kMaxFrameBody) return WireError::kOversized;
  return WireError::kOk;
}

FrameDecodeResult decode_frame(const std::uint8_t* data, std::size_t size) {
  FrameDecodeResult result;
  FrameHeader header;
  if (const WireError e = decode_frame_header(data, size, &header);
      e != WireError::kOk) {
    result.error = e;
    return result;
  }
  if (size - kFrameHeaderSize < header.body_len) {
    result.error = WireError::kTruncated;
    return result;
  }
  if (frame_hash(data, header.body_len) != header.body_hash) {
    result.error = WireError::kHashMismatch;
    return result;
  }
  const ValueDecodeResult body =
      decode_value(data + kFrameHeaderSize, header.body_len);
  if (body.error != WireError::kOk) {
    result.error = body.error;
    return result;
  }
  if (body.consumed != header.body_len) {
    result.error = WireError::kTrailingBytes;
    return result;
  }
  result.frame.type = header.type;
  result.frame.body = body.value;
  result.consumed = kFrameHeaderSize + header.body_len;
  return result;
}

FrameDecodeResult decode_frame_exact(const std::uint8_t* data,
                                     std::size_t size) {
  FrameDecodeResult result = decode_frame(data, size);
  if (result.error == WireError::kOk && result.consumed != size) {
    result.error = WireError::kTrailingBytes;
    result.frame = Frame{};
    result.consumed = 0;
  }
  return result;
}

}  // namespace ftss::wire
