// Frame layer: the unit that actually crosses a socket.
//
// Layout (little-endian, 20-byte header):
//
//   offset  size  field
//   0       4     magic "FTSW"
//   4       1     version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     flags (reserved, must be 0)
//   8       4     body length in bytes
//   12      8     content hash: FNV-1a over bytes [4, 12) ++ body
//   20      n     body: exactly one encoded Value (codec.h)
//
// The hash covers version, type, flags and length as well as the body, so
// every single-bit flip anywhere outside the magic/hash fields perturbs the
// hash (each FNV step is a bijection of the running state, so a state
// divergence can never cancel), flips inside the magic fail the magic
// check, and flips inside the stored hash mismatch the recomputation:
// tests/wire_test.cc proves the blanket claim bit by bit.  This is the
// LogosNetwork fixed-header-plus-hash discipline, adapted to a
// variable-length body.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/value.h"
#include "wire/codec.h"

namespace ftss::wire {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;
// Frames above this are rejected before any allocation keyed on the length
// field — a flipped length bit must not become an OOM.
inline constexpr std::uint32_t kMaxFrameBody = 1u << 28;

// Transport-session frame types (the hub <-> process protocol of src/net/).
// After kInit, each round is one exchange per live process: the hub's
// kRound, answered by the process's kReport.
enum class FrameType : std::uint8_t {
  kInit = 1,  // hub->proc: {"n", "self", "corrupt"?: [state...]}
  kRound,     // hub->proc: {"r", "in": [[id, inner kMessage frame bytes]...],
              //   "last"?}: round r-1's deliveries, opening round r
  kReport,    // proc->hub: {"r", "ok": [ids], "bad": [[id, errcode]...],
              //   "state", "clock"?, "halted", "suspects"?,
              //   "sends"?: [[dest, body]...]}; no sends after "last"
  kMessage,   // one delivery's inner frame: {"s", "d", "r", "b"}
};
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kMessage);

struct Frame {
  FrameType type = FrameType::kMessage;
  Value body;
};

// Appends the full frame (header + encoded body) to `out`.
void encode_frame(FrameType type, const Value& body,
                  std::vector<std::uint8_t>& out);

// Header-only parse, for stream readers that need the body length before
// the body bytes exist.  Performs every check that does not need the body
// (magic, version, flags, type range, length cap).
struct FrameHeader {
  FrameType type = FrameType::kMessage;
  std::uint16_t flags = 0;
  std::uint32_t body_len = 0;
  std::uint64_t body_hash = 0;
};
WireError decode_frame_header(const std::uint8_t* data, std::size_t size,
                              FrameHeader* out);

struct FrameDecodeResult {
  WireError error = WireError::kOk;
  Frame frame;
  std::size_t consumed = 0;
};

// Decodes one frame starting at data[0]; `consumed` is header + body on
// success.  Bytes past the frame are left for the caller.
FrameDecodeResult decode_frame(const std::uint8_t* data, std::size_t size);

// Like decode_frame, but the frame must occupy the buffer exactly — the
// form the transport uses for re-wrapped inner frames, where a truncation
// or extension of the byte string is itself corruption (kTruncated /
// kTrailingBytes).
FrameDecodeResult decode_frame_exact(const std::uint8_t* data,
                                     std::size_t size);

}  // namespace ftss::wire
