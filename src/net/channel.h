// A blocking, frame-oriented loopback channel: one end of an AF_UNIX
// SOCK_STREAM socketpair with send/receive of whole wire frames.
//
// The transport leg (net/transport.h) runs each process on its own OS
// thread; every byte between the hub and a process crosses one of these
// channels as an encoded frame (wire/frame.h), so serialization is actually
// on the execution path — which is the point of the leg.  The channel layer
// is deliberately dumb: blocking I/O with EINTR retry, no buffering beyond
// the kernel's, and typed decode errors surfaced to the caller instead of
// being handled here.  Every frame goes out through send_frame, so its
// encode time is on the channel's encode_ns histogram.  Stream integrity is
// the frame layer's job; a decode error on a *channel* read means the peer
// (or this harness) is broken, not that the adversary corrupted a payload —
// injected corruption always rides inside an intact kRound frame, as the
// bytes of one delivery's inner kMessage frame.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "wire/frame.h"

namespace ftss::net {

class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&& other) noexcept;
  Channel& operator=(Channel&& other) noexcept;

  // Creates a connected pair (socketpair(AF_UNIX, SOCK_STREAM)).  Returns
  // false (leaving both ends invalid) if the kernel refuses.
  static bool make_pair(Channel* a, Channel* b);

  bool valid() const { return fd_ >= 0; }
  void close_fd();

  // Encodes and writes one whole frame.  False on any write error.
  bool send_frame(wire::FrameType type, const Value& body);

  struct RecvResult {
    // kOk with eof=false on success; eof=true when the peer closed the
    // stream cleanly between frames; any other error is a broken stream.
    wire::WireError error = wire::WireError::kOk;
    bool eof = false;
    wire::Frame frame;
  };
  // Blocks until one whole frame (or EOF / a stream error) arrives.
  RecvResult recv_frame();

  // Traffic accounting, for the transport result's codec-utilization report.
  std::int64_t frames_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t frames_received = 0;
  std::int64_t bytes_received = 0;

  // Per-channel codec phase timing (wall-clock, kLatencyNanos buckets):
  // encode time inside send_frame, decode time inside recv_frame.  The hub
  // folds these into TransportResult::timing — never into anything a stable
  // fingerprint hashes (see obs/metrics.h).
  HistogramData encode_ns;
  HistogramData decode_ns;

 private:
  bool write_all(const std::uint8_t* data, std::size_t size);
  // False on error; *eof set when 0 bytes were read at a frame boundary.
  bool read_exact(std::uint8_t* data, std::size_t size, bool* eof);

  int fd_ = -1;
};

}  // namespace ftss::net
