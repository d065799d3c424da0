#include "net/channel.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "obs/profile.h"

namespace ftss::net {

Channel::~Channel() { close_fd(); }

Channel::Channel(Channel&& other) noexcept : fd_(other.fd_) {
  frames_sent = other.frames_sent;
  bytes_sent = other.bytes_sent;
  frames_received = other.frames_received;
  bytes_received = other.bytes_received;
  encode_ns = std::move(other.encode_ns);
  decode_ns = std::move(other.decode_ns);
  other.fd_ = -1;
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = std::exchange(other.fd_, -1);
    frames_sent = other.frames_sent;
    bytes_sent = other.bytes_sent;
    frames_received = other.frames_received;
    bytes_received = other.bytes_received;
    encode_ns = std::move(other.encode_ns);
    decode_ns = std::move(other.decode_ns);
  }
  return *this;
}

bool Channel::make_pair(Channel* a, Channel* b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  *a = Channel(fds[0]);
  *b = Channel(fds[1]);
  return true;
}

void Channel::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Channel::write_all(const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that already exited must surface as EPIPE, not
    // kill the whole process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<std::size_t>(n);
  }
  bytes_sent += static_cast<std::int64_t>(size);
  return true;
}

bool Channel::read_exact(std::uint8_t* data, std::size_t size, bool* eof) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      // EOF is clean only before the first byte of a frame.
      if (eof != nullptr && done == 0) *eof = true;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  bytes_received += static_cast<std::int64_t>(size);
  return true;
}

bool Channel::send_frame(wire::FrameType type, const Value& body) {
  std::vector<std::uint8_t> bytes;
  {
    if (encode_ns.bounds.empty()) encode_ns.bounds = latency_nanos_bounds();
    ScopedTimer timer(&encode_ns, FlightCat::kEncode);
    wire::encode_frame(type, body, bytes);
    timer.set_arg(static_cast<std::int64_t>(bytes.size()));
  }
  if (fd_ < 0 || !write_all(bytes.data(), bytes.size())) return false;
  ++frames_sent;
  return true;
}

Channel::RecvResult Channel::recv_frame() {
  RecvResult r;
  if (fd_ < 0) {
    r.eof = true;
    return r;
  }
  std::vector<std::uint8_t> buf(wire::kFrameHeaderSize);
  if (!read_exact(buf.data(), buf.size(), &r.eof)) {
    if (!r.eof) r.error = wire::WireError::kTruncated;
    return r;
  }
  wire::FrameHeader header;
  r.error = wire::decode_frame_header(buf.data(), buf.size(), &header);
  if (r.error != wire::WireError::kOk) return r;
  buf.resize(wire::kFrameHeaderSize + header.body_len);
  if (header.body_len > 0 &&
      !read_exact(buf.data() + wire::kFrameHeaderSize, header.body_len,
                  nullptr)) {
    r.error = wire::WireError::kTruncated;
    return r;
  }
  {
    if (decode_ns.bounds.empty()) decode_ns.bounds = latency_nanos_bounds();
    ScopedTimer timer(&decode_ns, FlightCat::kDecode,
                      static_cast<std::int64_t>(buf.size()));
    wire::FrameDecodeResult decoded =
        wire::decode_frame_exact(buf.data(), buf.size());
    r.error = decoded.error;
    r.frame = std::move(decoded.frame);
  }
  if (r.error == wire::WireError::kOk) ++frames_received;
  return r;
}

}  // namespace ftss::net
