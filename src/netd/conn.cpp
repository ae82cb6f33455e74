#include "netd/conn.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "util/check.h"

namespace webwave {

FrameConn::~FrameConn() {
  if (fd_ >= 0) ::close(fd_);
}

int MakeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  WEBWAVE_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(O_NONBLOCK) failed");
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

void FrameConn::ResetFd(int new_fd) {
  WEBWAVE_REQUIRE(connecting_ && out_start_ == 0,
                  "ResetFd on a conn that already touched the wire");
  if (fd_ >= 0) ::close(fd_);
  fd_ = new_fd;
  closed_ = false;
  in_.clear();
}

bool FrameConn::Flush() {
  if (connecting_) return true;  // corked until the connect completes
  while (out_.size() > out_start_) {
    // Resume at the consumed-prefix cursor: after a short write the
    // remaining bytes of the partial frame go out before anything
    // queued later, so frames never interleave on the wire.
    const ssize_t n =
        ::write(fd_, out_.data() + out_start_, out_.size() - out_start_);
    if (n > 0) {
      out_start_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / EOF-ish: the peer is gone mid-frame.  A clean
    // conn-down — the owner sees false and retires the connection.
    closed_ = true;
    return false;
  }
  // Trim lazily: only once everything queued has been written, so a
  // burst of short writes costs zero memmoves.
  if (out_start_ == out_.size() && out_start_ > 0) {
    out_.clear();
    out_start_ = 0;
  }
  return true;
}

bool FrameConn::OnReadable(
    const std::function<void(const WireMessage&)>& on_frame) {
  std::uint8_t buf[kReadChunkBytes];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      DecodeFrames(on_frame);
      if (static_cast<std::size_t>(n) == sizeof buf) continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // drained
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      closed_ = true;  // EOF or reset; what already arrived was delivered
    }
    break;
  }
  return !closed_;
}

void FrameConn::DecodeFrames(
    const std::function<void(const WireMessage&)>& on_frame) {
  // Cut every complete frame, then trim the consumed prefix once: a
  // chunk of small frames costs one memmove of its partial tail.
  std::size_t pos = 0;
  for (;;) {
    WireMessage msg;
    std::size_t consumed = 0;
    const auto st = MessageCodec::Decode(in_.data() + pos, in_.size() - pos,
                                         &msg, &consumed);
    if (st == MessageCodec::DecodeStatus::kNeedMore) break;
    WEBWAVE_REQUIRE(st == MessageCodec::DecodeStatus::kOk,
                    "byte-garbage on a netd connection");
    pos += consumed;
    on_frame(msg);
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace webwave
