// FrameConn — a non-blocking stream socket speaking wire/codec.h frames.
//
// Reads come in chunks of up to kReadChunkBytes; after every chunk the
// buffer is cut into frames by MessageCodec::Decode, so it never holds
// more than one chunk plus a partial frame (kNeedMore keeps that tail for
// the next chunk; kError is a protocol violation and poisons the
// connection).
//
// Writes are batched.  Send() only encodes and queues; the socket is
// written when the queue reaches kFlushThresholdBytes or when the owner
// calls Flush().  Owners flush once per read batch or timer round, so a
// batch of replies costs one write(2), and turn on the event loop's
// write interest only when `want_write()` is still true after a flush
// (the socket returned EAGAIN).
//
// Robustness contract (PR 9): a short write leaves the unsent suffix
// queued and the next Flush resumes mid-frame at the exact byte offset —
// frames can never interleave because there is exactly one output buffer
// and writes always start at its consumed-prefix cursor.  EPIPE /
// ECONNRESET mid-frame (the peer died) marks the connection closed and
// returns false — a clean conn-down event the owner handles, never a
// crash (the daemons ignore SIGPIPE).  While `connecting` is set the
// conn is corked: Send() queues but nothing touches the socket until
// the non-blocking connect completes and the owner uncorks.
//
// outbox_bytes()/outbox_peak() expose the queued-output depth for the
// daemon's watermark policy: a forward that would push a peer conn past
// the high-watermark is shed into the failover path instead of buffering
// unboundedly behind a slow or dead peer.  kFlushThresholdBytes must stay
// well below that watermark (1 MiB by default), or a batch's own queued
// forwards would start to shed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "wire/codec.h"
#include "wire/message.h"

namespace webwave {

class FrameConn {
 public:
  explicit FrameConn(int fd) : fd_(fd) {}
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn();

  int fd() const { return fd_; }
  bool closed() const { return closed_; }

  // A queue this deep is written by the Send that filled it, without
  // waiting for the owner's Flush: it bounds the outbox of a long batch.
  static constexpr std::size_t kFlushThresholdBytes = std::size_t{64} << 10;

  // Encodes and queues one message; writes only once the queue reaches
  // kFlushThresholdBytes.  A write failure there surfaces as closed() and
  // as false from the owner's next Flush.
  template <typename Message>
  void Send(const Message& m) {
    MessageCodec::Encode(m, &out_);
    Queued();
  }
  void SendControl(MsgType type) {
    MessageCodec::EncodeControl(type, &out_);
    Queued();
  }

  // Writes as much queued output as the socket accepts.  Returns false
  // when the connection died (peer reset).
  bool Flush();
  bool want_write() const { return out_.size() > out_start_ || connecting_; }

  // Cork control for non-blocking connect: while connecting, Send()
  // queues frames but Flush() leaves the socket untouched.
  void set_connecting(bool on) { connecting_ = on; }
  bool connecting() const { return connecting_; }

  // Swaps in a fresh socket for a connect retry, keeping the queued
  // outbox.  Only legal while corked (nothing was ever written, so the
  // outbox still starts at a frame boundary and replays cleanly on the
  // new socket).  Pass -1 to park the conn with no socket between
  // backoff attempts.
  void ResetFd(int new_fd);

  // Bytes currently queued and the high-water mark since construction.
  std::size_t outbox_bytes() const { return out_.size() - out_start_; }
  std::size_t outbox_peak() const { return outbox_peak_; }

  // Drains the socket and invokes on_frame for every complete frame, in
  // order, cutting frames after each chunk read.  Returns false on EOF or
  // error (the connection is done); throws on byte-garbage (a protocol
  // violation is a bug in this fleet, not an operational event).
  bool OnReadable(const std::function<void(const WireMessage&)>& on_frame);

 private:
  // The most one read(2) takes; frames are cut after every chunk.
  static constexpr std::size_t kReadChunkBytes = std::size_t{64} << 10;

  void Queued() {
    if (outbox_bytes() > outbox_peak_) outbox_peak_ = outbox_bytes();
    if (outbox_bytes() >= kFlushThresholdBytes) Flush();
  }
  void DecodeFrames(const std::function<void(const WireMessage&)>& on_frame);

  int fd_;
  bool closed_ = false;
  bool connecting_ = false;
  std::vector<std::uint8_t> in_;  // at most one chunk plus a partial frame
  std::vector<std::uint8_t> out_;
  std::size_t out_start_ = 0;  // consumed prefix of out_ (lazy trim)
  std::size_t outbox_peak_ = 0;
};

// Makes fd non-blocking (and close-on-exec); returns fd.
int MakeNonBlocking(int fd);

}  // namespace webwave
