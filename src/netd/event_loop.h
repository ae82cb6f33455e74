// EventLoop — the portable poll(2) dispatcher under every netd process.
//
// One thread, non-blocking sockets, two primitives:
//
//   * fd readiness: WatchRead registers a callback fired whenever the fd
//     is readable (or hung up); SetWriteInterest toggles POLLOUT for fds
//     with queued output, so an idle connection costs nothing.
//   * one-shot timers in one map ordered by (deadline ms, id) — the same
//     (time, seq) order as src/net/Simulator's event queue.  A timer
//     fires on the first pass at or after its deadline; equal deadlines
//     fire in AddTimer order; a timer added by a firing callback is due
//     on a later pass, never the one that is firing.  The daemons run
//     their gossip cadence, connect deadlines and 1 ms reconnect slots
//     on it; the loadgen its scrape cadence, kill hand-off and run
//     timeout.
//
// The loop is deliberately poll-based, not epoll: the netd fleet is a
// handful of sockets per process, portability beats scalability, and the
// dispatch semantics are identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "obs/clock.h"
#include "obs/latency_histogram.h"

namespace webwave {

class EventLoop {
 public:
  using IoCallback = std::function<void()>;
  using TimerCallback = std::function<void()>;

  // The loop's latency plane: a null clock means no timing is recorded —
  // every instrumented site is gated on one pointer test, so an
  // unattached loop pays nothing and never falls back to a real clock.
  struct LatencySink {
    MonotonicClock* clock = nullptr;
    LatencyHistogram* poll_iter = nullptr;   // dispatch duration per round
    LatencyHistogram* timer_lag = nullptr;   // fire lag behind the deadline
    std::uint64_t* max_stall_ns = nullptr;   // high-water dispatch duration
  };
  void AttachLatencyPlane(const LatencySink& sink) { sink_ = sink; }

  // Registers `on_readable` for fd (replacing any previous registration).
  // The callback must drain the fd; it is invoked again on the next poll
  // round while data remains.
  void WatchRead(int fd, IoCallback on_readable);
  // Fires `on_writable` whenever fd accepts more output; cleared by
  // SetWriteInterest(fd, false) once the send buffer drains.
  void SetWriteInterest(int fd, bool on, IoCallback on_writable = nullptr);
  // Drops all interest in fd (does not close it).
  void Unwatch(int fd);

  // One-shot timer due at NowMs() + delay_ms; returns an id usable with
  // CancelTimer.  O(log timers).
  std::uint64_t AddTimer(int delay_ms, TimerCallback cb);
  // O(timers): a netd process holds a handful.
  void CancelTimer(std::uint64_t id);

  // Milliseconds until the nearest pending timer is due (0 if overdue),
  // or -1 when no timers are pending.  Run() sleeps in poll(2) for
  // exactly this long, so sparse timers (reconnect backoff under light
  // traffic) fire on schedule without busy-polling.
  int NextTimerDelayMs() const;

  // Dispatches until Stop() is called.  Returns the Stop code.
  int Run();
  void Stop(int code = 0);

  // Monotonic milliseconds (the timers' clock), for tests and pacing.
  static std::int64_t NowMs();

 private:
  struct Watch {
    IoCallback on_readable;
    IoCallback on_writable;
    bool want_write = false;
  };
  // (deadline ms, id): ids grow with every AddTimer, so equal deadlines
  // fire in insertion order.
  using TimerKey = std::pair<std::int64_t, std::uint64_t>;

  // Fires every timer due by now that was added before this pass began.
  void FireDueTimers();
  void RecordIteration(std::uint64_t iter_start);

  std::unordered_map<int, Watch> watches_;
  std::map<TimerKey, TimerCallback> timers_;
  std::uint64_t next_timer_id_ = 1;
  bool running_ = false;
  int stop_code_ = 0;
  LatencySink sink_;
};

}  // namespace webwave
