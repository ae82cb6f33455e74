#include "netd/event_loop.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace webwave {

std::int64_t EventLoop::NowMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void EventLoop::WatchRead(int fd, IoCallback on_readable) {
  watches_[fd].on_readable = std::move(on_readable);
}

void EventLoop::SetWriteInterest(int fd, bool on, IoCallback on_writable) {
  Watch& w = watches_[fd];
  w.want_write = on;
  if (on_writable) w.on_writable = std::move(on_writable);
}

void EventLoop::Unwatch(int fd) { watches_.erase(fd); }

std::uint64_t EventLoop::AddTimer(int delay_ms, TimerCallback cb) {
  WEBWAVE_REQUIRE(delay_ms >= 0, "timer delay must be non-negative");
  const std::uint64_t id = next_timer_id_++;
  timers_.emplace(TimerKey{NowMs() + delay_ms, id}, std::move(cb));
  return id;
}

void EventLoop::CancelTimer(std::uint64_t id) {
  const auto it =
      std::find_if(timers_.begin(), timers_.end(),
                   [id](const auto& t) { return t.first.second == id; });
  if (it != timers_.end()) timers_.erase(it);
}

int EventLoop::NextTimerDelayMs() const {
  if (timers_.empty()) return -1;
  const std::int64_t delay = timers_.begin()->first.first - NowMs();
  return delay < 0 ? 0 : static_cast<int>(delay);
}

void EventLoop::FireDueTimers() {
  const std::int64_t now = NowMs();
  // A timer added during this pass has id >= pass_end and a deadline >=
  // now (the clock is monotonic), so it sorts after every timer due
  // now: the first one reached ends the pass.
  const std::uint64_t pass_end = next_timer_id_;
  while (running_ && !timers_.empty()) {
    const auto it = timers_.begin();
    const auto [deadline, id] = it->first;
    if (deadline > now || id >= pass_end) break;
    // Extract before firing: the callback may add or cancel timers.
    TimerCallback cb = std::move(it->second);
    timers_.erase(it);
    // Timer lag: how far real time had run past the deadline when the
    // timer fired, through the attached clock's unit (nanoseconds).
    if (sink_.clock != nullptr && sink_.timer_lag != nullptr)
      sink_.timer_lag->Record(static_cast<std::uint64_t>(now - deadline) *
                              1000000u);
    cb();
  }
}

int EventLoop::Run() {
  running_ = true;
  std::vector<pollfd> fds;
  std::vector<int> order;
  while (running_) {
    fds.clear();
    order.clear();
    for (const auto& [fd, w] : watches_) {
      pollfd p;
      p.fd = fd;
      p.events = static_cast<short>(POLLIN | (w.want_write ? POLLOUT : 0));
      p.revents = 0;
      fds.push_back(p);
      order.push_back(fd);
    }
    // Sleep until the nearest timer deadline, or on the fds alone when
    // no timer is pending; fd readiness wakes poll regardless.
    const int n = ::poll(fds.data(), fds.size(), NextTimerDelayMs());
    // One "poll iteration" is everything between poll(2) returning and
    // the loop sleeping again: the due timers plus every ready-fd
    // dispatch.  Its duration is the stall a peer frame can experience
    // behind this process, hence the max-stall gauge.
    const std::uint64_t iter_start =
        sink_.clock != nullptr ? sink_.clock->NowNanos() : 0;
    FireDueTimers();
    if (!running_) break;
    if (n <= 0) {
      RecordIteration(iter_start);
      continue;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      // The callback may Unwatch any fd (including its own); re-check
      // registration before each dispatch.
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const auto it = watches_.find(order[i]);
        if (it != watches_.end() && it->second.on_readable)
          it->second.on_readable();
      }
      if (!running_) break;
      if (fds[i].revents & POLLOUT) {
        const auto it = watches_.find(order[i]);
        if (it != watches_.end() && it->second.want_write &&
            it->second.on_writable)
          it->second.on_writable();
      }
      if (!running_) break;
    }
    RecordIteration(iter_start);
  }
  return stop_code_;
}

void EventLoop::RecordIteration(std::uint64_t iter_start) {
  if (sink_.clock == nullptr) return;
  const std::uint64_t now = sink_.clock->NowNanos();
  const std::uint64_t dur = now >= iter_start ? now - iter_start : 0;
  if (sink_.poll_iter != nullptr) sink_.poll_iter->Record(dur);
  if (sink_.max_stall_ns != nullptr && dur > *sink_.max_stall_ns)
    *sink_.max_stall_ns = dur;
}

void EventLoop::Stop(int code) {
  running_ = false;
  stop_code_ = code;
}

}  // namespace webwave
