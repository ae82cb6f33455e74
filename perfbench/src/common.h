// Shared plumbing of the perfbench workloads: the run options, the fixed
// metric schemas every run prints, the in-memory span tracer, and timing
// helpers.
//
// Every workload fills the same two schemas (EndToEndSchema for untraced
// runs, LayerSchema for traced ones).  A per-layer metric a workload never
// exercises stays 0 — the layer was not called, so it did no work.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "stats/summary.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Worker threads of the in-process engine and plane (the self-test runs
  // 1 and 2 and requires identical counts).
  int threads = 1;
  // Reduced shapes for the exactness self-test.
  bool small = false;
  // Setup repetitions, 0 for the workload's own count; setup_s is their
  // median.  Each is followed by its share of the timed work (fleet_open:
  // only the last), and a traced run records spans in the last one only.
  int setup_reps = 0;
};

// Where a traced run writes its span file, relative to the checkout.
constexpr const char* kTraceDir = ".bench_build/trace";

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed by every untraced run, in this order.
const std::vector<MetricDef>& EndToEndSchema();
// The per-layer metrics, printed by every traced run, in this order.
const std::vector<MetricDef>& LayerSchema();

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every check held
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Monotonic nanoseconds.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Median of a non-empty sample (webwave::Quantile, interpolated).
inline double Median(std::vector<double> v) {
  return webwave::Quantile(std::move(v), 0.5);
}

// Peak resident set of this process and of its reaped children, in MB.
double PeakRssMb();

// In-memory span recorder.  A span is (name, start, end, parent, tag):
// the tag carries the epoch or request-block id.  Spans nest through an
// explicit stack; Add records an already-closed span (timestamps taken
// elsewhere, e.g. the epoch phase marks) under the current open span.
// When constructed off, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Begin(const char* name, std::uint64_t tag = 0);
  void End(int span);
  void Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t tag = 0);

  // Self time per span name in seconds: each span's duration minus the
  // part of it its children cover.
  std::map<std::string, double> SelfSeconds() const;
  // Total duration per span name in seconds.
  std::map<std::string, double> TotalSeconds() const;
  std::size_t size() const { return spans_.size(); }
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;
    std::uint64_t tag;
  };
  bool on_;
  // A deque, not a vector: growing it never copies the recorded spans,
  // so a long trace adds no multi-millisecond stalls to the timed region.
  std::deque<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t tag = 0)
      : tracer_(tracer), span_(tracer.Begin(name, tag)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

// A MonotonicClock that remembers every reading — handed to
// EpochDriver::SetClock, its marks are the six phase boundaries of one
// ApplyEpoch (mark 0 is the start, mark p+1 the end of phase p).
class RecordingClock final : public webwave::MonotonicClock {
 public:
  std::uint64_t NowNanos() override {
    const std::uint64_t t = NowNs();
    marks_.push_back(t);
    return t;
  }
  const std::vector<std::uint64_t>& marks() const { return marks_; }
  void Clear() { marks_.clear(); }

 private:
  std::vector<std::uint64_t> marks_;
};

// Host-speed normalization.  The reference host is shared: its speed for
// identical work drifted by a quarter over minutes, moving every
// workload's timings together.  A run therefore times a fixed reference
// task (an integer-mixing loop) between its timed pieces and reports
// its end-to-end timings scaled to the speed at which the reference
// host ran that task: the probe's typical reading there.
constexpr double kReferenceProbeS = 0.05;

class HostSpeed {
 public:
  // Times the reference task once; a "host.probe" span when traced.
  void Probe(Tracer& tracer);
  double MedianProbeS() const { return Median(probe_s_); }
  // Median probe over the run ÷ kReferenceProbeS: above 1 when the host
  // ran slower than the reference.  Throughputs are multiplied by it,
  // durations divided.
  double Slowdown() const { return MedianProbeS() / kReferenceProbeS; }

 private:
  std::vector<double> probe_s_;
};

// Fills result->layer with the trace bookkeeping every traced run
// reports: the share of the timed region (span `root`) no layer span
// covers, and the span count.
void ReportCoverage(const Tracer& tracer, const char* root, RunResult* result);

// The workloads.  Each runs its setup, timed region and correctness
// checks and fills `result`.
void RunTlbReplay(const RunOptions& options, RunResult* result);
void RunHotspotLoop(const RunOptions& options, RunResult* result);
void RunFleetOpen(const RunOptions& options, RunResult* result);

}  // namespace perfbench
