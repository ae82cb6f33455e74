#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndSchema() {
  static const std::vector<MetricDef> schema = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_mreq_s", "Mreq/s"},
      {"hit_ratio", "ratio"},
      {"load_gain", "x"},
      {"ok_ratio", "ratio"},
  };
  return schema;
}

const std::vector<MetricDef>& LayerSchema() {
  static const std::vector<MetricDef> schema = {
      // tree
      {"tree.build_s", "s"},
      // serve: generator, placement, plane, replay, closed loop
      {"serve.gen_mreq_s", "Mreq/s"},
      {"serve.place_s", "s"},
      {"serve.plane_build_s", "s"},
      {"serve.ns_per_req", "ns"},
      {"serve.hops_per_req", "hops"},
      {"serve.failovers_per_req", "ratio"},
      {"serve.fold_ms", "ms"},
      {"serve.epochs", "count"},
      {"serve.epoch_p50_ms", "ms"},
      {"serve.snapshot_refresh_ms", "ms"},
      {"serve.snapshot_in_place", "count"},
      {"serve.install_ms", "ms"},
      {"serve.plane_in_place", "count"},
      {"serve.oracle_mreq_s", "Mreq/s"},
      // doc
      {"doc.place_s", "s"},
      // store
      {"store.clamp_s", "s"},
      {"store.evicted_cells", "count"},
      {"store.spill_ratio", "ratio"},
      {"store.clamp_refresh_ms", "ms"},
      // core
      {"core.demand_apply_ms", "ms"},
      {"core.demand_events", "count"},
      {"core.step_ms", "ms"},
      {"core.lane_steps_per_s", "1/s"},
      {"core.dirty_lanes", "count"},
      {"core.step_decay", "ratio"},
      // fault
      {"fault.rehome_ms", "ms"},
      {"fault.down_nodes", "count"},
      // client (the benchmark's own open-loop load generator)
      {"client.p50_ms", "ms"},
      {"client.p99_ms", "ms"},
      {"client.samples", "count"},
      {"client.slo_rate_kreq_s", "kreq/s"},
      {"client.send_ms", "ms"},
      {"client.recv_ms", "ms"},
      {"client.lateness_p99_ms", "ms"},
      // netd
      {"netd.serve_p50_us", "us"},
      {"netd.serve_p99_us", "us"},
      {"netd.forwards_per_req", "ratio"},
      {"netd.outbox_peak_kb", "kB"},
      {"netd.shed_forwards", "count"},
      {"netd.gossip_frames", "count"},
      {"netd.fleet_oracle_ratio", "x"},
      // wire
      {"wire.bytes_per_req", "B"},
      // the trace itself
      {"trace.untraced_share", "ratio"},
      {"trace.overhead_mreq_s", "Mreq/s"},
      {"trace.spans", "count"},
      // the host-speed probe behind the end-to-end normalization
      {"host.probe_ms", "ms"},
  };
  return schema;
}

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in kilobytes on Linux; RUSAGE_CHILDREN reports the
  // largest reaped descendant.
  const long kb = std::max(self.ru_maxrss, children.ru_maxrss);
  return static_cast<double>(kb) / 1024.0;
}

int Tracer::Begin(const char* name, std::uint64_t tag) {
  if (!on_) return -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, NowNs(), 0, parent, tag});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  if (!on_ || span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Tracer::Add(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t tag) {
  if (!on_) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, start_ns, end_ns, parent, tag});
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    out[spans_[i].name] += Seconds(self);
  }
  return out;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += Seconds(s.end_ns - s.start_ns);
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    // A span's id is its line number (from 0); parent -1 is a root.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"tag\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.tag));
  }
  return std::fclose(f) == 0;
}

void HostSpeed::Probe(Tracer& tracer) {
  static volatile std::uint64_t sink = 0;
  ScopedSpan span(tracer, "host.probe");
  const std::uint64_t t = NowNs();
  std::uint64_t z = sink;
  for (int step = 0; step < (1 << 24); ++step) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
  }
  sink = z;
  probe_s_.push_back(Seconds(NowNs() - t));
}

void ReportCoverage(const Tracer& tracer, const char* root,
                    RunResult* result) {
  const auto self = tracer.SelfSeconds();
  const auto total = tracer.TotalSeconds();
  const auto s = self.find(root);
  const auto t = total.find(root);
  result->layer["trace.untraced_share"] =
      s == self.end() || t == total.end() || t->second <= 0
          ? 1.0
          : s->second / t->second;
  result->layer["trace.spans"] = static_cast<double>(tracer.size());
}

}  // namespace perfbench
