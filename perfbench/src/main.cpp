// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload tlb_replay|hotspot_loop|fleet_open --seed N
//             --seconds S --trace 0|1 [--threads T] [--small]
//             [--setup-reps K]
//
// Prints a human-readable log, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1.  Exits 1 when any
// correctness check failed (the result line is still printed, with
// "correct": false), 2 on bad arguments or an unexpected error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--small") {
      o->small = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atoi(v);
    } else if (a == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (a == "--threads") {
      o->threads = std::atoi(v);
    } else if (a == "--setup-reps") {
      o->setup_reps = std::atoi(v);
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds >= 1 && o->threads >= 1 &&
         o->setup_reps >= 0;
}

void PrintResult(const RunOptions& o, const RunResult& r) {
  const auto& schema =
      o.trace ? perfbench::LayerSchema() : perfbench::EndToEndSchema();
  const auto& values = o.trace ? r.layer : r.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.check_failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const auto it = values.find(schema[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", schema[i].name, v, schema[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--threads T] [--small] [--setup-reps K]\n");
    return 2;
  }
  RunResult r;
  try {
    if (o.workload == "tlb_replay") {
      perfbench::RunTlbReplay(o, &r);
    } else if (o.workload == "hotspot_loop") {
      perfbench::RunHotspotLoop(o, &r);
    } else if (o.workload == "fleet_open") {
      perfbench::RunFleetOpen(o, &r);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    // The library throws on a violated invariant (conservation, a corrupt
    // blob): that is a failed correctness check of the whole run.
    std::printf("FAILED: %s\n", e.what());
    r.check_failures.push_back(e.what());
    if (r.attempted == 0) r.attempted = 1;
    r.failed = r.attempted;
  }
  for (const std::string& f : r.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  if (r.attempted == 0) r.attempted = 1;
  std::fflush(stdout);
  PrintResult(o, r);
  return r.check_failures.empty() ? 0 : 1;
}
