// Helpers shared by the standalone bench executables: wall-clock deltas,
// the two bench settings and the JSON artifact writer.  Header-only so
// bench/*.cpp stay single-file programs (the CMake glob turns every .cpp
// here into its own executable).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/bench_json.h"

namespace webwave {
namespace bench {

inline double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// The only two settings any bench reads, once, at the top of main:
//   WEBWAVE_SMOKE    set, non-empty and not starting with '0': run the
//                    reduced CI smoke shape instead of the paper shape
//   WEBWAVE_THREADS  worker threads, 0 = one per hardware thread; unset or
//                    empty means the bench's own default
// Every other shape parameter is a constant in the bench, `smoke ? small :
// full`, so each bench has exactly the two shapes CI and the paper run.
struct Config {
  bool smoke;
  int threads;
};

inline Config ReadConfig(int default_threads) {
  const char* smoke = std::getenv("WEBWAVE_SMOKE");
  const char* threads = std::getenv("WEBWAVE_THREADS");
  return {smoke != nullptr && smoke[0] != '\0' && smoke[0] != '0',
          threads != nullptr && threads[0] != '\0' ? std::atoi(threads)
                                                    : default_threads};
}

// The one way a bench emits its JSON artifact: write, then report the
// outcome on stdout in the exact phrasing CI's baseline checker and the
// humans reading bench logs both expect.
inline bool WriteArtifact(const BenchJson& json, const char* path) {
  const bool ok = json.WriteFile(path);
  std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", path);
  return ok;
}

}  // namespace bench
}  // namespace webwave
