// The benchmark's three workloads. Each one sets itself up several times
// (reporting the median set-up time), runs its timed loop for the requested
// wall time, verifies its outputs, and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

// Fault injected into the frame pipeline's verification pass, so the
// self-test can show that the correctness checks trip.
enum class Inject { kNone, kLz4, kTurbo };

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Traced mode: an untraced timed pass and a traced pass of seconds/2 each;
  // the traced pass yields the per-layer numbers, the pair yields the
  // tracing overhead.
  bool trace = false;
  Inject inject = Inject::kNone;
  std::string out_dir;  // where span files are written at exit
};

void run_frame_pipeline(const Options& options, Report& report);
void run_offload_session(const Options& options, Report& report);
void run_churn_soak(const Options& options, Report& report);

}  // namespace perfbench
