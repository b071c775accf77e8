// Benchmark harness: runs one or all workloads in this process, prints every
// metric by name with its unit, and ends with one JSON line holding each
// workload's metrics and check outcomes (perfbench/run.py reads it).
//
//   perfbench_harness --workload frame_pipeline|offload_session|churn_soak|all
//                     --seed N --seconds S [--trace 0|1]
//                     [--inject none|lz4|turbo] [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"frame_pipeline", run_frame_pipeline},
    {"offload_session", run_offload_session},
    {"churn_soak", run_churn_soak},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload NAME|all --seed N "
               "--seconds S [--trace 0|1] [--inject none|lz4|turbo] "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--inject") {
      const std::string v = value;
      if (v == "lz4") {
        options.inject = Inject::kLz4;
      } else if (v == "turbo") {
        options.inject = Inject::kTurbo;
      } else if (v != "none") {
        usage("unknown --inject value");
      }
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  std::vector<Report> reports;
  for (const Workload& w : kWorkloads) {
    if (workload != "all" && workload != w.name) continue;
    reports.emplace_back(w.name);
    w.run(options, reports.back());
    reports.back().print_text();
  }
  if (reports.empty()) usage(("unknown workload '" + workload + "'").c_str());

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string body;
  for (const Report& r : reports) {
    correct = correct && r.correct();
    attempted += r.attempted();
    failed += r.failures().size();
    body += (body.empty() ? "\"" : ", \"") + r.workload() + "\": " + r.to_json();
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"workloads\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  return 0;
}
