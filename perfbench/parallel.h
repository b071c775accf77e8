// Repeats a deterministic unit of work on several threads at once.
//
// On a shared host each core slows down on its own, for spells of several
// seconds (whatever else runs on that core's sibling). A single thread
// samples one core at a time; running one worker per core and pooling their
// timings averages over the cores.
#pragma once

#include <functional>
#include <vector>

namespace perfbench {

// Workers for the single-threaded sim workloads: one per core, at most 4.
int sim_workers();

struct TimedCall {
  int worker = 0;
  int index = 0;  // per-worker call counter
  double wall_s = 0.0;
};

// Calls fn(worker, index) on `workers` threads until `seconds` have passed
// and every worker has made at least `min_calls` calls. Returns every call's
// wall time. An exception thrown by fn is rethrown after all threads joined.
std::vector<TimedCall> repeat_on_workers(
    int workers, double seconds, int min_calls,
    const std::function<void(int worker, int index)>& fn);

// Median wall time of the calls `select` accepts.
double median_wall(const std::vector<TimedCall>& calls,
                   const std::function<bool(const TimedCall&)>& select);

}  // namespace perfbench
