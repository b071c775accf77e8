#include "parallel.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "report.h"

namespace perfbench {

int sim_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::vector<TimedCall> repeat_on_workers(
    int workers, double seconds, int min_calls,
    const std::function<void(int worker, int index)>& fn) {
  std::vector<std::vector<TimedCall>> per_worker(workers);
  std::vector<std::exception_ptr> errors(workers);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          for (int i = 0; i < min_calls || seconds_since(start) < seconds; ++i) {
            const auto t0 = Clock::now();
            fn(w, i);
            per_worker[w].push_back(TimedCall{w, i, seconds_since(t0)});
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
  }  // jthreads join here
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<TimedCall> calls;
  for (const auto& v : per_worker) calls.insert(calls.end(), v.begin(), v.end());
  return calls;
}

double median_wall(const std::vector<TimedCall>& calls,
                   const std::function<bool(const TimedCall&)>& select) {
  std::vector<double> walls;
  for (const TimedCall& c : calls) {
    if (select(c)) walls.push_back(c.wall_s);
  }
  return median(std::move(walls));
}

}  // namespace perfbench
