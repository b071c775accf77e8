// Metric collection, checks and output for the benchmark harness.
//
// Each workload fills one Report: named metrics with units (and, for
// timings, the sample count behind them), plus the outcome of every
// correctness check. The harness prints the reports as aligned text and
// ends with one JSON line that perfbench/run.py reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, percentile used, reference figure...
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(std::string name, double value, std::string unit,
           std::string note = "");
  // Records a correctness check. A failed check fails the run and counts as
  // one failed operation.
  void check(bool ok, const std::string& what);
  // Counts operations (frames, sessions, soak slices) attempted.
  void attempted(std::uint64_t n) { attempted_ += n; }

  [[nodiscard]] const std::string& workload() const { return workload_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  void print_text() const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t attempted_ = 0;
};

// Order statistics of a timing series. `tail` is the highest percentile that
// still leaves at least ten samples above it, capped at p99.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);

// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// "n=400" / "p97.5, n=400" notes for timing metrics.
std::string samples_note(std::size_t n);
std::string tail_note(const Summary& s);

// 64-bit FNV-1a, chained through `h`.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = kFnvBasis);
std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h);

// Derives an independent 64-bit seed from the benchmark seed and a stream
// label (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Peak resident set of this process, in MiB.
double peak_rss_mb();

std::string hex64(std::uint64_t v);

}  // namespace perfbench
