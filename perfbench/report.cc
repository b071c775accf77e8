#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  if (!std::isfinite(value)) {
    check(false, name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::print_text() const {
  std::printf("== %s ==\n", workload_.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  checks: %" PRIu64 " run, %zu failed\n", checks_,
              failures_.size());
  for (const std::string& f : failures_) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  std::fflush(stdout);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::to_json() const {
  char buf[64];
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failures_.size());
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + json_string(failures_[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(s.n - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.n - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
  };
  s.p50 = at(0.5);
  // Highest percentile with at least ten samples beyond it; with fewer than
  // eleven samples there is none, and the maximum is reported instead.
  const double q = s.n > 10 ? std::min(0.99, 1.0 - 10.0 / s.n) : 1.0;
  s.tail_pct = 100.0 * q;
  s.tail = at(q);
  return s;
}

double median(std::vector<double> samples) {
  return summarize(std::move(samples)).p50;
}

std::string samples_note(std::size_t n) { return "n=" + std::to_string(n); }

std::string tail_note(const Summary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.4g, n=%zu", s.tail_pct, s.n);
  return buf;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  return fnv1a(bytes, h);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace perfbench
