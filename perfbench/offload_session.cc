// offload_session: sim::run_session on the paper's own setup (§VII-A, G1 on
// a Nexus 5 offloading to one NVIDIA Shield, bench::paper_config). The app is
// paced on the sim clock; the host runs the session as fast as it can.
//
// Every repetition in a run replays the same seeded session, so sim-clock
// results must repeat bit for bit; the timed loop measures host throughput
// with one session per core running in parallel.
#include <bit>
#include <cmath>

#include "bench/bench_util.h"
#include "parallel.h"
#include "runtime/trace.h"
#include "sim/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gb;

constexpr double kSessionSimS = 30.0;
constexpr double kWarmupSimS = 3.0;
constexpr int kMinRepeats = 2;
// Fig. 5: G1 on the Nexus 5, offloaded with GBooster.
constexpr double kPaperFig5G1Nexus5Fps = 37.0;

sim::SessionConfig session_config(std::uint64_t seed, double duration_s) {
  sim::SessionConfig config = bench::paper_config(
      apps::g1_gta_san_andreas(), device::nexus5(), duration_s);
  config.service_devices.push_back(device::nvidia_shield());
  config.seed = derive_seed(seed, 2);
  config.fault_seed = derive_seed(seed, 3);
  return config;
}

// Folds every sim-clock outcome the benchmark reports into one hash.
std::uint64_t fingerprint(const sim::SessionResult& r) {
  std::uint64_t h = kFnvBasis;
  auto f = [&h](double v) { h = fnv1a_u64(std::bit_cast<std::uint64_t>(v), h); };
  auto u = [&h](std::uint64_t v) { h = fnv1a_u64(v, h); };
  f(r.metrics.median_fps);
  f(r.metrics.avg_issue_to_display_ms);
  f(r.metrics.p99_response_ms);
  f(r.metrics.stall_seconds);
  u(r.metrics.frames_displayed);
  f(r.avg_power_w);
  f(r.energy.total());
  u(r.gbooster.bytes_sent);
  u(r.gbooster.bytes_received);
  u(r.gbooster.render_cache.hits);
  u(r.gbooster.state_cache.hits);
  u(r.gbooster.pending_depth_sum);
  u(r.gbooster.issue_stalls);
  u(r.transport.chunks_retransmitted);
  u(r.service_transport.chunks_retransmitted);
  u(r.transport.fec_recovered_chunks);
  u(r.user_path_wifi.chunks_sent);
  u(r.user_path_bt.chunks_sent);
  return h;
}

std::uint64_t undisplayed(const core::GBoosterStats& g) {
  return g.frames_dropped + g.frames_shed_window + g.frames_shed_deadline +
         g.frames_shed_void + g.frames_shed_service;
}

// Runs the session on every worker until `seconds` have passed. All
// repetitions replay one seeded session, so their sim results must agree.
struct Timed {
  std::vector<TimedCall> calls;
  sim::SessionResult first;
};

Timed timed_pass(const sim::SessionConfig& config, int workers, double seconds,
                 int min_calls, Report& report) {
  std::vector<std::vector<std::uint64_t>> prints(workers);
  std::vector<sim::SessionResult> firsts(workers);
  Timed t;
  t.calls = repeat_on_workers(workers, seconds, min_calls, [&](int w, int i) {
    sim::SessionResult result = sim::run_session(config);
    prints[w].push_back(fingerprint(result));
    if (i == 0) firsts[w] = std::move(result);
  });
  t.first = std::move(firsts[0]);
  const std::uint64_t expected = fingerprint(t.first);
  bool agree = true;
  for (const auto& v : prints) {
    for (std::uint64_t fp : v) agree = agree && fp == expected;
  }
  report.attempted(t.calls.size());
  report.check(agree, "repeated sessions with one seed disagree on sim results");
  return t;
}

double median_session_s(const Timed& t) {
  return median_wall(t.calls, [](const TimedCall&) { return true; });
}

void report_stages(const sim::SessionResult& traced, Report& report) {
  static constexpr runtime::Stage kStages[] = {
      runtime::Stage::kSerialize,   runtime::Stage::kUplink,
      runtime::Stage::kRemoteExec,  runtime::Stage::kTurboEncode,
      runtime::Stage::kDownlink,    runtime::Stage::kDecode,
      runtime::Stage::kPresent};
  for (runtime::Stage stage : kStages) {
    const sim::StageStats& s =
        traced.metrics.stage_breakdown[static_cast<std::size_t>(stage)];
    const std::string name = std::string("stage.") + runtime::stage_name(stage);
    report.add(name + "_ms_mean", s.mean_ms, "ms",
               "sim, n=" + std::to_string(s.count));
    report.add(name + "_ms_p99", s.p99_ms, "ms",
               "sim, n=" + std::to_string(s.count));
  }
  const core::GBoosterStats& g = traced.gbooster;
  report.add("core.render_cache_hit_ratio", g.render_cache.hit_rate(), "ratio");
  report.add("core.state_cache_hit_ratio", g.state_cache.hit_rate(), "ratio");
  report.add("core.pending_depth_mean",
             ratio(static_cast<double>(g.pending_depth_sum),
                   static_cast<double>(g.pending_depth_samples)),
             "requests");
  report.add("core.issue_stalls", static_cast<double>(g.issue_stalls), "count");
  report.add("net.retransmits",
             static_cast<double>(traced.transport.chunks_retransmitted +
                                 traced.service_transport.chunks_retransmitted),
             "count", "user + service endpoints");
  report.add("net.fec_recovered",
             static_cast<double>(traced.transport.fec_recovered_chunks +
                                 traced.service_transport.fec_recovered_chunks),
             "count");
  report.add("net.wifi_chunk_share",
             ratio(static_cast<double>(traced.user_path_wifi.chunks_sent),
                   static_cast<double>(traced.user_path_wifi.chunks_sent +
                                       traced.user_path_bt.chunks_sent)),
             "ratio", "user endpoint");
}

}  // namespace

void run_offload_session(const Options& options, Report& report) {
  const int workers = sim_workers();
  const std::string parallel = std::to_string(workers) + " sessions in parallel";
  const sim::SessionConfig warmup = session_config(options.seed, kWarmupSimS);
  std::vector<std::uint64_t> warm_frames(workers);
  const std::vector<TimedCall> setups =
      repeat_on_workers(workers, 0.0, 1, [&](int w, int) {
        warm_frames[w] = sim::run_session(warmup).metrics.frames_displayed;
      });
  for (std::uint64_t n : warm_frames) {
    report.check(n > 0, "warm-up displayed nothing");
  }
  report.add("setup_s", median_wall(setups, [](const TimedCall&) { return true; }),
             "s",
             "median of " + std::to_string(workers) + " warm-up sessions of " +
                 std::to_string(kWarmupSimS) + " sim-s, run in parallel");

  const sim::SessionConfig config = session_config(options.seed, kSessionSimS);
  const double pass_s = options.trace ? options.seconds / 2 : options.seconds;
  const Timed timed = timed_pass(config, workers, pass_s, kMinRepeats, report);
  // Every repetition is the same session, so the median repetition time is
  // robust to slow spells covering less than half of the run.
  const std::string reps = "median of " + std::to_string(timed.calls.size()) +
                           " sessions of " + std::to_string(kSessionSimS) +
                           " sim-s, " + parallel;
  const double session_s = median_session_s(timed);
  report.add("frames_per_wall_s",
             workers * static_cast<double>(timed.first.metrics.frames_displayed) /
                 session_s,
             "1/s", reps);
  report.add("sim_s_per_wall_s", workers * kSessionSimS / session_s, "sim-s/s",
             reps);

  // Traced repetitions: the stage breakdown from the session's own tracer.
  // Tracing must not change a single sim-clock outcome.
  sim::SessionConfig traced_config = config;
  traced_config.collect_stage_breakdown = true;
  const Timed traced_pass = timed_pass(
      traced_config, workers, options.trace ? pass_s : 0.0, 1, report);
  const sim::SessionResult& traced = traced_pass.first;
  report.check(fingerprint(traced) == fingerprint(timed.first),
               "tracing changed the session's sim results");
  const sim::SessionMetrics& m = traced.metrics;
  double stage_total_ms = 0.0;
  for (const sim::StageStats& s : m.stage_breakdown) stage_total_ms += s.total_ms;
  const double tiled_ms =
      ratio(stage_total_ms, static_cast<double>(m.frames_displayed));
  report.check(m.has_stage_breakdown &&
                   std::abs(tiled_ms - m.avg_issue_to_display_ms) <= 1e-3,
               "stage means do not tile avg_issue_to_display_ms");

  const sim::SessionResult& r = timed.first;
  const core::GBoosterStats& g = r.gbooster;
  const double frames = static_cast<double>(r.metrics.frames_displayed);
  const std::string sim_n = "sim, n=" + std::to_string(r.metrics.frames_displayed);
  const double fps = r.metrics.median_fps;
  char accuracy[128];
  std::snprintf(accuracy, sizeof(accuracy),
                "sim; paper Fig. 5 G1/Nexus 5 offloaded: %.0f FPS, error %+.1f%%",
                kPaperFig5G1Nexus5Fps,
                100.0 * (fps - kPaperFig5G1Nexus5Fps) / kPaperFig5G1Nexus5Fps);
  report.add("fps_median", fps, "fps", accuracy);
  report.add("response_ms_mean", r.metrics.avg_issue_to_display_ms, "ms", sim_n);
  report.add("response_ms_p99", r.metrics.p99_response_ms, "ms", sim_n);
  report.add("uplink_bytes_per_frame", ratio(static_cast<double>(g.bytes_sent), frames),
             "B/frame", "GBooster bytes sent");
  report.add("downlink_bytes_per_frame",
             ratio(static_cast<double>(g.bytes_received), frames), "B/frame",
             "GBooster bytes received");
  report.add("avg_power_w", r.avg_power_w, "W", "sim");
  report.add("stall_s", r.metrics.stall_seconds, "s", "sim");
  const double failed = static_cast<double>(undisplayed(g)) +
                        static_cast<double>(report.failures().size());
  report.add("failed_ratio", ratio(failed, frames + failed), "ratio",
             "undisplayed frames and failed checks / attempted");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", "whole process");
  report.add("session.fingerprint_lo32",
             static_cast<double>(fingerprint(r) & 0xffffffffu), "hash",
             "fnv1a " + hex64(fingerprint(r)));

  report_stages(traced, report);
  if (options.trace) {
    report.add("session.trace_overhead_pct",
               100.0 * (median_session_s(traced_pass) / session_s - 1.0), "%",
               "traced / untraced median session wall, minus 1");
  }
}

}  // namespace perfbench
