// churn_soak: slices of sim::run_soak with its chaos axes on — session churn
// with node-id reuse, radio flaps, burst loss, device outages, overload
// bursts, balancer and cold migrations, shared dedup, analytic render.
// Session arrivals are seeded and open-loop on the sim clock.
//
// The slice is shorter than the soak bench's hours-long plan, so the chaos
// cadences are scaled down with it: every axis still fires several times in
// each slice. Every repetition replays the same seeded slice, so the soak
// fingerprint must repeat exactly. One slice runs per core at a time.
#include "parallel.h"
#include "sim/soak.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gb;

constexpr double kSliceSimS = 20.0;
constexpr double kWarmupSimS = 10.0;
// Slices per run, each on its own seed derived from the benchmark seed: the
// catalogue draw per session makes one slice's host cost depend strongly on
// which apps it drew, and several slices average that out.
constexpr int kSlices = 6;

sim::SoakPlan soak_plan(std::uint64_t seed, double duration_s) {
  sim::SoakPlan plan;
  plan.duration_s = duration_s;
  plan.seed = seed;
  plan.churn.slots = 8;
  plan.churn.mean_session_s = 8.0;
  plan.faults.link_flap_every_s = 6.0;
  plan.faults.device_outage_every_s = 12.0;
  plan.overload.every_s = 9.0;
  plan.overload.duration_s = 2.0;
  plan.cold_migrate_every_s = 7.0;
  return plan;
}

}  // namespace

void run_churn_soak(const Options& options, Report& report) {
  const int workers = sim_workers();
  const sim::SoakPlan warmup =
      soak_plan(derive_seed(options.seed, 4), kWarmupSimS);
  std::vector<char> warm_clean(workers, 0);
  const std::vector<TimedCall> setups =
      repeat_on_workers(workers, 0.0, 1, [&](int w, int) {
        const sim::SoakReport r = sim::run_soak(warmup);
        warm_clean[w] = r.violations == 0 && !r.halted_early;
      });
  for (char clean : warm_clean) {
    report.check(clean != 0, "warm-up slice violated an invariant");
  }
  report.add("setup_s", median_wall(setups, [](const TimedCall&) { return true; }),
             "s",
             "median of " + std::to_string(workers) + " warm-up slices of " +
                 std::to_string(kWarmupSimS) + " sim-s, run in parallel");

  // One worker per core, each cycling through the slices from its own
  // offset until the time is up and it has run every slice. Each slice's wall
  // time is the median over all its repetitions; every repetition of a slice
  // must reproduce its fingerprint.
  std::vector<sim::SoakPlan> plans;
  for (int i = 0; i < kSlices; ++i) {
    plans.push_back(soak_plan(derive_seed(options.seed, 5 + i), kSliceSimS));
  }
  auto slice_of = [](int worker, int index) { return (worker + index) % kSlices; };
  // Worker 0 runs every slice first; its reports are the reference, and
  // every worker keeps each repetition's fingerprint.
  std::vector<sim::SoakReport> first(kSlices);
  std::vector<std::vector<std::uint64_t>> prints(workers);
  std::vector<std::string> unclean(workers);  // violation dump, if any
  const std::vector<TimedCall> calls = repeat_on_workers(
      workers, options.seconds, kSlices, [&](int w, int i) {
        const int slice = slice_of(w, i);
        sim::SoakReport r = sim::run_soak(plans[slice]);
        if (r.violations != 0 || r.halted_early) {
          unclean[w] = "slice " + std::to_string(slice) + ": " + r.violation_dump;
        }
        prints[w].push_back(r.fingerprint);
        if (w == 0 && i < kSlices) first[slice] = std::move(r);
      });
  report.attempted(calls.size());
  int mismatches = 0;
  for (int w = 0; w < workers; ++w) {
    report.check(unclean[w].empty(),
                 "invariant violations or an early halt, " + unclean[w]);
    for (std::size_t i = 0; i < prints[w].size(); ++i) {
      const int slice = slice_of(w, static_cast<int>(i));
      if (prints[w][i] != first[slice].fingerprint) ++mismatches;
    }
  }
  report.check(mismatches == 0,
               "repeated slices with one seed disagree on the fingerprint");

  // Sums over the slices (first repetition; all repetitions are identical).
  sim::SoakReport sum;
  std::uint64_t fingerprint = kFnvBasis;
  double wall_s = 0.0, latency_weighted = 0.0;
  std::vector<double> p99;
  for (int i = 0; i < kSlices; ++i) {
    const sim::SoakReport& r = first[i];
    wall_s += median_wall(calls, [&](const TimedCall& c) {
      return slice_of(c.worker, c.index) == i;
    });
    fingerprint = fnv1a_u64(r.fingerprint, fingerprint);
    sum.sessions_started += r.sessions_started;
    sum.placements_rejected += r.placements_rejected;
    sum.frames_displayed += r.frames_displayed;
    sum.frames_lost += r.frames_lost;
    sum.auto_migrations += r.auto_migrations;
    sum.audits_run += r.audits_run;
    sum.violations += r.violations;
    sum.hot_spot_mean_queue_depth += r.hot_spot_mean_queue_depth / kSlices;
    latency_weighted += r.mean_latency_ms * static_cast<double>(r.frames_displayed);
    p99.push_back(r.p99_latency_ms);
    if (i == 0) {
      sum.drift = r.drift;
      for (auto& d : sum.drift) d.at_10pct = d.final_value = 0.0;
    }
    for (std::size_t g = 0; g < r.drift.size() && g < sum.drift.size(); ++g) {
      sum.drift[g].at_10pct += r.drift[g].at_10pct;
      sum.drift[g].final_value += r.drift[g].final_value;
    }
  }

  const std::string reps = std::to_string(calls.size()) + " runs of " +
                           std::to_string(kSlices) + " slices of " +
                           std::to_string(kSliceSimS) + " sim-s, " +
                           std::to_string(workers) + " in parallel";
  const double frames = static_cast<double>(sum.frames_displayed);
  report.add("frames_per_wall_s", workers * frames / wall_s, "1/s", reps);
  report.add("sim_s_per_wall_s", workers * kSlices * kSliceSimS / wall_s,
             "sim-s/s", reps);
  const std::string sim_n = "sim, n=" + std::to_string(sum.frames_displayed);
  report.add("response_ms_mean", ratio(latency_weighted, frames), "ms", sim_n);
  report.add("response_ms_p99", median(p99), "ms",
             "sim, median over slices of each slice's p99");
  const double lost = static_cast<double>(sum.frames_lost);
  report.add("failed_ratio",
             ratio(lost + static_cast<double>(report.failures().size()),
                   frames + lost) +
                 ratio(static_cast<double>(sum.placements_rejected),
                       static_cast<double>(sum.sessions_started)),
             "ratio",
             "lost frames / frames + rejected placements / sessions");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", "whole process");
  report.add("soak.fingerprint_lo32",
             static_cast<double>(fingerprint & 0xffffffffu), "hash",
             "fnv1a " + hex64(fingerprint) + " over the slice fingerprints");

  report.add("sim.sessions_started", static_cast<double>(sum.sessions_started),
             "count", "summed over slices");
  report.add("sim.placements_rejected",
             static_cast<double>(sum.placements_rejected), "count");
  report.add("sim.frames_lost", lost, "count");
  report.add("core.auto_migrations", static_cast<double>(sum.auto_migrations),
             "count");
  report.add("runtime.audits_run", static_cast<double>(sum.audits_run), "count");
  report.add("runtime.invariant_violations",
             static_cast<double>(sum.violations), "count");
  report.add("sim.hot_spot_queue_mean", sum.hot_spot_mean_queue_depth,
             "requests", "mean over slices");
  for (const sim::SoakDriftSeries& series : sum.drift) {
    report.add("drift." + series.name,
               (series.final_value + 1.0) / (series.at_10pct + 1.0), "ratio",
               "(final + 1) / (value at 10% + 1), summed over slices");
  }
}

}  // namespace perfbench
