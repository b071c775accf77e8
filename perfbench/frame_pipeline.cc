// frame_pipeline: the record -> cache/LZ4 -> replay -> render -> Turbo encode
// -> decode path, staged by hand through the public calls of each layer, one
// frame in flight (closed loop) on a single shared thread pool.
//
// Host-side user device: apps::GameApp (G2) records through
// wire::CommandRecorder. Wire: compress::encode_frame_with_cache ->
// lz4_compress -> lz4_decompress -> decode_frame_with_cache. Service device:
// wire::replay_frame into a gles::DirectBackend, then
// TurboEncoder::begin_frame -> GlContext::flush_tiles (tile sink calling
// encode_tile) -> finish_frame. Client: TurboDecoder::decode.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "apps/game_app.h"
#include "apps/workload.h"
#include "codec/turbo_codec.h"
#include "common/error.h"
#include "common/rng.h"
#include "compress/command_cache.h"
#include "compress/lz4.h"
#include "core/tile_fusion.h"
#include "gles/direct_backend.h"
#include "runtime/thread_pool.h"
#include "spans.h"
#include "wire/decoder.h"
#include "wire/recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace gb;

constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr double kFps = 30.0;        // animation clock step
constexpr int kSceneEvery = 24;      // texture re-upload cadence (frames)
constexpr int kBurstEvery = 48;      // touch-burst cadence (frames)
constexpr int kBurstFrames = 6;
constexpr int kWarmupFrames = 3;     // part of set-up
constexpr int kWindowFrames = 40;    // verified window after the warm-up
constexpr int kInjectFrame = kWarmupFrames + 5;
constexpr int kSetupRepeats = 3;
// Throughput is sampled over chunks of frames; the median chunk is robust to
// slow spells of a shared host covering less than half of the run.
constexpr int kRateChunk = 25;
constexpr double kPsnrFloorDb = 28.0;

int pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

bool same_records(const wire::FrameCommands& a, const wire::FrameCommands& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (a.records[i].bytes != b.records[i].bytes) return false;
  }
  return true;
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.pixel_count() * 4) == 0;
}

struct FrameOutput {
  std::size_t records = 0;
  std::size_t raw_bytes = 0;
  std::size_t cache_bytes = 0;
  std::size_t lz4_bytes = 0;
  wire::FrameCommands replayed;  // what the service device executed
  Bytes turbo;                   // encoder output, before any injected fault
  std::optional<Image> decoded;
  std::string error;             // empty when every transit check held
};

// One user device, one service device and the wire between them.
class Pipeline {
 public:
  explicit Pipeline(std::uint64_t seed)
      : pool_(pool_threads()),
        recorder_(kWidth, kHeight,
                  [this](wire::FrameCommands frame) {
                    captured_ = std::move(frame);
                    return true;
                  }),
        app_(apps::g2_modern_combat(), recorder_, kWidth, kHeight,
             Rng(derive_seed(seed, 1))),
        service_(kWidth, kHeight, {}) {
    service_.context().set_thread_pool(&pool_);
    encoder_.set_thread_pool(&pool_);
    decoder_.set_thread_pool(&pool_);
    app_.setup();
  }

  [[nodiscard]] int frame() const { return frame_; }
  [[nodiscard]] runtime::ThreadPool& pool() { return pool_; }
  [[nodiscard]] gles::GlContext& service_context() {
    return service_.context();
  }
  [[nodiscard]] const compress::CacheStats& cache_stats() const {
    return cache_stats_;
  }
  [[nodiscard]] const codec::TurboFrameStats& turbo_stats() const {
    return encoder_.last_stats();
  }

  // Runs one frame end to end. Transit checks (LZ4 and cache round trips,
  // decodability) land in out.error; `inject` corrupts the LZ4 block or the
  // Turbo bitstream in transit.
  void step(SpanLog* log, Inject inject, FrameOutput& out) {
    const auto f = static_cast<std::uint32_t>(frame_++);
    ScopedSpan root(log, Layer::kFrame, f, 0);
    const std::uint64_t parent = root.id();
    try {
      if (f > 0 && f % kSceneEvery == 0) app_.trigger_scene_change();
      {
        ScopedSpan s(log, Layer::kRecord, f, parent);
        app_.render_frame(f / kFps, f % kBurstEvery < kBurstFrames);
      }
      if (!captured_) {
        out.error = "recorder produced no frame";
        return;
      }
      const wire::FrameCommands sent = std::move(*captured_);
      captured_.reset();
      out.records = sent.records.size();
      out.raw_bytes = sent.total_bytes();

      Bytes cached;
      {
        ScopedSpan s(log, Layer::kCacheEncode, f, parent);
        cached = compress::encode_frame_with_cache(sent, tx_cache_,
                                                   cache_stats_);
      }
      out.cache_bytes = cached.size();
      Bytes block;
      {
        ScopedSpan s(log, Layer::kLz4Compress, f, parent);
        block = compress::lz4_compress(cached);
      }
      out.lz4_bytes = block.size();
      if (inject == Inject::kLz4 && !block.empty()) block[block.size() / 2] ^= 0x5a;
      std::optional<Bytes> unpacked;
      {
        ScopedSpan s(log, Layer::kLz4Decompress, f, parent);
        unpacked = compress::lz4_decompress(block, cached.size());
      }
      if (!unpacked || *unpacked != cached) {
        out.error = "LZ4 round trip is not byte-equal";
        return;
      }
      {
        ScopedSpan s(log, Layer::kCacheDecode, f, parent);
        out.replayed = compress::decode_frame_with_cache(*unpacked, rx_cache_);
      }
      if (!same_records(out.replayed, sent)) {
        out.error = "command-cache round trip is not byte-equal";
        return;
      }
      {
        ScopedSpan s(log, Layer::kReplay, f, parent);
        wire::replay_frame(out.replayed, service_);
      }
      gles::GlContext& ctx = service_.context();
      {
        ScopedSpan s(log, Layer::kBeginFrame, f, parent);
        encoder_.begin_frame(ctx.surface_width(), ctx.surface_height());
      }
      {
        ScopedSpan sweep(log, Layer::kTileSweep, f, parent);
        const std::uint64_t sweep_id = sweep.id();
        ctx.flush_tiles([&](const Image& color, int tile_index) {
          ScopedSpan s(log, Layer::kEncodeTile, f, sweep_id);
          encoder_.encode_tile(color, tile_index);
        });
      }
      {
        ScopedSpan s(log, Layer::kFinishFrame, f, parent);
        out.turbo = encoder_.finish_frame(ctx.color_buffer());
      }
      std::optional<Bytes> flipped;
      if (inject == Inject::kTurbo && !out.turbo.empty()) {
        flipped = out.turbo;
        (*flipped)[flipped->size() / 2] ^= 0x5a;
      }
      {
        ScopedSpan s(log, Layer::kDecode, f, parent);
        out.decoded = decoder_.decode(flipped ? *flipped : out.turbo);
      }
      if (!out.decoded) out.error = "Turbo frame did not decode";
    } catch (const std::exception& e) {
      out.error = std::string("pipeline threw: ") + e.what();
    }
  }

 private:
  runtime::ThreadPool pool_;
  std::optional<wire::FrameCommands> captured_;
  wire::CommandRecorder recorder_;
  apps::GameApp app_;
  compress::CommandCache tx_cache_;
  compress::CommandCache rx_cache_;
  compress::CacheStats cache_stats_;
  gles::DirectBackend service_;
  codec::TurboEncoder encoder_;
  codec::TurboDecoder decoder_;
  int frame_ = 0;
};

// Sets the pipeline up kSetupRepeats times (construction, app set-up and the
// warm-up frames) and keeps the last one.
std::unique_ptr<Pipeline> set_up(const Options& options, Report& report) {
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> pipeline;
  for (int r = 0; r < kSetupRepeats; ++r) {
    pipeline.reset();
    const auto start = Clock::now();
    pipeline = std::make_unique<Pipeline>(options.seed);
    for (int f = 0; f < kWarmupFrames; ++f) {
      FrameOutput out;
      pipeline->step(nullptr, Inject::kNone, out);
      report.check(out.error.empty(), "warm-up frame: " + out.error);
    }
    setup_s.push_back(seconds_since(start));
  }
  report.add("setup_s", median(setup_s), "s",
             "median of " + std::to_string(kSetupRepeats) + " set-ups");
  return pipeline;
}

struct TimedPass {
  std::vector<double> frame_ms;
  std::vector<double> chunk_fps;
  std::uint64_t window_digest = kFnvBasis;
};

// Closed loop for `seconds`, and at least until the verified window has
// been covered, so its digest can be compared with the reference pass.
TimedPass timed_pass(Pipeline& pipeline, SpanLog* log, double seconds,
                     Report& report) {
  TimedPass pass;
  const auto start = Clock::now();
  auto chunk_start = start;
  int in_chunk = 0;
  while (seconds_since(start) < seconds ||
         pipeline.frame() < kWarmupFrames + kWindowFrames) {
    const int f = pipeline.frame();
    const auto t0 = Clock::now();
    FrameOutput out;
    pipeline.step(log, Inject::kNone, out);
    pass.frame_ms.push_back(seconds_since(t0) * 1e3);
    if (!out.error.empty()) {
      report.check(false, "frame " + std::to_string(f) + ": " + out.error);
    }
    if (f >= kWarmupFrames && f < kWarmupFrames + kWindowFrames) {
      pass.window_digest = fnv1a(out.turbo, pass.window_digest);
    }
    if (++in_chunk == kRateChunk) {
      pass.chunk_fps.push_back(kRateChunk / seconds_since(chunk_start));
      chunk_start = Clock::now();
      in_chunk = 0;
    }
  }
  report.attempted(pass.frame_ms.size());
  return pass;
}

struct Window {
  double records = 0, raw_bytes = 0, cache_bytes = 0, lz4_bytes = 0;
  double turbo_bytes = 0, tiles_coded = 0, tiles_total = 0, psnr_db = 0;
  double psnr_min_db = 1e9;
  std::uint64_t digest = kFnvBasis;
  compress::CacheStats cache;
  gles::RenderStats render;
};

// Untimed verification pass on a fresh pipeline with the same seed: checks
// the staged bitstream against core::encode_frame_fused on a replica of the
// service device, the decoded pixels against a reference decoder fed the
// replica's bitstream, and PSNR against the rendered frame. Content metrics
// and the Turbo digest come from this pass's window, so they depend on the
// seed only.
Window reference_pass(const Options& options, Report& report) {
  Window w;
  Pipeline pipeline(options.seed);
  gles::DirectBackend replica(kWidth, kHeight, {});
  replica.context().set_thread_pool(&pipeline.pool());
  codec::TurboEncoder fused_encoder;
  fused_encoder.set_thread_pool(&pipeline.pool());
  codec::TurboDecoder reference_decoder;
  compress::CacheStats cache_before;
  gles::RenderStats render_before;
  for (int f = 0; f < kWarmupFrames + kWindowFrames; ++f) {
    if (f == kWarmupFrames) {
      cache_before = pipeline.cache_stats();
      render_before = pipeline.service_context().stats();
    }
    const Inject inject = f == kInjectFrame ? options.inject : Inject::kNone;
    FrameOutput out;
    pipeline.step(nullptr, inject, out);
    std::string error = out.error;
    if (error.empty()) {
      try {
        wire::replay_frame(out.replayed, replica);
        const Bytes fused =
            core::encode_frame_fused(replica.context(), fused_encoder);
        const std::optional<Image> expected = reference_decoder.decode(fused);
        if (fused != out.turbo) {
          error = "staged Turbo bitstream differs from encode_frame_fused";
        } else if (!expected || !same_pixels(*expected, *out.decoded)) {
          error = "decoded frame differs from the reference decode";
        }
      } catch (const std::exception& e) {
        error = std::string("replica threw: ") + e.what();
      }
    }
    if (!error.empty()) {
      report.check(false, "verified frame " + std::to_string(f) + ": " + error);
      continue;
    }
    if (f < kWarmupFrames) continue;
    const double db =
        codec::psnr(*out.decoded, pipeline.service_context().color_buffer());
    w.records += out.records;
    w.raw_bytes += out.raw_bytes;
    w.cache_bytes += out.cache_bytes;
    w.lz4_bytes += out.lz4_bytes;
    w.turbo_bytes += out.turbo.size();
    w.tiles_coded += pipeline.turbo_stats().tiles_coded;
    w.tiles_total += pipeline.turbo_stats().tiles_total;
    w.psnr_db += db;
    w.psnr_min_db = std::min(w.psnr_min_db, db);
    w.digest = fnv1a(out.turbo, w.digest);
  }
  const compress::CacheStats& c = pipeline.cache_stats();
  w.cache.hits = c.hits - cache_before.hits;
  w.cache.shared_hits = c.shared_hits - cache_before.shared_hits;
  w.cache.misses = c.misses - cache_before.misses;
  w.cache.bytes_in = c.bytes_in - cache_before.bytes_in;
  w.cache.bytes_out = c.bytes_out - cache_before.bytes_out;
  const gles::RenderStats& r = pipeline.service_context().stats();
  w.render.tiles_shaded = r.tiles_shaded - render_before.tiles_shaded;
  w.render.fragments_early_z_culled =
      r.fragments_early_z_culled - render_before.fragments_early_z_culled;
  report.attempted(kWarmupFrames + kWindowFrames);
  return w;
}

// Per-layer host time from the traced pass's spans: mean per frame of each
// layer's span, the tile sweep's self time (sweep wall minus the part of it
// covered by encode_tile spans), encode_tile busy time summed over workers,
// and whatever part of the frame no layer span covers.
void report_layers(const SpanLog& log, double untraced_frame_ms,
                   Report& report) {
  std::vector<Span> spans = log.all_spans();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.frame != b.frame ? a.frame < b.frame : a.begin_ns < b.begin_ns;
  });
  std::array<double, kLayerCount> total_ns{};
  double children_ns = 0, sweep_self_ns = 0;
  std::size_t frames = 0, tile_spans = 0;
  for (std::size_t i = 0; i < spans.size();) {
    std::size_t end = i;
    while (end < spans.size() && spans[end].frame == spans[i].frame) ++end;
    const Span* root = nullptr;
    const Span* sweep = nullptr;
    std::vector<std::pair<std::int64_t, std::int64_t>> tiles;
    for (std::size_t k = i; k < end; ++k) {
      const Span& s = spans[k];
      total_ns[static_cast<std::size_t>(s.layer)] += s.end_ns - s.begin_ns;
      if (s.layer == Layer::kFrame) root = &s;
      if (s.layer == Layer::kTileSweep) sweep = &s;
      if (s.layer == Layer::kEncodeTile) tiles.emplace_back(s.begin_ns, s.end_ns);
    }
    for (std::size_t k = i; k < end; ++k) {
      if (root != nullptr && spans[k].parent == root->id) {
        children_ns += spans[k].end_ns - spans[k].begin_ns;
      }
    }
    if (sweep != nullptr) {
      std::sort(tiles.begin(), tiles.end());
      std::int64_t covered = 0, cur_begin = 0, cur_end = -1;
      for (const auto& [b, e] : tiles) {
        if (b > cur_end) {
          if (cur_end > cur_begin) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
      sweep_self_ns += (sweep->end_ns - sweep->begin_ns) - covered;
    }
    tile_spans += tiles.size();
    if (root != nullptr) ++frames;
    i = end;
  }
  const double n = static_cast<double>(std::max<std::size_t>(frames, 1));
  auto ms = [&](Layer l) { return total_ns[static_cast<std::size_t>(l)] / n / 1e6; };
  const std::string note = "mean/frame, n=" + std::to_string(frames);
  const double frame_ms = ms(Layer::kFrame);
  report.add("pipeline.frame_wall_ms", frame_ms, "ms", note + ", traced");
  report.add("wire.record_ms", ms(Layer::kRecord), "ms", note);
  report.add("compress.cache_encode_ms", ms(Layer::kCacheEncode), "ms", note);
  report.add("compress.lz4_compress_ms", ms(Layer::kLz4Compress), "ms", note);
  report.add("compress.lz4_decompress_ms", ms(Layer::kLz4Decompress), "ms", note);
  report.add("compress.cache_decode_ms", ms(Layer::kCacheDecode), "ms", note);
  report.add("wire.replay_ms", ms(Layer::kReplay), "ms", note);
  report.add("codec.begin_frame_ms", ms(Layer::kBeginFrame), "ms", note);
  report.add("gles.tile_sweep_ms", ms(Layer::kTileSweep), "ms", note);
  report.add("gles.tile_sweep_self_ms", sweep_self_ns / n / 1e6, "ms",
             note + ", sweep not covered by encode_tile");
  report.add("codec.encode_tile_busy_ms", ms(Layer::kEncodeTile), "ms",
             note + ", summed over workers, " +
                 std::to_string(tile_spans) + " tile spans");
  report.add("codec.finish_frame_ms", ms(Layer::kFinishFrame), "ms", note);
  report.add("codec.decode_ms", ms(Layer::kDecode), "ms", note);
  report.add("codec.serial_share", ratio(ms(Layer::kFinishFrame), frame_ms),
             "ratio", "finish_frame / frame wall");
  report.add("pipeline.untimed_ms", (total_ns[0] - children_ns) / n / 1e6,
             "ms", "frame wall not covered by any layer span");
  report.add("pipeline.trace_overhead_ms", frame_ms - untraced_frame_ms, "ms",
             "traced minus untraced mean frame wall");
}

}  // namespace

void run_frame_pipeline(const Options& options, Report& report) {
  std::unique_ptr<Pipeline> pipeline = set_up(options, report);
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const TimedPass pass = timed_pass(*pipeline, nullptr, untraced_s, report);
  const Summary frame = summarize(pass.frame_ms);
  report.add("frames_per_wall_s", median(pass.chunk_fps), "1/s",
             "median of " + std::to_string(pass.chunk_fps.size()) +
                 " chunks of " + std::to_string(kRateChunk) + " frames");
  report.add("frame_wall_ms_p50", frame.p50, "ms", samples_note(frame.n));
  report.add("frame_wall_ms_p99", frame.tail, "ms", tail_note(frame));
  if (options.trace) {
    SpanLog log;
    timed_pass(*pipeline, &log, options.seconds / 2, report);
    report_layers(log, frame.mean, report);
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/spans_frame_pipeline_seed" +
                               std::to_string(options.seed) + ".json";
      report.check(log.write_chrome_json(path), "writing " + path);
    }
  }
  pipeline.reset();

  const Window w = reference_pass(options, report);
  report.check(pass.window_digest == w.digest,
               "timed pass Turbo digest differs from the verified pass");
  const double n = kWindowFrames;
  const double psnr = w.psnr_db / n;
  report.check(w.psnr_min_db >= kPsnrFloorDb, "PSNR below the floor");
  report.add("uplink_bytes_per_frame", w.lz4_bytes / n, "B/frame",
             "LZ4 block, verified window");
  report.add("downlink_bytes_per_frame", w.turbo_bytes / n, "B/frame",
             "Turbo bitstream, verified window");
  report.add("psnr_db", psnr, "dB", "decoded vs rendered, mean of window");
  report.add("psnr_min_db", w.psnr_min_db, "dB", "worst frame of window");
  report.add("failed_ratio",
             ratio(static_cast<double>(report.failures().size()),
                   static_cast<double>(report.attempted())),
             "ratio", "failed checks / frames attempted");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", "whole process");
  report.add("wire.records_per_frame", w.records / n, "count/frame");
  report.add("wire.raw_bytes_per_frame", w.raw_bytes / n, "B/frame");
  report.add("compress.cache_hit_ratio", w.cache.hit_rate(), "ratio");
  report.add("compress.cache_out_in_ratio",
             ratio(static_cast<double>(w.cache.bytes_out),
                   static_cast<double>(w.cache.bytes_in)),
             "ratio", "encoded / raw record bytes");
  report.add("compress.lz4_ratio", ratio(w.lz4_bytes, w.cache_bytes), "ratio",
             "LZ4 block / cache-encoded bytes");
  report.add("gles.tiles_shaded_per_frame",
             static_cast<double>(w.render.tiles_shaded) / n, "count/frame");
  report.add("gles.early_z_culled_per_frame",
             static_cast<double>(w.render.fragments_early_z_culled) / n,
             "count/frame");
  report.add("codec.tiles_coded_ratio", ratio(w.tiles_coded, w.tiles_total),
             "ratio");
  report.add("codec.bytes_per_frame", w.turbo_bytes / n, "B/frame");
  report.add("pipeline.turbo_digest_lo32",
             static_cast<double>(w.digest & 0xffffffffu), "hash",
             "fnv1a " + hex64(w.digest) + " over " +
                 std::to_string(kWindowFrames) + " frames");
}

}  // namespace perfbench
