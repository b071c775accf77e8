// In-memory span log for the traced pipeline pass.
//
// Every span records the layer it timed, the frame it belongs to, its own
// id, its parent's id and the worker that ran it. Each thread appends to its
// own buffer (no locks on the hot path; encode_tile spans arrive from every
// pool worker at once), and nothing is written until the benchmark ends.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

// Layers timed around the public calls of the frame pipeline, in call order.
enum class Layer : std::uint8_t {
  kFrame = 0,      // root: one closed-loop frame, record -> decode
  kRecord,         // apps::GameApp::render_frame into wire::CommandRecorder
  kCacheEncode,    // compress::encode_frame_with_cache
  kLz4Compress,    // compress::lz4_compress
  kLz4Decompress,  // compress::lz4_decompress
  kCacheDecode,    // compress::decode_frame_with_cache
  kReplay,         // wire::replay_frame into gles::DirectBackend
  kBeginFrame,     // codec::TurboEncoder::begin_frame
  kTileSweep,      // gles::GlContext::flush_tiles (raster + tile sink)
  kEncodeTile,     // codec::TurboEncoder::encode_tile, child of kTileSweep
  kFinishFrame,    // codec::TurboEncoder::finish_frame
  kDecode,         // codec::TurboDecoder::decode
};
inline constexpr std::size_t kLayerCount = 12;
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 only for kFrame
  std::uint32_t frame = 0;
  std::uint16_t worker = 0;
  Layer layer = Layer::kFrame;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kMaxWorkers = 64;

  SpanLog();

  // Allocates an id for a span about to be opened on the calling thread.
  std::uint64_t next_id();
  void record(const Span& span);
  [[nodiscard]] std::int64_t now_ns() const;
  // Small, stable index of the calling thread (0 = first thread to ask).
  static std::uint16_t worker_index();

  [[nodiscard]] std::vector<Span> all_spans() const;
  // Writes the spans as a Chrome trace-event JSON file.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  struct alignas(64) Buffer {
    std::vector<Span> spans;
    std::uint64_t next_seq = 1;
  };
  std::array<Buffer, kMaxWorkers> buffers_;
};

// Times one call into a layer; a null log makes it a no-op, which is how the
// untraced timed loop runs the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, std::uint32_t frame,
             std::uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench
