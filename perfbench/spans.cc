#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "frame",         "wire.record",       "compress.cache_encode",
      "compress.lz4_compress", "compress.lz4_decompress",
      "compress.cache_decode", "wire.replay", "codec.begin_frame",
      "gles.tile_sweep", "codec.encode_tile", "codec.finish_frame",
      "codec.decode"};
  return kNames[static_cast<std::size_t>(layer)];
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::uint16_t SpanLog::worker_index() {
  static std::atomic<std::uint16_t> next{0};
  thread_local const std::uint16_t index = next.fetch_add(1);
  return index;
}

std::uint64_t SpanLog::next_id() {
  const std::uint16_t w = worker_index();
  Buffer& buffer = buffers_[w % kMaxWorkers];
  return (static_cast<std::uint64_t>(w) << 48) | buffer.next_seq++;
}

void SpanLog::record(const Span& span) {
  buffers_[span.worker % kMaxWorkers].spans.push_back(span);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<Span> SpanLog::all_spans() const {
  std::vector<Span> out;
  for (const Buffer& buffer : buffers_) {
    out.insert(out.end(), buffer.spans.begin(), buffer.spans.end());
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : all_spans()) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":%u,"
                 "\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                 first ? "" : ",\n", layer_name(s.layer),
                 static_cast<unsigned>(s.worker), s.begin_ns / 1e3,
                 (s.end_ns - s.begin_ns) / 1e3, s.frame, s.id, s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, Layer layer, std::uint32_t frame,
                       std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.parent = parent;
  span_.frame = frame;
  span_.worker = SpanLog::worker_index();
  span_.layer = layer;
  span_.begin_ns = log_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  log_->record(span_);
}

}  // namespace perfbench
