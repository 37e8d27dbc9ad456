// In-memory span recording for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public entry point (name,
// start, end, the enclosing span, the operation id, the bytes the call
// covered), kept in memory, and written as JSON lines when the run ends;
// waterfall.py turns them into per-layer self times. Single-threaded: only
// the driver's calling thread records.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal naming the layer entry point
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::uint64_t bytes = 0;
    double duration_ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

  std::int32_t open(const char* name, std::uint64_t op, std::uint64_t bytes) {
    Span span{name};
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    span.bytes = bytes;
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false on an I/O failure.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"op\":%llu,\"bytes\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.bytes));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: open on construction, close on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op, std::uint64_t bytes = 0)
      : tracer_(tracer), index_(tracer.open(name, op, bytes)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace e2e
