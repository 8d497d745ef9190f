// In-memory span log, written out once when the benchmark ends.
//
// Spans are recorded from the benchmark's own decorators around the calls
// into each layer; nothing inside src/ is instrumented. A span names a layer
// boundary, carries start/end on the benchmark's steady clock, and points at
// the span that caused it. Spans of one request (a training cell, a served
// query) share a trace id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the process-wide steady clock used by every timestamp in
/// the benchmark (spans, request due/sent/done times).
[[nodiscard]] double now_us();

struct Span {
  std::uint64_t trace = 0;
  std::uint32_t id = 0;
  /// 0 = root span of its trace.
  std::uint32_t parent = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Not thread-safe: each phase records from one thread, or builds its spans
/// after the fact from per-request timestamps.
class SpanLog {
 public:
  /// Appends a span and returns its id (ids start at 1).
  std::uint32_t add(std::uint64_t trace, std::uint32_t parent, const char* name,
                    double start_us, double end_us);

  /// Opens a span whose end is set later by close(); returns its id.
  std::uint32_t open(std::uint64_t trace, std::uint32_t parent,
                     const char* name, double start_us) {
    return add(trace, parent, name, start_us, start_us);
  }
  void close(std::uint32_t id, double end_us) { spans_.at(id - 1).end_us = end_us; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes {"header": <header_json>, "spans": [...]} to `path`. Throws
  /// std::runtime_error on I/O failure.
  void write_json(const std::string& path, const std::string& header_json) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
