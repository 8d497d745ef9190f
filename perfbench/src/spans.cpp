#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t SpanLog::add(std::uint64_t trace, std::uint32_t parent,
                           const char* name, double start_us, double end_us) {
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({trace, id, parent, name, start_us, end_us});
  return id;
}

void SpanLog::write_json(const std::string& path,
                         const std::string& header_json) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"header\":" << header_json << ",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"trace\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.trace),
                  s.id, s.parent, s.name, s.start_us, s.end_us);
    out << buf;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

}  // namespace perfbench
