#include "spans.h"

#include <cstdio>

namespace perfbench {

uint32_t SpanLog::Begin(const char* name, uint32_t parent, uint64_t op) {
  if (!enabled_) {
    return 0;
  }
  const uint64_t now = NowNs();
  return Add(name, now, now, parent, op);
}

void SpanLog::End(uint32_t id) {
  if (id != 0) {
    spans_[id - 1].end_ns = NowNs();
  }
}

uint32_t SpanLog::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint32_t parent, uint64_t op) {
  if (!enabled_) {
    return 0;
  }
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, op});
  return id;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ns\",\"droppedSpans\":%llu}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
