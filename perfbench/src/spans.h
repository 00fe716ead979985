// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own files around its calls into each layer (setup, slices,
// kernel passes, RingClient issue calls, YcsbWorkload::Next, completion
// callbacks); spans inside the program are out of scope. The log is written
// once, as Chrome trace_event JSON, when the run ends.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;   // string literal
    uint64_t start_ns;  // host ns since the log's epoch
    uint64_t end_ns;
    uint32_t id;
    uint32_t parent;    // 0: none
    uint64_t op;        // benchmark op id shared by one request; 0: none
  };

  explicit SpanLog(size_t capacity = 2'000'000) : capacity_(capacity) {
    spans_.reserve(capacity < 65536 ? capacity : 65536);
  }

  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }

  // Host ns since the log's epoch.
  uint64_t Ns(std::chrono::steady_clock::time_point t) const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }
  uint64_t NowNs() const { return Ns(std::chrono::steady_clock::now()); }

  // Opens a span and returns its id (0 when disabled or full); close it
  // with End(). Spans nest through the `parent` id the caller passes.
  uint32_t Begin(const char* name, uint32_t parent, uint64_t op);
  void End(uint32_t id);
  // Records an already-measured span.
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent, uint64_t op);

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Writes the log as Chrome trace_event JSON ("X" events, ts/dur in us,
  // args carry id, parent and op). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  size_t capacity_;
  uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
