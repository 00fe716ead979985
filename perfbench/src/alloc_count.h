// Process-wide allocation counting for the traced run: the benchmark binary
// replaces the global operator new/delete with counting wrappers around
// malloc/free. Counting is off unless a run switches it on, and the
// simulator is single-threaded, so the counters are plain integers.
#ifndef PERFBENCH_SRC_ALLOC_COUNT_H_
#define PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Turns counting on or off (off at start-up).
void SetAllocCounting(bool on);
bool AllocCounting();
// Counts since start-up, while counting was on.
AllocCounts AllocTotals();

// Suspends counting for its scope (used around benchmark-only work such as
// the reference kernel and the consistency checker's bookkeeping).
class AllocPause {
 public:
  AllocPause() : was_on_(AllocCounting()) { SetAllocCounting(false); }
  ~AllocPause() { SetAllocCounting(was_on_); }
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_on_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNT_H_
