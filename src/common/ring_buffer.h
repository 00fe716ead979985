// Growth for power-of-two ring buffers indexed by a running counter.
#ifndef RING_SRC_COMMON_RING_BUFFER_H_
#define RING_SRC_COMMON_RING_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ring {

// Doubles `ring` (or sizes an empty one to `initial`, a power of two) and
// re-places the live items, counters [head, tail), at their index modulo
// the new size. The counters keep their values, so callers keep indexing
// with `counter & (ring.size() - 1)`.
template <typename T>
void GrowRing(std::vector<T>& ring, uint64_t head, uint64_t tail,
              size_t initial) {
  std::vector<T> grown(ring.empty() ? initial : ring.size() * 2);
  for (uint64_t i = head; i < tail; ++i) {
    grown[i & (grown.size() - 1)] = std::move(ring[i & (ring.size() - 1)]);
  }
  ring = std::move(grown);
}

}  // namespace ring

#endif  // RING_SRC_COMMON_RING_BUFFER_H_
