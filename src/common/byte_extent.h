// A growable run of zero-initialized bytes that owns its own address space.
//
// Shard heaps and parity buffers grow by appending and are addressed by
// offset for the life of their store, like a coordinator's registered
// region in the paper. A ByteExtent backs them with one anonymous mapping
// (DESIGN.md §17.7):
//   - growth is `mremap(MREMAP_MAYMOVE)`: touched pages move with their
//     page tables, so growth never copies them or faults them in again;
//   - bytes never written read as zero (fresh kernel pages are zero), so
//     growth fills nothing;
//   - on destruction the used bytes are zeroed and the mapping goes to a
//     thread-local pool of at most kPoolBound mappings, from which the next
//     extent created in that thread takes it, already faulted in. Mappings
//     still pooled at thread exit are unmapped.
//
// Like `sim::Task`, an extent is move-only and used by one thread at a time.
// `data()` may change when the extent grows; offsets do not.
#ifndef RING_SRC_COMMON_BYTE_EXTENT_H_
#define RING_SRC_COMMON_BYTE_EXTENT_H_

#include <cstddef>
#include <cstdint>

namespace ring {

class ByteExtent {
 public:
  // Most mappings the thread-local pool keeps; releases beyond it unmap.
  static constexpr size_t kPoolBound = 64;

  ByteExtent() noexcept = default;
  ByteExtent(ByteExtent&& other) noexcept;
  ByteExtent& operator=(ByteExtent&& other) noexcept;
  ByteExtent(const ByteExtent&) = delete;
  ByteExtent& operator=(const ByteExtent&) = delete;
  ~ByteExtent();

  // Bytes in the extent: the largest size ever passed to Grow.
  uint64_t size() const { return size_; }
  uint8_t* data() { return base_; }
  const uint8_t* data() const { return base_; }

  // Extends the extent to at least `size` bytes (never shrinks). Bytes
  // already in it keep their values; the new ones read as zero.
  void Grow(uint64_t size) {
    if (size > size_) {
      GrowSlow(size);
    }
  }
  // Sets every byte of the extent to zero; the size is unchanged.
  void Zero();

  // Mappings currently held by this thread's pool (at most kPoolBound).
  static size_t PooledCount();

 private:
  void GrowSlow(uint64_t size);
  // Zeroes the used bytes and hands the mapping to the pool (or unmaps it);
  // leaves this extent empty.
  void Release() noexcept;

  uint8_t* base_ = nullptr;
  uint64_t size_ = 0;      // bytes in the extent
  uint64_t capacity_ = 0;  // bytes mapped; [size_, capacity_) is all zero
};

}  // namespace ring

#endif  // RING_SRC_COMMON_BYTE_EXTENT_H_
