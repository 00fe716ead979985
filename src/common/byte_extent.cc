#include "src/common/byte_extent.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace ring {
namespace {

// Smallest mapping and growth granule: a multiple of every supported page
// size, so capacities are always whole pages.
constexpr uint64_t kGranuleBytes = 64 * 1024;

struct Mapping {
  uint8_t* base;
  uint64_t capacity;
};

// Released mappings, all-zero and (under ASan) fully poisoned. Constant-
// initialized with no destructor, so an extent released while the thread
// tears down can still reach it; `closed` then sends it straight to munmap.
struct Pool {
  Mapping slots[ByteExtent::kPoolBound];
  size_t count;
  bool closed;
};

Pool& pool() {
  static thread_local Pool p;
  return p;
}

// Unmaps whatever the pool still holds when its thread exits.
struct PoolReaper {
  PoolReaper() = default;
  PoolReaper(const PoolReaper&) = delete;
  PoolReaper& operator=(const PoolReaper&) = delete;
  ~PoolReaper() {
    Pool& p = pool();
    for (size_t i = 0; i < p.count; ++i) {
      ASAN_UNPOISON_MEMORY_REGION(p.slots[i].base, p.slots[i].capacity);
      munmap(p.slots[i].base, p.slots[i].capacity);
    }
    p.count = 0;
    p.closed = true;
  }
};

void ArmReaper() {
  static thread_local PoolReaper reaper;
  (void)reaper;
}

uint8_t* MapFresh(uint64_t capacity) {
  void* p = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return static_cast<uint8_t*>(p);
}

}  // namespace

ByteExtent::ByteExtent(ByteExtent&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

ByteExtent& ByteExtent::operator=(ByteExtent&& other) noexcept {
  if (this != &other) {
    Release();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

ByteExtent::~ByteExtent() { Release(); }

void ByteExtent::GrowSlow(uint64_t size) {
  if (base_ == nullptr) {
    Pool& p = pool();
    if (p.count > 0) {
      --p.count;
      base_ = p.slots[p.count].base;
      capacity_ = p.slots[p.count].capacity;
    }
  }
  if (size > capacity_) {
    const uint64_t want =
        std::max(2 * capacity_,
                 (size + kGranuleBytes - 1) / kGranuleBytes * kGranuleBytes);
    if (base_ == nullptr) {
      base_ = MapFresh(want);
      ASAN_POISON_MEMORY_REGION(base_, want);
    } else {
      // ASan's shadow does not follow a moved mapping: clear it here and
      // poison the tail again at the new address.
      ASAN_UNPOISON_MEMORY_REGION(base_, capacity_);
      void* p = mremap(base_, capacity_, want, MREMAP_MAYMOVE);
      if (p == MAP_FAILED) {
        ASAN_POISON_MEMORY_REGION(base_ + size_, capacity_ - size_);
        throw std::bad_alloc();
      }
      base_ = static_cast<uint8_t*>(p);
      ASAN_POISON_MEMORY_REGION(base_ + size_, want - size_);
    }
    capacity_ = want;
  }
  ASAN_UNPOISON_MEMORY_REGION(base_ + size_, size - size_);
  size_ = size;
}

void ByteExtent::Zero() {
  if (size_ > 0) {
    std::memset(base_, 0, size_);
  }
}

size_t ByteExtent::PooledCount() { return pool().count; }

void ByteExtent::Release() noexcept {
  if (base_ == nullptr) {
    return;
  }
  Zero();
  ASAN_POISON_MEMORY_REGION(base_, size_);
  Pool& p = pool();
  if (!p.closed && p.count < kPoolBound) {
    ArmReaper();
    p.slots[p.count++] = Mapping{base_, capacity_};
  } else {
    ASAN_UNPOISON_MEMORY_REGION(base_, capacity_);
    munmap(base_, capacity_);
  }
  base_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

}  // namespace ring
