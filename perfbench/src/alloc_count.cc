#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {

namespace {
bool g_counting = false;
AllocCounts g_totals;

void* CountedAlloc(std::size_t size) {
  if (g_counting) {
    ++g_totals.allocs;
    g_totals.bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_totals.allocs;
    g_totals.bytes += size;
  }
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void SetAllocCounting(bool on) { g_counting = on; }
bool AllocCounting() { return g_counting; }
AllocCounts AllocTotals() { return g_totals; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
