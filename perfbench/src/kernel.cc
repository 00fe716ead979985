#include "kernel.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"

namespace perfbench {

namespace {

// Sink for the pass checksum so the work cannot be optimised away.
volatile uint64_t g_kernel_sink = 0;

uint64_t KernelWork() {
  // ~12K hash-map and ordered-map entries over a 4x larger key space: a few
  // MB of small nodes, past the L2, as the simulator's own string-keyed
  // tables are.
  constexpr int kKeys = 12288;
  // Node memory comes from a pool over a buffer the process keeps, so a
  // pass costs the same whether or not the program has just grown the heap
  // (fresh pages would add page faults to the yardstick, not to the loop).
  static std::vector<std::byte> arena(32u << 20);
  std::pmr::monotonic_buffer_resource upstream(arena.data(), arena.size());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  std::pmr::unordered_map<std::pmr::string, uint64_t> hashed(&pool);
  std::pmr::map<std::pmr::string, uint64_t> ordered(&pool);
  hashed.reserve(kKeys);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t sum = 0;
  char buf[24];
  for (int i = 0; i < kKeys; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(buf, sizeof(buf), "k%08llu",
                  static_cast<unsigned long long>(x % (4 * kKeys)));
    std::pmr::string key(buf, &pool);
    hashed[key] += x;
    auto [it, inserted] = ordered.emplace(std::move(key), x);
    if (!inserted) {
      sum += it->second;
      ordered.erase(it);
    }
  }
  for (auto it = hashed.begin(); it != hashed.end();) {
    sum += it->second;
    it = (it->second & 1) ? hashed.erase(it) : std::next(it);
  }
  return sum + ordered.size() + hashed.size();
}

}  // namespace

double RunKernelPass() {
  // The kernel's allocations are not the program's: keep them out of the
  // traced run's allocation counts.
  AllocPause pause;
  const auto t0 = std::chrono::steady_clock::now();
  g_kernel_sink = g_kernel_sink + KernelWork();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace perfbench
