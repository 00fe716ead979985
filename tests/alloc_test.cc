// Allocation regression guard for the simulator hot path. This binary
// replaces the global operator new with a counting wrapper, so it must stay
// its own test executable.
//
// A warmed loop of fabric deliveries and CPU completions must not touch the
// heap at all, and a warmed Rep(3) put loop through the whole stack (client,
// coordinator, replicas, commit, GC) must average under one allocation per
// put.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/ring/cluster.h"
#include "src/sim/simulator.h"

namespace {

bool g_counting = false;
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocs;
  }
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Heap allocations made while running `fn`.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocs - before;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
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

namespace ring {
namespace {

TEST(AllocTest, CounterSeesHeapAllocations) {
  const uint64_t n = CountAllocs([] {
    auto v = std::make_unique<std::vector<int>>(100);
    EXPECT_EQ(v->size(), 100u);
  });
  EXPECT_EQ(n, 2u);
}

TEST(AllocTest, WarmFabricAndCpuLoopAllocatesNothing) {
  sim::Simulator simulator(1);
  net::Fabric fabric(&simulator, 4);
  uint64_t handled = 0;
  // One round: two-sided sends, one-sided writes and reads between every
  // pair of neighbours, plus local CPU work, then timers ~100 ms out (the
  // scheduler's coarse tier) and one past its ~268 ms horizon (the overflow
  // tier), all run to completion. Each round therefore ends with the window
  // jumping across an empty near tier to new coarse slots and to overflow.
  auto round = [&] {
    for (net::NodeId i = 0; i < 64; ++i) {
      const net::NodeId src = i % 4;
      const net::NodeId dst = (i + 1) % 4;
      fabric.Send(src, dst, 256, [&handled] { ++handled; });
      fabric.Write(src, dst, 128, [&handled] { ++handled; },
                   [&handled] { ++handled; });
      fabric.Read(src, dst, 512, [&handled] { ++handled; },
                  [&handled] { ++handled; });
      fabric.cpu(dst).Execute(100, [&handled] { ++handled; });
    }
    for (sim::SimTime t = 0; t < 8; ++t) {
      simulator.After(100 * sim::kMillisecond + t * 3 * sim::kMillisecond,
                      [&handled] { ++handled; });
    }
    simulator.After(9 * sim::kSecond, [&handled] { ++handled; });
    simulator.Run();
  };
  // Warm-up: every slab, free list, ring and queue reaches its steady
  // capacity.
  for (int i = 0; i < 20; ++i) {
    round();
  }
  const uint64_t handled_before = handled;
  const uint64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 400; ++i) {
      round();
    }
  });
  EXPECT_GT(handled - handled_before, 100'000u);
  EXPECT_EQ(allocs, 0u);
}

// Closed-loop Rep(3) writer: a fixed number of puts in flight, each
// completion issuing the next. The callback captures one pointer, so the
// client's std::function holds it inline and the count is the library's.
struct PutLoop {
  RingClient* client = nullptr;
  MemgestId memgest = 0;
  std::vector<Key> keys;
  std::shared_ptr<Buffer> value;
  uint64_t issued = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t limit = 0;

  void Issue() {
    PutLoop* self = this;
    client->Put(keys[issued++ % keys.size()], value, memgest,
                [self](Status s, Version) { self->OnAck(s); });
  }
  void OnAck(const Status& s) {
    ++acked;
    failed += s.ok() ? 0 : 1;
    if (issued < limit) {
      Issue();
    }
  }
};

TEST(AllocTest, WarmRep3PutLoopStaysUnderOneAllocationPerPut) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.clients = 1;
  RingCluster cluster(options);
  const auto rep3 =
      cluster.CreateMemgest(MemgestDescriptor::Replicated(3, "rep3"));
  ASSERT_TRUE(rep3.ok());
  PutLoop loop;
  loop.client = &cluster.client(0);
  loop.memgest = *rep3;
  for (int i = 0; i < 64; ++i) {
    loop.keys.push_back("k" + std::to_string(i));
  }
  loop.value = std::make_shared<Buffer>(256, 0x5a);
  auto run = [&](uint64_t puts) {
    loop.limit = loop.issued + puts;
    const uint64_t target = loop.acked + puts;
    for (int i = 0; i < 4; ++i) {
      loop.Issue();
    }
    return cluster.RunUntilDone([&] { return loop.acked >= target; });
  };
  ASSERT_TRUE(run(20'000));  // warm-up: every key written, pools grown
  constexpr uint64_t kPuts = 20'000;
  bool done = false;
  const uint64_t allocs = CountAllocs([&] { done = run(kPuts); });
  ASSERT_TRUE(done);
  EXPECT_EQ(loop.failed, 0u);
  // Measured at one allocation in 20,000 puts (a container reaching a new
  // peak); the bound leaves room for such growth, not for a per-put
  // allocation.
  EXPECT_LE(static_cast<double>(allocs) / kPuts, 1.0)
      << allocs << " allocations over " << kPuts << " puts";
}

}  // namespace
}  // namespace ring
