#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ring::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(100, [&order, i] { order.push_back(i); });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(50, [&] {
    order.push_back(1);
    q.Schedule(10, [&] { order.push_back(2); });  // in the past -> now
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      q.Schedule(q.now() + 5, recurse);
    }
  };
  q.Schedule(0, recurse);
  while (q.RunNext()) {
  }
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 45u);
}

// Random schedules against a std::set oracle of (time, issue order). The
// mix covers every tier (near < ~65 µs, coarse < ~268 ms, overflow beyond),
// past times that clamp to now, same-time ties, and callbacks that schedule
// into every tier. A sparse population keeps draining the near tier, so the
// window keeps jumping to the next coarse or overflow event.
class ReferenceModel {
 public:
  explicit ReferenceModel(uint64_t seed) : rng_(seed) {}

  void Run(uint64_t initial, uint64_t limit) {
    limit_ = limit;
    for (uint64_t i = 0; i < initial; ++i) {
      Add(/*from_callback=*/false);
    }
    while (q_.RunNext()) {
    }
    EXPECT_TRUE(oracle_.empty());
    EXPECT_EQ(q_.executed(), next_id_);
    EXPECT_EQ(next_id_, limit_);
    for (uint64_t n : scheduled_from_callbacks_) {
      EXPECT_GT(n, 0u);
    }
    EXPECT_GT(window_jumps_, 10u);
  }

 private:
  enum Kind { kNear, kTie, kPast, kCoarse, kOverflow, kNumKinds };

  uint64_t Next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  void Add(bool from_callback) {
    const Kind kind = static_cast<Kind>(Next() % kNumKinds);
    const SimTime now = q_.now();
    SimTime t = now;
    switch (kind) {
      case kNear: t = now + Next() % (60 * kMicrosecond); break;
      // Quantized to 1 µs so several events share a time.
      case kTie: t = now + (Next() % 4) * kMicrosecond; break;
      case kPast:
        t = now - std::min<SimTime>(now, Next() % kMillisecond);
        break;
      case kCoarse:
        t = now + 70 * kMicrosecond + Next() % (250 * kMillisecond);
        break;
      default: t = now + 300 * kMillisecond + Next() % (30 * kSecond); break;
    }
    if (from_callback) {
      ++scheduled_from_callbacks_[kind];
    }
    const uint64_t id = next_id_++;
    oracle_.emplace(std::max(t, now), id);
    q_.Schedule(t, [this, id] { Fire(id); });
  }

  void Fire(uint64_t id) {
    ASSERT_FALSE(oracle_.empty());
    EXPECT_EQ(*oracle_.begin(), std::make_pair(q_.now(), id));
    oracle_.erase(oracle_.begin());
    if (q_.now() >= last_ + 100 * kMicrosecond) {  // over a whole window
      ++window_jumps_;
    }
    last_ = q_.now();
    const uint64_t children = Next() % 4 == 0 ? 2 : 1;
    for (uint64_t i = 0; i < children && next_id_ < limit_; ++i) {
      Add(/*from_callback=*/true);
    }
  }

  EventQueue q_;
  std::set<std::pair<SimTime, uint64_t>> oracle_;
  uint64_t rng_;
  uint64_t next_id_ = 0;
  uint64_t limit_ = 0;
  SimTime last_ = 0;
  uint64_t window_jumps_ = 0;
  std::array<uint64_t, kNumKinds> scheduled_from_callbacks_{};
};

TEST(EventQueueTest, MatchesReferenceModel) {
  for (uint64_t seed : {0x9e3779b97f4a7c15ull, 0x2545f4914f6cdd1dull, 7ull}) {
    ReferenceModel model(seed);
    model.Run(/*initial=*/50, /*limit=*/20'000);
  }
}

// Runs the frontier delivery (candidates[0]) every time.
class FrontierFirst : public ScheduleController {
 public:
  Decision Choose(const std::vector<DeliveryChoice>&) override {
    return Decision{};
  }
};

TEST(EventQueueTest, ControllerSeesCoarseTimersAheadOfDeliveries) {
  // With the near tier empty, an untagged coarse timer that precedes the
  // earliest tagged delivery runs first; a delivery that precedes it runs
  // first, and near-future work it schedules still beats the timer.
  EventQueue q;
  FrontierFirst controller;
  q.set_controller(&controller, /*reorder_window_ns=*/100);
  std::vector<int> order;
  q.Schedule(100 * kMillisecond, [&] { order.push_back(2); });
  q.ScheduleTagged(150 * kMillisecond, [&] { order.push_back(3); }, 1);
  q.ScheduleTagged(50 * kMillisecond, [&] {
    order.push_back(0);
    q.Schedule(q.now() + 500, [&] { order.push_back(1); });
  }, 2);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), 150 * kMillisecond);
  q.set_controller(nullptr, 0);
}

TEST(EventQueueTest, CoarseAndOverflowTiersRunInOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(20 * kSecond, [&] { order.push_back(4); });   // overflow tier
  q.Schedule(100 * kMillisecond, [&] { order.push_back(2); });  // coarse
  q.Schedule(kMicrosecond, [&] { order.push_back(1); });        // near heap
  q.Schedule(250 * kMillisecond, [&] { order.push_back(3); });  // coarse
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 20 * kSecond);
  EXPECT_EQ(q.depth_high_water(), 4u);
}

TEST(EventQueueTest, FarFutureEventCanScheduleNearFuture) {
  // After the window jumps to an overflow event, newly scheduled
  // microsecond-scale work must still run before parked coarse timers.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10 * kSecond, [&] {
    order.push_back(1);
    q.Schedule(q.now() + 500, [&] { order.push_back(2); });
  });
  q.Schedule(10 * kSecond + 50 * kMillisecond, [&] { order.push_back(3); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskTest, SmallCapturesStayInline) {
  TaskPool::ResetStats();
  int x = 0;
  Task t([&x] { ++x; });
  t();
  EXPECT_EQ(x, 1);
  const TaskPool::Stats s = TaskPool::stats();
  EXPECT_EQ(s.inline_ctors, 1u);
  EXPECT_EQ(s.pool_hits + s.pool_misses, 0u);
  EXPECT_EQ(s.hit_rate_pct(), 100u);
}

TEST(TaskTest, LargeCapturesUseThePoolAndRecycle) {
  TaskPool::ResetStats();
  std::array<unsigned char, 64> payload{};
  payload[0] = 41;
  int out = 0;
  {
    Task t([payload, &out] { out = payload[0] + 1; });
    t();
  }
  EXPECT_EQ(out, 42);
  {
    // The first block was returned to its free list; this one reuses it.
    Task t([payload, &out] { out = payload[0] + 2; });
    t();
  }
  EXPECT_EQ(out, 43);
  const TaskPool::Stats s = TaskPool::stats();
  EXPECT_EQ(s.inline_ctors, 0u);
  EXPECT_EQ(s.pool_hits + s.pool_misses, 2u);
  EXPECT_GE(s.pool_hits, 1u);  // the recycled block is always a hit
}

TEST(TaskTest, MoveTransfersTheCallable) {
  std::array<unsigned char, 64> payload{};
  int out = 0;
  Task a([payload, &out] { ++out; });
  Task b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move state is API
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(out, 1);
}

TEST(TaskTest, CloneProducesIndependentCopy) {
  int sum = 0;
  Task original([v = std::vector<int>{1, 2, 3}, &sum]() mutable {
    v.push_back(0);
    sum += static_cast<int>(v.size());
  });
  Task copy = original.Clone();
  ASSERT_TRUE(copy);
  original();  // v grows to 4 in the original only
  original();  // ... then 5
  copy();      // the clone's v still starts at 3
  EXPECT_EQ(sum, 4 + 5 + 4);
}

TEST(TaskTest, NonCopyableCallableClonesToEmpty) {
  auto p = std::make_unique<int>(7);
  Task t([p = std::move(p)] { (void)*p; });
  EXPECT_TRUE(t);
  EXPECT_FALSE(t.Clone());
}

TEST(TaskTest, NullCallablesBecomeEmptyTasks) {
  std::function<void()> null_fn;
  Task from_function(null_fn);
  EXPECT_FALSE(from_function);
  void (*null_ptr)() = nullptr;
  Task from_pointer(null_ptr);
  EXPECT_FALSE(from_pointer);
  Task from_nullptr(nullptr);
  EXPECT_FALSE(from_nullptr);
}

TEST(SimulatorTest, RunUntilStopsAtTime) {
  Simulator simulator;
  int count = 0;
  for (SimTime t = 10; t <= 100; t += 10) {
    simulator.At(t, [&] { ++count; });
  }
  simulator.RunUntil(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(simulator.now(), 55u);
  simulator.RunUntil(200);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator simulator;
  SimTime fired = 0;
  simulator.At(100, [&] {
    simulator.After(25, [&] { fired = simulator.now(); });
  });
  simulator.Run();
  EXPECT_EQ(fired, 125u);
}

TEST(CpuWorkerTest, SerializesWork) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  std::vector<SimTime> completions;
  // Three items of 100 ns submitted at t=0 complete at 100, 200, 300.
  for (int i = 0; i < 3; ++i) {
    cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  }
  simulator.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(cpu.consumed_ns(), 300u);
}

TEST(CpuWorkerTest, IdleGapsDoNotAccumulate) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  std::vector<SimTime> completions;
  cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  simulator.At(1000, [&] {
    cpu.Execute(100, [&] { completions.push_back(simulator.now()); });
  });
  simulator.Run();
  // Second item starts at 1000 (idle since 100), not at 200.
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 1100}));
}

TEST(CpuWorkerTest, BacklogReportsQueuedWork) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  cpu.Execute(500, [] {});
  cpu.Execute(500, [] {});
  EXPECT_EQ(cpu.backlog_ns(), 1000u);
  simulator.Run();
  EXPECT_EQ(cpu.backlog_ns(), 0u);
}

TEST(CpuWorkerTest, ResetCancelsScheduledCompletions) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  int ran = 0;
  cpu.Execute(100, [&] { ran += 1; });  // would complete at 100
  simulator.At(50, [&] {
    // Reset mid-flight: the completion above is already in the event queue
    // but must no-op (its generation is stale), and its captured state must
    // not fire. Fresh work after the reset runs normally.
    cpu.Reset();
    cpu.Execute(100, [&] { ran += 10; });  // completes at 150
  });
  simulator.Run();
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(cpu.consumed_ns(), 100u);  // only the post-reset item counts
}

TEST(CpuWorkerTest, FifoRingGrowsAcrossWrapAroundInOrder) {
  Simulator simulator;
  CpuWorker cpu(&simulator);
  std::vector<int> order;
  int next = 0;
  auto post = [&](int count) {
    for (int i = 0; i < count; ++i) {
      cpu.Execute(10, [&order, id = next++] { order.push_back(id); });
    }
  };
  // Half-drain a first batch so the ring's head moves off slot 0, then
  // queue enough behind it to wrap past the end and force a growth while
  // wrapped.
  post(10);
  simulator.RunUntil(50);
  ASSERT_EQ(order.size(), 5u);
  post(40);
  simulator.Run();
  std::vector<int> expected(50);
  for (int i = 0; i < 50; ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(order, expected);

  // Reset with a wrapped backlog pending: none of it runs, and the ring
  // takes fresh work in order afterwards.
  order.clear();
  post(20);
  simulator.RunUntil(simulator.now() + 35);
  ASSERT_EQ(order.size(), 3u);
  cpu.Reset();
  order.clear();
  post(40);
  simulator.Run();
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(order[i], 70 + i);
  }
}

TEST(CpuWorkerTest, ShardsRunInParallel) {
  Simulator simulator;
  CpuWorker cpu(&simulator, /*node=*/0, /*shards=*/2);
  std::vector<SimTime> done;
  cpu.ExecuteOnShard(0, 100, [&] { done.push_back(simulator.now()); });
  cpu.ExecuteOnShard(1, 100, [&] { done.push_back(simulator.now()); });
  simulator.Run();
  // Independent cores: both items finish at 100, not serialized to 200.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100}));
  EXPECT_EQ(cpu.consumed_ns(), 200u);
  EXPECT_EQ(cpu.consumed_ns(0), 100u);
  EXPECT_EQ(cpu.consumed_ns(1), 100u);
  EXPECT_EQ(cpu.shard_count(), 2u);
  EXPECT_EQ(cpu.handoffs(), 0u);
}

TEST(CpuWorkerTest, CrossShardHandoffIsCountedAndCosted) {
  Simulator simulator;
  CpuWorker cpu(&simulator, /*node=*/0, /*shards=*/2);
  SimTime handed_off_done = 0;
  cpu.ExecuteOnShard(0, 100, [&] {
    // Running on shard 0, posting to shard 1: an explicit handoff that
    // pays the wakeup cost on top of the item itself.
    cpu.ExecuteOnShard(1, 100, [&] { handed_off_done = simulator.now(); });
  });
  simulator.Run();
  EXPECT_EQ(cpu.handoffs(), 1u);
  EXPECT_EQ(handed_off_done,
            200 + simulator.params().cross_shard_handoff_ns);
}

TEST(CpuWorkerTest, ShardForHashIsStableAndInRange) {
  Simulator simulator;
  CpuWorker single(&simulator);
  CpuWorker multi(&simulator, /*node=*/1, /*shards=*/4);
  for (uint64_t h : {0ull, 1ull, 12345ull, ~0ull}) {
    EXPECT_EQ(single.ShardForHash(h), 0u);
    EXPECT_LT(multi.ShardForHash(h), 4u);
    EXPECT_EQ(multi.ShardForHash(h), multi.ShardForHash(h));
  }
}

}  // namespace
}  // namespace ring::sim

namespace ring::net {
namespace {

using sim::SimTime;

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : simulator_(1), fabric_(&simulator_, 4) {}
  sim::Simulator simulator_;
  Fabric fabric_;
};

TEST_F(FabricTest, SendLatencyMatchesModel) {
  SimTime delivered = 0;
  fabric_.Send(0, 1, 1024, [&] { delivered = simulator_.now(); });
  simulator_.Run();
  const auto& p = simulator_.params();
  const uint64_t expected =
      fabric_.SerializationNs(1024) + p.wire_latency_ns + p.server_recv_ns;
  EXPECT_EQ(delivered, expected);
}

TEST_F(FabricTest, EgressSerializesBackToBackMessages) {
  std::vector<SimTime> arrivals;
  // Two 5 KiB messages from the same source: the second departs only after
  // the first finishes serializing.
  fabric_.Send(0, 1, 5120, [&] { arrivals.push_back(simulator_.now()); });
  fabric_.Send(0, 2, 5120, [&] { arrivals.push_back(simulator_.now()); });
  simulator_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], fabric_.SerializationNs(5120));
}

TEST_F(FabricTest, DistinctSourcesDoNotSerialize) {
  std::vector<SimTime> arrivals;
  fabric_.Send(0, 2, 5120, [&] { arrivals.push_back(simulator_.now()); });
  fabric_.Send(1, 3, 5120, [&] { arrivals.push_back(simulator_.now()); });
  simulator_.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

TEST_F(FabricTest, DeadDestinationDropsMessage) {
  bool delivered = false;
  fabric_.Kill(1);
  fabric_.Send(0, 1, 64, [&] { delivered = true; });
  simulator_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(FabricTest, DeadSourceSendsNothing) {
  bool delivered = false;
  fabric_.Kill(0);
  fabric_.Send(0, 1, 64, [&] { delivered = true; });
  simulator_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(fabric_.messages_sent(), 0u);
}

TEST_F(FabricTest, NodeDyingInFlightDropsDelivery) {
  bool delivered = false;
  fabric_.Send(0, 1, 1 << 20, [&] { delivered = true; });
  // Kill the destination while the (large) message is in flight.
  simulator_.At(1000, [&] { fabric_.Kill(1); });
  simulator_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(FabricTest, WriteBypassesRemoteCpu) {
  // Saturate node 1's CPU; an RDMA write must still apply on time, while a
  // two-sided send queues behind the CPU work.
  fabric_.cpu(1).Execute(1'000'000, [] {});
  SimTime write_applied = 0;
  SimTime send_handled = 0;
  fabric_.Write(0, 1, 256, [&] { write_applied = simulator_.now(); }, nullptr);
  fabric_.Send(0, 1, 256, [&] { send_handled = simulator_.now(); });
  simulator_.Run();
  EXPECT_LT(write_applied, 10'000u);
  EXPECT_GT(send_handled, 1'000'000u);
}

TEST_F(FabricTest, WriteCompletionAfterRoundTrip) {
  SimTime applied = 0;
  SimTime completed = 0;
  fabric_.Write(0, 1, 128, [&] { applied = simulator_.now(); },
                [&] { completed = simulator_.now(); });
  simulator_.Run();
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(completed, applied + simulator_.params().wire_latency_ns);
}

TEST_F(FabricTest, ReadFetchesRemoteData) {
  int value = 0;
  int seen = -1;
  fabric_.Read(0, 1, 4096, [&] { value = 7; },
               [&] { seen = value; });
  simulator_.Run();
  EXPECT_EQ(seen, 7);
}

TEST_F(FabricTest, DeadTargetWriteNeverCompletes) {
  bool completed = false;
  fabric_.Kill(1);
  fabric_.Write(0, 1, 128, nullptr, [&] { completed = true; });
  simulator_.Run();
  EXPECT_FALSE(completed);
}

TEST_F(FabricTest, SameTickDeliveriesToOneNodeRunInIssueOrder) {
  // Equal-size writes from distinct sources land on node 1 at one tick.
  std::vector<std::pair<int, SimTime>> applied;
  for (NodeId src : {3u, 0u, 2u}) {
    fabric_.Write(src, 1, 256,
                  [this, &applied, src] {
                    applied.emplace_back(static_cast<int>(src),
                                         simulator_.now());
                  },
                  nullptr);
  }
  simulator_.Run();
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].first, 3);
  EXPECT_EQ(applied[1].first, 0);
  EXPECT_EQ(applied[2].first, 2);
  EXPECT_EQ(applied[0].second, applied[2].second);
}

TEST_F(FabricTest, SelfSendDuringDeliveryReusesItsSlotCorrectly) {
  // The apply runs while its own delivery is being drained, after its slot
  // went back on the free list: the message it sends to its own node takes
  // that slot, and the other write parked beside it is untouched.
  std::vector<std::string> log;
  fabric_.Write(0, 1, 256,
                [this, &log] {
                  log.push_back("apply");
                  fabric_.Send(1, 1, 64, [&log] { log.push_back("self"); });
                },
                [&log] { log.push_back("ack"); });
  fabric_.Write(2, 1, 256, [&log] { log.push_back("other"); },
                [&log] { log.push_back("other-ack"); });
  simulator_.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"apply", "other", "ack",
                                           "other-ack", "self"}));
  EXPECT_EQ(fabric_.messages_sent(), 3u);
}

// Runs the newest frontier delivery first: with equal-time deliveries the
// doorbells fire in reverse issue order.
class NewestFirst : public sim::ScheduleController {
 public:
  Decision Choose(const std::vector<sim::DeliveryChoice>& candidates) override {
    Decision d;
    d.index = candidates.size() - 1;
    return d;
  }
};

class CountingTagger : public DeliveryTagger {
 public:
  uint64_t OnDelivery(NodeId, NodeId, uint8_t) override { return ++tags; }
  uint64_t tags = 0;
};

TEST_F(FabricTest, TaggedDoorbellsInReverseOrderRunTheirOwnPayloads) {
  NewestFirst controller;
  CountingTagger tagger;
  simulator_.queue().set_controller(&controller, /*reorder_window_ns=*/100);
  fabric_.set_mc_tagger(&tagger);
  std::vector<int> applied;
  for (NodeId src : {0u, 2u, 3u}) {
    fabric_.Write(src, 1, 256,
                  [&applied, src] { applied.push_back(static_cast<int>(src)); },
                  nullptr);
  }
  simulator_.Run();
  EXPECT_EQ(applied, (std::vector<int>{3, 2, 0}));
  // Three applies plus their three (empty) completions.
  EXPECT_EQ(tagger.tags, 6u);
  simulator_.queue().set_controller(nullptr, 0);
}

TEST_F(FabricTest, CountersTrackTraffic) {
  fabric_.Send(0, 1, 100, [] {});
  fabric_.Send(1, 0, 200, [] {});
  simulator_.Run();
  EXPECT_EQ(fabric_.messages_sent(), 2u);
  EXPECT_EQ(fabric_.bytes_sent(), 300u);
}

}  // namespace
}  // namespace ring::net
