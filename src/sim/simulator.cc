#include "src/sim/simulator.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/ring_buffer.h"

namespace ring::sim {

void Simulator::Run() {
  while (queue_.RunNext()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  // Sentinel marker: runs events scheduled before t (and same-time events
  // enqueued before this call), then leaves the clock at t.
  bool stop = false;
  queue_.Schedule(t, [&stop] { stop = true; });
  while (!stop && queue_.RunNext()) {
  }
}

SimTime CpuWorker::ExecuteOnShard(uint32_t shard, uint64_t cost_ns, Task fn) {
  Shard& core = shards_[shard];
  obs::Hub& hub = sim_->hub();
  const Simulator::ExecContext& exec = sim_->exec();
  if (shards_.size() > 1 && exec.node == static_cast<int32_t>(node_) &&
      exec.shard != shard) {
    // Explicit cross-shard handoff (Envoy-style post between workers): the
    // target shard pays the wakeup/queue cost on top of the item itself.
    cost_ns += sim_->params().cross_shard_handoff_ns;
    ++handoffs_;
    if (hub.metrics_enabled()) {
      hub.metrics().Inc("cpu.handoffs", 1, node_);
    }
  }
  const SimTime start =
      core.busy_until > sim_->now() ? core.busy_until : sim_->now();
  core.busy_until = start + cost_ns;
  core.consumed += cost_ns;
  if (hub.tracing_enabled()) {
    const uint64_t op = hub.current_op();
    if (start > sim_->now()) {
      hub.tracer().Record("cpu_queue", obs::Category::kQueue, node_, op,
                          sim_->now(), start);
    }
    if (cost_ns > 0) {
      hub.tracer().Record("cpu", obs::Category::kCpu, node_, op, start,
                          core.busy_until);
    }
  }
  if (hub.metrics_enabled()) {
    hub.metrics().Inc("cpu.busy_ns", cost_ns, node_);
    if (start > sim_->now()) {
      hub.metrics().Observe("cpu.queue_wait_ns", start - sim_->now(), node_);
    }
    hub.metrics().SetGauge("cpu.backlog_ns",
                           static_cast<int64_t>(core.busy_until - sim_->now()),
                           node_);
    if (shards_.size() > 1) {
      // Per-shard utilization feed for `ringctl simstats`; keyed by a
      // synthetic (node * shards + shard) id. Only emitted with real
      // sharding so single-core metric output stays byte-identical.
      hub.metrics().Inc(
          "cpu.shard_busy_ns", cost_ns,
          node_ * static_cast<uint32_t>(shards_.size()) + shard);
    }
  }
  // Race detection: the deferred item runs on this shard; the edge from the
  // enqueuing context (captured now) orders it after its cause.
  Completion completion;
  completion.fn = std::move(fn);
  analysis::RaceDetector* race = sim_->race();
  if (race != nullptr) {
    completion.edge = race->CaptureEdge();
  }
  if (core.tail - core.head == core.ring.size()) {
    GrowRing(core.ring, core.head, core.tail, 16);
  }
  core.ring[core.tail & (core.ring.size() - 1)] = std::move(completion);
  ++core.tail;
  // Thin event: the payload stays in the FIFO. Completions for one shard
  // are scheduled with nondecreasing times in seq order, so the queue fires
  // them front-first.
  sim_->At(core.busy_until,
           [this, shard, generation = generation_] {
             RunCompletion(shard, generation);
           });
  return core.busy_until;
}

void CpuWorker::RunCompletion(uint32_t shard, uint64_t generation) {
  if (generation != generation_) {
    return;  // Reset() cancelled everything scheduled under the old epoch
  }
  Shard& core = shards_[shard];
  Completion completion =
      std::move(core.ring[core.head & (core.ring.size() - 1)]);
  ++core.head;
  analysis::ScopedCpuTask task(
      sim_->race(), node_,
      completion.edge.has_value() ? &*completion.edge : nullptr, shard);
  // Wrap the completion so RING_LOG lines emitted by the work item carry
  // the node they ran on, and so fabric verbs it posts attribute to this
  // shard.
  const Simulator::ExecContext prev = sim_->exec();
  sim_->set_exec({static_cast<int32_t>(node_), shard});
  SetLogNode(static_cast<int32_t>(node_));
  if (completion.fn) {
    completion.fn();
  }
  SetLogNode(kLogNoNode);
  sim_->set_exec(prev);
}

uint64_t CpuWorker::consumed_ns() const {
  uint64_t total = 0;
  for (const Shard& core : shards_) {
    total += core.consumed;
  }
  return total;
}

uint64_t CpuWorker::backlog_ns() const {
  uint64_t worst = 0;
  for (const Shard& core : shards_) {
    if (core.busy_until > sim_->now()) {
      worst = worst > core.busy_until - sim_->now()
                  ? worst
                  : core.busy_until - sim_->now();
    }
  }
  return worst;
}

void CpuWorker::Reset() {
  ++generation_;
  for (Shard& core : shards_) {
    core.busy_until = 0;
    core.consumed = 0;
    for (; core.head < core.tail; ++core.head) {
      core.ring[core.head & (core.ring.size() - 1)] = Completion{};
    }
    core.head = 0;
    core.tail = 0;
  }
}

}  // namespace ring::sim
