// Discrete-event core: a time-ordered queue of callbacks.
//
// The whole reproduction of the paper's testbed runs on this: simulated
// nanoseconds instead of an InfiniBand cluster's wall clock. Determinism is
// load-bearing — ties are broken by insertion sequence, so a given seed
// always produces the same execution.
//
// One scheduler, three tiers over one Task slab (DESIGN.md §14.1). Each
// event's Task is written once into a slab slot; the tiers order 24-byte
// (time, seq, slot) keys:
//   - near: a 4-ary min-heap of every event before the current ~65 µs
//     window's end (wire hops, CPU completions, microsecond timers);
//   - coarse: 4096 window-sized slots (~268 ms horizon), each an unsorted
//     intrusive list threaded through a link array beside the slab, so a
//     parked timer costs O(1) until the window reaches its slot and
//     splices it into the near heap. It holds heartbeats, chaos timers and
//     each client's one armed retry timer (clients keep their per-request
//     deadlines themselves, so a completed op leaves no event behind);
//   - overflow: a key heap for anything beyond the coarse horizon.
// Every near event precedes every coarse one, which precedes every overflow
// one, so the near heap's top is the global minimum once the window has
// advanced over an empty near tier. That frontier is peekable, which is
// what the model checker (src/mc) steers by.
#ifndef RING_SRC_SIM_EVENT_QUEUE_H_
#define RING_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/task.h"

namespace ring::sim {

// Simulated time in nanoseconds since simulation start.
using SimTime = uint64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * 1000;
inline constexpr SimTime kSecond = 1000ULL * 1000 * 1000;

// One schedulable delivery the model checker may pick, drop or defer: a
// tagged event currently at the schedule frontier. Tags are assigned by the
// tagger (net::Fabric) in registration order, so runs that share a decision
// prefix assign identical tags — the property replayable schedule specs
// rest on.
struct DeliveryChoice {
  uint64_t tag = 0;
  SimTime time = 0;
};

// Model-checker hook (src/mc): decides which frontier delivery runs next.
// Installed only by ring-mc explorations; a null controller leaves every
// default code path byte-identical to the un-hooked scheduler.
class ScheduleController {
 public:
  struct Decision {
    enum class Action : uint8_t {
      kDeliver,  // run candidate `index`, pulled early to the frontier time
      kDrop,     // discard candidate `index` without running it (lost on
                 // the wire); the clock does not advance
      kRescan,   // the controller mutated the world (crash/recover):
                 // recompute the frontier and ask again
    };
    Action action = Action::kDeliver;
    size_t index = 0;
  };
  virtual ~ScheduleController() = default;
  // `candidates` holds the tagged deliveries at the schedule frontier,
  // (time, seq)-ordered: candidates[0] is the event the unhooked scheduler
  // would run next. All candidates are within the reorder window of
  // candidates[0], so choosing any of them models a bounded network
  // reordering; the chosen one executes at candidates[0].time.
  virtual Decision Choose(const std::vector<DeliveryChoice>& candidates) = 0;
};

class EventQueue {
 public:
  EventQueue();

  // Enqueues `fn` to run at absolute time `t` (>= now; earlier times are
  // clamped to now).
  void Schedule(SimTime t, Task fn);

  // Schedules a *delivery* event the model checker may permute. With no
  // controller installed this is exactly Schedule(t, fn) — the tag is
  // dropped and the schedule stays byte-identical. With a controller, the
  // event parks in the tagged side-store and only runs when chosen.
  void ScheduleTagged(SimTime t, Task fn, uint64_t tag);

  // Installs the model-checker hook. Untagged events (timers) may be
  // pending, but no tagged delivery may be in flight across the swap.
  // `reorder_window_ns` bounds how far a delivery may be pulled ahead of
  // the frontier event.
  void set_controller(ScheduleController* controller,
                      SimTime reorder_window_ns);
  ScheduleController* controller() { return controller_; }

  // Runs the earliest event, advancing the clock. Returns false when empty.
  bool RunNext();

  SimTime now() const { return now_; }
  bool empty() const { return pending() == 0; }
  size_t pending() const {
    return near_.size() + coarse_count_ + overflow_.size() + tagged_.size();
  }
  uint64_t executed() const { return executed_; }
  // Deepest the queue has ever been (events pending at once).
  size_t depth_high_water() const { return depth_high_water_; }

 private:
  // A ~65 µs window: wire hops and CPU slices (ns–µs) land in the near
  // heap, while client retry timers (100 µs – 200 ms, one per client),
  // heartbeats (10 ms) and deep CPU backlogs park in the coarse tier. The near heap's depth is
  // what every pop pays: on fig11 it averages ~30 keys here against ~470
  // with a 2.1 ms window (DESIGN.md §14.1).
  static constexpr uint32_t kWindowShift = 16;
  static constexpr SimTime kWindowSpan = SimTime{1} << kWindowShift;
  // Coarse tier: 4096 slots of one window span each (~268 ms horizon). A
  // slot is only addressable while its absolute index is within 4095 of the
  // current window's, which Insert's horizon check guarantees.
  static constexpr uint32_t kCoarseBits = 12;
  static constexpr uint32_t kNumCoarse = 1u << kCoarseBits;
  static constexpr SimTime kCoarseSpan = kWindowSpan << kCoarseBits;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // What every tier orders: the event's (time, seq) and its Task's slab
  // slot, so no sift ever moves a Task.
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  // Branch-free: inside a heap these comparisons are coin flips, and a
  // mispredicted branch per comparison would cost more than the compare.
  static bool Before(const Key& a, const Key& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }
  // 4-ary min-heap of keys: half the depth of a binary heap, and a node's
  // four children share a cache line or two.
  class KeyHeap {
   public:
    bool empty() const { return keys_.empty(); }
    size_t size() const { return keys_.size(); }
    const Key& top() const { return keys_.front(); }
    void Push(const Key& key);
    Key Pop();

   private:
    std::vector<Key> keys_;
  };
  // A coarse-parked event's key, threaded into its slot's list.
  struct Link {
    SimTime time;
    uint64_t seq;
    uint32_t next;
  };

  // Bounds the fan-out of one choice point: candidates beyond the first 16
  // wait for a later frontier (they reappear on every Choose until taken).
  static constexpr size_t kMaxChoiceCandidates = 16;

  struct TaggedEvent {
    SimTime time;
    uint64_t seq;
    uint64_t tag;
    Task fn;
  };

  void Insert(SimTime t, Task fn);
  void NoteDepth();
  // Threads `key` onto the coarse slot its time falls in.
  void Park(const Key& key);
  // The earliest untagged event, or null when there is none. Advances the
  // window when the near heap is empty, so the result is always its top.
  const Key* Peek();
  // Pops the near heap's top (the one Peek returned) and runs it.
  void RunPeeked();
  // Controller-driven frontier step: builds the candidate window, asks the
  // controller, and executes/drops the decision. Returns true when an event
  // ran (the caller's RunNext contract); loops internally over drops and
  // rescans.
  bool RunNextControlled();
  // Moves the window to the earliest non-empty coarse slot (or the
  // overflow minimum's), re-homes overflow events the new horizon covers,
  // and splices the window's coarse slot into the near heap. Only legal
  // when the near heap is empty: every near event precedes every coarse
  // event, which precedes every overflow event.
  void AdvanceWindow();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t depth_high_water_ = 0;

  // Task slab: each event's Task is written once on Schedule and moved out
  // once when it runs. links_ runs beside it for coarse-parked events.
  std::vector<Task> tasks_;
  std::vector<Link> links_;
  std::vector<uint32_t> free_slots_;

  // Near tier: every event before the window end.
  KeyHeap near_;
  SimTime window_start_ = 0;  // always a multiple of kWindowSpan
  // Coarse tier: the head slot of each coarse slot's list (kNoSlot when
  // empty), unsorted; slot (t >> kWindowShift) & (kNumCoarse - 1).
  std::vector<uint32_t> coarse_;
  size_t coarse_count_ = 0;
  // Beyond the coarse horizon.
  KeyHeap overflow_;

  // Model-checker side-store: tagged deliveries awaiting a Choose decision.
  // Unsorted (frontier scans are linear); empty whenever controller_ is
  // null, so the default path never touches it.
  ScheduleController* controller_ = nullptr;
  SimTime reorder_window_ns_ = 0;
  std::vector<TaggedEvent> tagged_;
};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_EVENT_QUEUE_H_
