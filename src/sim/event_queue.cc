#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "src/common/logging.h"

namespace ring::sim {

void EventQueue::KeyHeap::Push(const Key& key) {
  size_t i = keys_.size();
  keys_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Before(key, keys_[parent])) {
      break;
    }
    keys_[i] = keys_[parent];
    i = parent;
  }
  keys_[i] = key;
}

EventQueue::Key EventQueue::KeyHeap::Pop() {
  const Key top = keys_.front();
  const Key last = keys_.back();
  keys_.pop_back();
  const size_t n = keys_.size();
  if (n == 0) {
    return top;
  }
  size_t i = 0;
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    if (first + 4 <= n) {
      // Tournament over the four children, selected without branches.
      const size_t a = first + Before(keys_[first + 1], keys_[first]);
      const size_t b = first + 2 + Before(keys_[first + 3], keys_[first + 2]);
      best = Before(keys_[b], keys_[a]) ? b : a;
    } else {
      for (size_t c = first + 1; c < n; ++c) {
        best = Before(keys_[c], keys_[best]) ? c : best;
      }
    }
    if (!Before(keys_[best], last)) {
      break;
    }
    keys_[i] = keys_[best];
    i = best;
  }
  keys_[i] = last;
  return top;
}

EventQueue::EventQueue() : coarse_(kNumCoarse, kNoSlot) {}

void EventQueue::NoteDepth() {
  const size_t depth = pending();
  if (depth > depth_high_water_) {
    depth_high_water_ = depth;
  }
}

void EventQueue::Schedule(SimTime t, Task fn) {
  Insert(t < now_ ? now_ : t, std::move(fn));
  NoteDepth();
}

void EventQueue::ScheduleTagged(SimTime t, Task fn, uint64_t tag) {
  if (controller_ == nullptr) {
    Schedule(t, std::move(fn));
    return;
  }
  tagged_.push_back(TaggedEvent{t < now_ ? now_ : t, next_seq_++, tag,
                                std::move(fn)});
  NoteDepth();
}

void EventQueue::set_controller(ScheduleController* controller,
                                SimTime reorder_window_ns) {
  assert(tagged_.empty() && "MC controller swap with tagged events in flight");
  controller_ = controller;
  reorder_window_ns_ = reorder_window_ns;
}

void EventQueue::Insert(SimTime t, Task fn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(tasks_.size());
    tasks_.push_back(std::move(fn));
    links_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    tasks_[slot] = std::move(fn);
  }
  const Key key{t, next_seq_++, slot};
  if (t < window_start_ + kWindowSpan) {
    // Before the window end. An MC delivery pulled early may leave now_
    // behind window_start_; the near heap does not care.
    near_.Push(key);
  } else if (t < window_start_ + kCoarseSpan) {
    Park(key);
  } else {
    overflow_.Push(key);
  }
}

void EventQueue::Park(const Key& key) {
  uint32_t& head = coarse_[(key.time >> kWindowShift) & (kNumCoarse - 1)];
  links_[key.slot] = Link{key.time, key.seq, head};
  head = key.slot;
  ++coarse_count_;
}

void EventQueue::AdvanceWindow() {
  uint64_t next;
  if (coarse_count_ > 0) {
    next = (window_start_ >> kWindowShift) + 1;
    while (coarse_[next & (kNumCoarse - 1)] == kNoSlot) {
      ++next;
    }
  } else {
    next = overflow_.top().time >> kWindowShift;
  }
  window_start_ = next << kWindowShift;

  // Re-home overflow events the new horizon now covers: into the near heap
  // or a coarse slot ahead of it.
  const SimTime window_end = window_start_ + kWindowSpan;
  while (!overflow_.empty() &&
         overflow_.top().time < window_start_ + kCoarseSpan) {
    const Key key = overflow_.Pop();
    if (key.time < window_end) {
      near_.Push(key);
    } else {
      Park(key);
    }
  }

  // Splice the window's own coarse slot into the near heap.
  uint32_t& head = coarse_[next & (kNumCoarse - 1)];
  for (uint32_t slot = head; slot != kNoSlot; slot = links_[slot].next) {
    near_.Push(Key{links_[slot].time, links_[slot].seq, slot});
    --coarse_count_;
  }
  head = kNoSlot;
}

const EventQueue::Key* EventQueue::Peek() {
  if (near_.empty()) {
    if (coarse_count_ == 0 && overflow_.empty()) {
      return nullptr;
    }
    AdvanceWindow();
  }
  return &near_.top();
}

void EventQueue::RunPeeked() {
  const Key key = near_.Pop();
  // Moved out before running: the callback may grow the slab.
  Task fn = std::move(tasks_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.time;
  ++executed_;
  SetLogSimTime(now_);
  fn();
}

bool EventQueue::RunNextControlled() {
  for (;;) {
    if (tagged_.empty()) {
      return RunNext();
    }
    // Earliest tagged delivery, by the same (time, seq) order the unhooked
    // scheduler uses.
    size_t lead = 0;
    for (size_t i = 1; i < tagged_.size(); ++i) {
      if (tagged_[i].time < tagged_[lead].time ||
          (tagged_[i].time == tagged_[lead].time &&
           tagged_[i].seq < tagged_[lead].seq)) {
        lead = i;
      }
    }
    const SimTime frontier = tagged_[lead].time;
    // An untagged event strictly ahead of every delivery runs untouched:
    // timers and CPU completions are deterministic consequences, never
    // choice points.
    const Key* next = Peek();
    if (next != nullptr &&
        Before(*next, Key{frontier, tagged_[lead].seq, kNoSlot})) {
      RunPeeked();
      return true;
    }
    // Candidate window: every delivery within reorder_window_ns_ of the
    // frontier, (time, seq)-ordered so candidates[0] is the default.
    std::vector<size_t> window;
    for (size_t i = 0; i < tagged_.size(); ++i) {
      if (tagged_[i].time <= frontier + reorder_window_ns_) {
        window.push_back(i);
      }
    }
    std::sort(window.begin(), window.end(), [this](size_t a, size_t b) {
      if (tagged_[a].time != tagged_[b].time) {
        return tagged_[a].time < tagged_[b].time;
      }
      return tagged_[a].seq < tagged_[b].seq;
    });
    if (window.size() > kMaxChoiceCandidates) {
      window.resize(kMaxChoiceCandidates);
    }
    std::vector<DeliveryChoice> candidates;
    candidates.reserve(window.size());
    for (size_t i : window) {
      candidates.push_back(DeliveryChoice{tagged_[i].tag, tagged_[i].time});
    }
    const ScheduleController::Decision d = controller_->Choose(candidates);
    if (d.action == ScheduleController::Decision::Action::kRescan) {
      continue;  // the controller crashed/recovered a node; frontier is stale
    }
    assert(d.index < window.size() && "MC decision out of range");
    const size_t victim = window[d.index];
    if (d.action == ScheduleController::Decision::Action::kDrop) {
      // Lost on the wire: the doorbell dies unrung. The clock stays put —
      // nothing executed.
      tagged_.erase(tagged_.begin() + static_cast<ptrdiff_t>(victim));
      continue;
    }
    // Deliver: the chosen event is pulled early to the frontier time, as if
    // the frontier message had been the slower one on the wire.
    TaggedEvent ev = std::move(tagged_[victim]);
    tagged_.erase(tagged_.begin() + static_cast<ptrdiff_t>(victim));
    if (frontier > now_) {
      now_ = frontier;
    }
    ++executed_;
    SetLogSimTime(now_);
    ev.fn();
    return true;
  }
}

bool EventQueue::RunNext() {
  // Tagged deliveries exist only while a controller is installed.
  if (!tagged_.empty()) {
    return RunNextControlled();
  }
  if (Peek() == nullptr) {
    return false;
  }
  RunPeeked();
  return true;
}

}  // namespace ring::sim
