// Pooled event callbacks for the simulator hot path.
//
// Every scheduled event used to carry a `std::function<void()>`: one heap
// allocation per event for any capture over two words, a virtual-ish manager
// call on move, and a free on destruction — hundreds of millions of times per
// fig-scale run. `sim::Task` replaces it with a fixed-size callable:
//   - captures up to kInlineBytes live inside the Task itself (no allocation);
//   - larger captures take a block from a thread-local slab pool (free-list
//     pop/push, size-classed, no malloc on the steady state).
//
// Lifetime rules (DESIGN.md §14):
//   - Tasks are move-only and single-threaded: a Task must be created,
//     invoked, and destroyed on the thread that allocated it (the pool is
//     thread-local; simulators are single-threaded by construction).
//   - Invocation does not consume the Task; destruction returns the block.
//   - Pool slabs live until thread exit, so ASan/LSan see no leaks.
#ifndef RING_SRC_SIM_TASK_H_
#define RING_SRC_SIM_TASK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ring::sim {

// Thread-local size-classed slab allocator for out-of-line task captures.
// The free-list pop/push fast path is inline (it runs once per out-of-line
// event); slab carving lives in task.cc.
class TaskPool {
 public:
  struct Stats {
    uint64_t inline_ctors = 0;   // captures that fit in the Task itself
    uint64_t pool_hits = 0;      // out-of-line blocks served from a free list
    uint64_t pool_misses = 0;    // blocks that needed a new slab or oversize new
    uint64_t bytes_reserved = 0; // slab bytes currently held by the pool
    uint64_t hit_rate_pct() const {
      const uint64_t total = inline_ctors + pool_hits + pool_misses;
      return total == 0 ? 100 : (inline_ctors + pool_hits) * 100 / total;
    }
  };

  static void* Allocate(size_t bytes) {
    Core& c = core();
    if (bytes <= kMaxPooled) {
      const size_t cls = ClassOf(bytes);
      if (FreeNode* node = c.free_lists[cls]; node != nullptr) {
        c.free_lists[cls] = node->next;
        ++c.stats.pool_hits;
        return node;
      }
    }
    return AllocateSlow(bytes);
  }
  static void Deallocate(void* p, size_t bytes) noexcept {
    if (bytes <= kMaxPooled) {
      Core& c = core();
      const size_t cls = ClassOf(bytes);
      auto* node = static_cast<FreeNode*>(p);
      node->next = c.free_lists[cls];
      c.free_lists[cls] = node;
      return;
    }
    ::operator delete(p);
  }
  static Stats stats() { return core().stats; }
  static void ResetStats() { core().stats = Stats{}; }

 private:
  friend class Task;

  // Size classes are multiples of 64 bytes up to 1 KiB; bigger captures
  // fall back to operator new (counted as misses — rare enough to surface
  // in `ringctl simstats` and get fixed at the capture site).
  static constexpr size_t kClassGranularity = 64;
  static constexpr size_t kNumClasses = 16;
  static constexpr size_t kMaxPooled = kClassGranularity * kNumClasses;

  struct FreeNode {
    FreeNode* next;
  };
  // Constant-initializable so the thread_local needs no init guard on the
  // hot path. Slab ownership lives in task.cc (freed at thread exit).
  struct Core {
    FreeNode* free_lists[kNumClasses];
    Stats stats;
  };
  static Core& core() {
    static thread_local Core c;
    return c;
  }
  static size_t ClassOf(size_t bytes) {
    return (bytes + kClassGranularity - 1) / kClassGranularity - 1;
  }
  // An empty free list, or an oversize request.
  static void* AllocateSlow(size_t bytes);
};

class Task {
 public:
  // Sized so the fabric/CPU bookkeeping closures (a few pointers + ids) stay
  // inline while big protocol captures (request structs) go to the pool.
  static constexpr size_t kInlineBytes = 48;

  Task() noexcept : vt_(nullptr) {}
  Task(std::nullptr_t) noexcept : vt_(nullptr) {}  // NOLINT: empty callback

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    // Null-testable callables (std::function, function pointers) that hold
    // nothing become an empty Task, preserving `if (cb)` guard semantics
    // at converted call sites.
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(f)) {
        vt_ = nullptr;
        return;
      }
    }
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
      NoteInline();
    } else {
      void* block = TaskPool::Allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      SetPtr(block);
      vt_ = &kOutOfLineVTable<Fn>;
    }
  }

  Task(Task&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      Relocate(o);
    }
  }
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Clear();
      vt_ = o.vt_;
      if (vt_ != nullptr) {
        Relocate(o);
      }
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Clear(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->invoke(buf_); }

  // Deep copy: an independent Task invoking a copy of the callable (with its
  // own copies of the captures). Used by the fabric to materialize duplicate
  // deliveries under fault injection. Returns an empty Task if the callable
  // is not copy-constructible (or this Task is empty).
  Task Clone() const {
    if (vt_ == nullptr || vt_->clone == nullptr) {
      return Task();
    }
    return vt_->clone(buf_);
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's. Null
    // when a raw memcpy of the storage is equivalent (trivially copyable
    // inline captures, and every out-of-line Task — only the block pointer
    // moves), so the common case skips an indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destruction is a no-op (trivially destructible inline
    // captures).
    void (*destroy)(void* storage) noexcept;
    // Null for non-copyable callables.
    Task (*clone)(const void* storage);
  };

  // The out-of-line block pointer lives in buf_; always moved with memcpy
  // (never read through a reinterpret_cast lvalue) so the char-buffer
  // storage stays strict-aliasing clean under -O3.
  void SetPtr(void* p) noexcept { std::memcpy(buf_, &p, sizeof(p)); }
  static void* LoadPtr(const void* s) noexcept {
    void* p;
    std::memcpy(&p, s, sizeof(p));
    return p;
  }

  void Relocate(Task& o) noexcept {
    if (vt_->relocate != nullptr) {
      vt_->relocate(buf_, o.buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    o.vt_ = nullptr;
  }

  void Clear() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) {
        vt_->destroy(buf_);
      }
      vt_ = nullptr;
    }
  }

  static void NoteInline() { ++TaskPool::core().stats.inline_ctors; }

  // Two-level dispatch so non-copyable callables never instantiate a copy
  // constructor: the specialization yields a null clone slot instead.
  template <typename Fn, bool = std::is_copy_constructible_v<Fn>>
  struct Cloner {
    static Task CloneInline(const void* s) {
      return Task(Fn(*std::launder(reinterpret_cast<const Fn*>(s))));
    }
    static Task CloneOutOfLine(const void* s) {
      return Task(Fn(*static_cast<const Fn*>(LoadPtr(s))));
    }
  };
  template <typename Fn>
  struct Cloner<Fn, false> {
    static constexpr Task (*CloneInline)(const void*) = nullptr;
    static constexpr Task (*CloneOutOfLine)(const void*) = nullptr;
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable = {
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* f = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*f));
              f->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) noexcept {
              std::launder(reinterpret_cast<Fn*>(s))->~Fn();
            },
      Cloner<Fn>::CloneInline,
  };

  template <typename Fn>
  static constexpr VTable kOutOfLineVTable = {
      [](void* s) { (*static_cast<Fn*>(LoadPtr(s)))(); },
      // Out-of-line storage relocates by moving the block pointer: the
      // null slot's memcpy fallback does exactly that.
      nullptr,
      [](void* s) noexcept {
        Fn* f = static_cast<Fn*>(LoadPtr(s));
        f->~Fn();
        TaskPool::Deallocate(f, sizeof(Fn));
      },
      Cloner<Fn>::CloneOutOfLine,
  };

  const VTable* vt_;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

// FIFO of Tasks, one pointer wide. Nodes come from the TaskPool, so pushing
// allocates nothing once the pool is warm. Move-only, like Task.
class TaskList {
 public:
  TaskList() = default;
  TaskList(TaskList&& o) noexcept : tail_(std::exchange(o.tail_, nullptr)) {}
  TaskList& operator=(TaskList&& o) noexcept {
    if (this != &o) {
      Clear();
      tail_ = std::exchange(o.tail_, nullptr);
    }
    return *this;
  }
  TaskList(const TaskList&) = delete;
  TaskList& operator=(const TaskList&) = delete;
  ~TaskList() { Clear(); }

  bool empty() const { return tail_ == nullptr; }

  void Push(Task fn) {
    Node* node = ::new (TaskPool::Allocate(sizeof(Node))) Node{std::move(fn)};
    if (tail_ == nullptr) {
      node->next = node;
    } else {
      node->next = tail_->next;
      tail_->next = node;
    }
    tail_ = node;
  }

  // Runs the tasks in push order, destroying each after it runs; the list
  // is empty from the first call on, so a task may push onto it afresh.
  void RunAll() { Drain(/*run=*/true); }
  // Destroys the tasks without running them.
  void Clear() { Drain(/*run=*/false); }

 private:
  struct Node {
    Task fn;
    Node* next = nullptr;
  };

  void Drain(bool run) {
    Node* tail = std::exchange(tail_, nullptr);
    if (tail == nullptr) {
      return;
    }
    Node* node = tail->next;
    for (;;) {
      Node* next = node->next;
      if (run && node->fn) {
        node->fn();
      }
      const bool last = node == tail;
      node->~Node();
      TaskPool::Deallocate(node, sizeof(Node));
      if (last) {
        return;
      }
      node = next;
    }
  }

  Node* tail_ = nullptr;  // circular: tail_->next is the head
};

}  // namespace ring::sim

#endif  // RING_SRC_SIM_TASK_H_
