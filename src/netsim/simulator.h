// Discrete-event simulation core.
//
// A single-threaded event loop. Its ordering contract: events fire in
// time order, events at the same time fire in the order they were
// scheduled (which keeps every run deterministic), and scheduling in the
// past throws. The event store below decides what an event costs, not
// that order; it allocates nothing in the steady state:
//  - A slot arena (a vector of slots plus a free list) holds each pending
//    callback next to the key of its event. An EventId is that key, so
//    cancel() is a compare-and-reset. A cancelled event leaves a tombstone
//    in the heap that is skipped when it reaches the top.
//  - A 4-ary min-heap of 16-byte entries {when, seq << 24 | slot} orders
//    the events. The sequence number fills the key's high bits, so
//    ordering by (when, key) is ordering by (when, seq).
//  - Dispatch leaves the running event's entry at the root while its
//    callback runs. Many callbacks schedule a follow-on (a timer's next
//    tick, a frame's arrival across the next link), and the first such
//    schedule_at overwrites that spent root and sifts it down: one sift
//    instead of a pop and a push. If the callback schedules nothing, the
//    root is popped when it returns. A spent root is flagged, so pending()
//    never counts it, and its slot no longer holds its key, so a dispatch
//    that reaches it pops it like a tombstone and clears the flag. A
//    run_until or run_all called from inside a callback disposes of it
//    that way; a root left spent by a callback that threw goes the same
//    way, or is overwritten by the next schedule_at. Order cannot change:
//    (when, seq) is a strict total order, so the heap's layout never
//    decides which entry is least.
//  - Callback keeps closures of up to 48 bytes inline (a link's arrival
//    closure fits) and boxes larger ones on the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/sim_time.h"
#include "obs/metrics.h"

namespace netqos::sim {

/// Handle for cancelling a scheduled event. Never 0, so 0 can mean "none".
using EventId = std::uint64_t;

class Simulator {
 public:
  /// Move-only `void()` callable. A closure of up to kInlineBytes whose
  /// move cannot throw is stored inline; any other is boxed on the heap.
  class Callback {
   public:
    static constexpr std::size_t kInlineBytes = 48;

    Callback() noexcept = default;

    // Implicit, so that schedule_at(t, [..] { .. }) takes a lambda as is.
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                          std::is_invocable_r_v<void, Fn&>>>
    Callback(F&& f) {
      if constexpr (kFitsInline<Fn>) {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
        invoke_ = [](void* self) {
          (*std::launder(static_cast<Fn*>(self)))();
        };
        manage_ = &manage_inline<Fn>;
      } else {
        ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
        invoke_ = [](void* self) {
          (**std::launder(static_cast<Fn**>(self)))();
        };
        manage_ = &manage_boxed<Fn>;
      }
    }

    Callback(Callback&& other) noexcept { take(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    void operator()() { invoke_(storage_); }

   private:
    enum class Op { kRelocate, kDestroy };
    // kRelocate move-constructs the callable at `to`, then destroys it at
    // `from`; kDestroy only destroys it.
    using Manage = void (*)(Op, void* from, void* to) noexcept;

    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    template <typename Fn>
    static void manage_inline(Op op, void* from, void* to) noexcept {
      Fn* fn = std::launder(static_cast<Fn*>(from));
      if (op == Op::kRelocate) ::new (to) Fn(std::move(*fn));
      fn->~Fn();
    }

    template <typename Fn>
    static void manage_boxed(Op op, void* from, void* to) noexcept {
      Fn* boxed = *std::launder(static_cast<Fn**>(from));
      if (op == Op::kRelocate) {
        ::new (to) Fn*(boxed);
      } else {
        delete boxed;
      }
    }

    void take(Callback& other) noexcept {
      if (other.manage_ != nullptr) {
        other.manage_(Op::kRelocate, other.storage_, storage_);
      }
      invoke_ = std::exchange(other.invoke_, nullptr);
      manage_ = std::exchange(other.manage_, nullptr);
    }

    void reset() noexcept {
      if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }

    void (*invoke_)(void*) = nullptr;
    Manage manage_ = nullptr;
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  };

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now). Returns an id
  /// usable with cancel(). `fn` is taken by rvalue reference so that a
  /// lambda converts once, in the caller, and moves once, into the arena.
  EventId schedule_at(SimTime when, Callback&& fn);

  /// Schedules `fn` to run `delay` after now.
  EventId schedule_after(SimDuration delay, Callback&& fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Returns false if it already ran, was
  /// cancelled, or is the event running now. O(1): the event is
  /// tombstoned, not removed.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or the time limit is passed.
  /// Events scheduled exactly at `until` DO run; the clock never exceeds
  /// `until`.
  void run_until(SimTime until);

  /// Runs until the queue drains completely, then moves the clock on to
  /// the latest time given to hold_until(), if that is later.
  void run_all();

  /// Makes run_all() leave the clock no earlier than `when`. A link calls
  /// it for a frame whose serialization finishes with no event of its own
  /// (see link.h), so that after run_all() every such frame has finished.
  void hold_until(SimTime when) {
    if (when > hold_until_) hold_until_ = when;
  }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Number of events currently pending (including tombstoned ones, not
  /// counting the event whose callback is running).
  std::size_t pending() const { return heap_.size() - (root_spent_ ? 1 : 0); }

  /// Exports the event loop's health through `registry` with a pull-style
  /// collector (no per-event cost): events dispatched, current queue
  /// depth, and the virtual clock. The registry must outlive this
  /// simulator or be detached by destroying the simulator first — the
  /// collector holds a reference to this object.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Shared recycler for packet payload buffers. Everything that encodes
  /// into or frees a UDP payload on this simulator draws from here.
  BufferPool& buffer_pool() { return buffer_pool_; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t key;  // seq << kSlotBits | slot
  };
  static_assert(sizeof(Entry) == 16);

  struct Slot {
    Callback fn;
    EventId key = 0;  // key of the pending event here; 0 when free
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  static bool before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.key < b.key;
  }
  void heap_push(Entry entry);
  void heap_pop();
  /// Puts `entry` at the root, in place of what is there, and sifts it
  /// down.
  void sift_down(Entry entry);
  /// Runs the earliest event, or pops it if it was cancelled or is a
  /// spent root.
  void dispatch_top();
  /// Frees `slot` and hands back the callback it held.
  Callback release(std::uint64_t slot);

  // First member: destroyed last, so frame deleters inside still-queued
  // callbacks can release their payloads during teardown.
  BufferPool buffer_pool_;

  SimTime now_ = 0;
  SimTime hold_until_ = 0;
  std::uint64_t next_seq_ = 1;  // from 1, so no key (and no EventId) is 0
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // 4-ary min-heap by before()
  // Set while heap_'s root is a spent entry: its callback is running and
  // has scheduled nothing yet, or it threw.
  bool root_spent_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace netqos::sim
