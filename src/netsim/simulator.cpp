#include "netsim/simulator.h"

#include <stdexcept>

namespace netqos::sim {

EventId Simulator::schedule_at(SimTime when, Callback&& fn) {
  if (when < now_) {
    throw std::invalid_argument("cannot schedule event in the past");
  }
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::overflow_error("simulator event sequence exhausted");
  }
  std::uint64_t slot = slots_.size();
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot > kSlotMask) {
      throw std::length_error("too many pending simulator events");
    }
    slots_.emplace_back();
  }
  const EventId key = next_seq_++ << kSlotBits | slot;
  slots_[slot].fn = std::move(fn);
  slots_[slot].key = key;
  if (root_spent_) {
    // The first event a callback schedules takes the running event's
    // heap entry: one sift-down instead of a pop and a push.
    root_spent_ = false;
    sift_down(Entry{when, key});
  } else {
    heap_push(Entry{when, key});
  }
  return key;
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t slot = id & kSlotMask;
  if (id == 0 || slot >= slots_.size() || slots_[slot].key != id) {
    return false;
  }
  // The callback dies here, after release() has freed its slot, so its
  // destructor finds the arena consistent.
  release(slot);
  return true;
}

Simulator::Callback Simulator::release(std::uint64_t slot) {
  slots_[slot].key = 0;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return std::move(slots_[slot].fn);
}

void Simulator::attach_metrics(obs::MetricsRegistry& registry) {
  // Pull-style: nothing touches the event loop's hot path. The counters
  // are snapshotted from the simulator's own tallies at render time.
  obs::Counter& events = registry.counter(
      "netqos_sim_events_total", "Discrete events dispatched by the simulator");
  obs::Gauge& depth = registry.gauge(
      "netqos_sim_queue_depth",
      "Pending events in the scheduler queue (including tombstones)");
  obs::Gauge& clock = registry.gauge("netqos_sim_time_seconds",
                                     "Current virtual time of the simulation");
  registry.add_collector([this, &events, &depth, &clock] {
    events.set_total(executed_);
    depth.set(static_cast<double>(pending()));
    clock.set(to_seconds(now_));
  });
}

void Simulator::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().when <= until) dispatch_top();
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (!heap_.empty()) dispatch_top();
  if (now_ < hold_until_) now_ = hold_until_;
}

void Simulator::dispatch_top() {
  const Entry top = heap_.front();
  const std::uint64_t slot = top.key & kSlotMask;
  if (slots_[slot].key != top.key) {
    // Cancelled, or a spent root (see simulator.h). Once it is popped,
    // no later schedule_at may take the new root as spent.
    root_spent_ = false;
    heap_pop();
    return;
  }
  // Moved out of the arena before it runs: the callback may schedule
  // events, and the arena may grow (and move its slots) meanwhile.
  Callback fn = release(slot);
  now_ = top.when;
  ++executed_;
  root_spent_ = true;
  fn();
  if (root_spent_) {  // the callback scheduled nothing
    root_spent_ = false;
    heap_pop();
  }
}

void Simulator::heap_push(Entry entry) {
  std::size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(last);
}

void Simulator::sift_down(Entry entry) {
  // Sift a hole from the root down, then drop `entry` into it.
  const std::size_t size = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= size) break;
    const std::size_t end = first + 4 < size ? first + 4 : size;
    std::size_t least = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[least])) least = child;
    }
    if (!before(heap_[least], entry)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = entry;
}

}  // namespace netqos::sim
