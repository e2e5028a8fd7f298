#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "netsim/packet.h"
#include "obs/metrics.h"

namespace netqos::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(3), [&] { order.push_back(3); });
  sim.schedule_at(seconds(1), [&] { order.push_back(1); });
  sim.schedule_at(seconds(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3));
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(seconds(1), [&, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtLimitInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.schedule_at(seconds(3), [&] { ++fired; });
  sim.run_until(seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), seconds(2));
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), seconds(5));  // clock advances to the limit
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(seconds(5), [&] {
    sim.schedule_after(seconds(2), [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, seconds(7));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(seconds(5), [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(seconds(1), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(seconds(1), [] {});
  sim.run_all();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(milliseconds(1), chain);
  };
  sim.schedule_at(0, chain);
  sim.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), milliseconds(99));
}

TEST(Simulator, RunUntilLeavesFutureEventsPending) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(seconds(10), [&] { ran = true; });
  sim.run_until(seconds(5));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunAllEndsNoEarlierThanTheLatestHold) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.hold_until(250);
  sim.hold_until(200);  // an earlier hold changes nothing
  sim.run_all();
  EXPECT_EQ(sim.now(), 250);
  EXPECT_EQ(sim.events_executed(), 1u);
  // A hold never pulls the clock back, nor moves run_until past its limit.
  sim.hold_until(400);
  sim.run_until(300);
  EXPECT_EQ(sim.now(), 300);
  sim.schedule_at(500, [] {});
  sim.run_all();
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, ExecutedCountTracks) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(seconds(i + 1), [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsRejected) {
  Simulator sim;
  std::vector<int> ran;
  // A cancelled event's slot is reused by the next event scheduled.
  const EventId cancelled =
      sim.schedule_at(seconds(1), [&] { ran.push_back(1); });
  ASSERT_TRUE(sim.cancel(cancelled));
  const EventId second =
      sim.schedule_at(seconds(2), [&] { ran.push_back(2); });
  EXPECT_NE(second, cancelled);
  EXPECT_FALSE(sim.cancel(cancelled));
  sim.run_until(seconds(2));
  // So is the slot of an event that ran.
  const EventId third =
      sim.schedule_at(seconds(3), [&] { ran.push_back(3); });
  EXPECT_FALSE(sim.cancel(second));
  EXPECT_FALSE(sim.cancel(cancelled));
  sim.run_all();
  EXPECT_EQ(ran, (std::vector<int>{2, 3}));
  EXPECT_FALSE(sim.cancel(third));
  EXPECT_FALSE(sim.cancel(0));
}

TEST(Simulator, CallbackCancellingItselfGetsFalse) {
  Simulator sim;
  EventId self = 0;
  std::optional<bool> cancelled;
  self = sim.schedule_at(seconds(1), [&] { cancelled = sim.cancel(self); });
  sim.run_all();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_FALSE(*cancelled);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, CallbackCancellingAnotherPendingEventSucceeds) {
  Simulator sim;
  bool later_ran = false;
  const EventId later = sim.schedule_at(seconds(2), [&] { later_ran = true; });
  std::optional<bool> cancelled;
  sim.schedule_at(seconds(1), [&] { cancelled = sim.cancel(later); });
  sim.run_all();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_TRUE(*cancelled);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, CallbackSchedulingManyEventsKeepsItsCaptures) {
  // Scheduling while running grows the slot arena; the running callback
  // and its inline captures must not move with it.
  Simulator sim;
  constexpr int kChildren = 1000;
  std::vector<int> order;
  int sum_after = 0;
  const std::array<int, 6> numbers{7, 11, 13, 17, 19, 23};
  auto parent = [&sim, &order, &sum_after, numbers] {
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_after(i % 3, [&order, i] { order.push_back(i); });
    }
    for (const int n : numbers) sum_after += n;
  };
  static_assert(sizeof(parent) <= Simulator::Callback::kInlineBytes);
  sim.schedule_at(seconds(1), std::move(parent));
  sim.run_all();
  EXPECT_EQ(sum_after, 90);
  // Earlier time first; equal times in scheduling order.
  std::vector<int> expected;
  for (int offset = 0; offset < 3; ++offset) {
    for (int i = offset; i < kChildren; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.events_executed(), kChildren + 1u);
}

TEST(Simulator, PendingExcludesTheRunningEvent) {
  // The running event's heap entry stays at the root until the callback
  // schedules something or returns; neither pending() nor the exported
  // queue depth may count it.
  Simulator sim;
  obs::MetricsRegistry registry;
  sim.attach_metrics(registry);
  auto depth = [&registry] {
    registry.collect();
    return registry.find_gauge("netqos_sim_queue_depth")->value();
  };
  std::vector<std::size_t> pending;
  std::vector<double> depths;
  auto record = [&] {
    pending.push_back(sim.pending());
    depths.push_back(depth());
  };
  sim.schedule_at(seconds(1), [&] {
    record();  // the later event only
    sim.schedule_after(seconds(1), [] {});
    record();  // took the running event's entry
    sim.schedule_after(seconds(1), [] {});
    record();
  });
  sim.schedule_at(seconds(5), [&] { record(); });
  sim.run_until(seconds(4));
  record();
  sim.run_all();
  EXPECT_EQ(pending, (std::vector<std::size_t>{1, 2, 3, 1, 0}));
  EXPECT_EQ(depths, (std::vector<double>{1, 2, 3, 1, 0}));
}

TEST(Simulator, ThrowingCallbackLeavesLaterEventsInOrder) {
  // One callback throws before scheduling anything, one after. Either
  // way its entry must not count as pending, and the rest, with an event
  // scheduled between the runs, must run in order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(1), [&] {
    order.push_back(1);
    throw std::runtime_error("before scheduling");
  });
  sim.schedule_at(seconds(2), [&] {
    order.push_back(2);
    sim.schedule_at(seconds(3), [&] { order.push_back(3); });
    throw std::runtime_error("after scheduling");
  });
  sim.schedule_at(seconds(5), [&] { order.push_back(5); });
  EXPECT_THROW(sim.run_all(), std::runtime_error);
  EXPECT_EQ(sim.pending(), 2u);
  sim.schedule_at(seconds(4), [&] { order.push_back(4); });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_THROW(sim.run_all(), std::runtime_error);
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, NestedRunUntilRunsEveryEvent) {
  // Event 0 runs the loop from inside its callback, then schedules event
  // 2. The nested loop must pop event 0's spent entry; left in place, the
  // next schedule_at would overwrite event 1 as if it were that entry.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(seconds(1), [&] {
    order.push_back(0);
    sim.run_until(seconds(1));
    sim.schedule_at(seconds(3), [&] { order.push_back(2); });
  });
  sim.schedule_at(seconds(5), [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(sim.pending(), 0u);
}

// Counts the calls and the destruction of the one live (not moved-from)
// instance of a move-only capture.
struct Tally {
  int calls = 0;
  int destroyed = 0;
};

class Token {
 public:
  explicit Token(Tally* tally) : tally_(tally) {}
  Token(Token&& other) noexcept
      : tally_(std::exchange(other.tally_, nullptr)) {}
  Token& operator=(Token&&) = delete;
  ~Token() {
    if (tally_ != nullptr) ++tally_->destroyed;
  }
  void call() const { ++tally_->calls; }

 private:
  Tally* tally_;
};

enum class Fate { kRuns, kCancelled, kPendingAtTeardown };

template <std::size_t kPadBytes>
void check_capture_lifetime(Fate fate) {
  Tally tally;
  {
    Simulator sim;
    auto fn = [token = Token(&tally), pad = std::array<char, kPadBytes>{}] {
      token.call();
      static_cast<void>(pad);
    };
    const EventId id = sim.schedule_at(seconds(1), std::move(fn));
    EXPECT_EQ(tally.destroyed, 0);
    if (fate == Fate::kCancelled) {
      EXPECT_TRUE(sim.cancel(id));
    }
    if (fate != Fate::kPendingAtTeardown) {
      sim.run_all();
      EXPECT_EQ(tally.destroyed, 1);
    }
  }
  EXPECT_EQ(tally.calls, fate == Fate::kRuns ? 1 : 0);
  EXPECT_EQ(tally.destroyed, 1);
}

TEST(Simulator, MoveOnlyInlineCaptureRunsOnceAndIsDestroyedOnce) {
  static_assert(sizeof(Token) + 8 <= Simulator::Callback::kInlineBytes);
  for (const Fate fate :
       {Fate::kRuns, Fate::kCancelled, Fate::kPendingAtTeardown}) {
    SCOPED_TRACE(static_cast<int>(fate));
    check_capture_lifetime<8>(fate);
  }
}

TEST(Simulator, CaptureLargerThanInlineBufferRunsOnceAndIsDestroyedOnce) {
  static_assert(256 > Simulator::Callback::kInlineBytes);
  for (const Fate fate :
       {Fate::kRuns, Fate::kCancelled, Fate::kPendingAtTeardown}) {
    SCOPED_TRACE(static_cast<int>(fate));
    check_capture_lifetime<256>(fate);
  }
}

// Event body holding a pooled frame. Members are destroyed in reverse
// order, so the frame goes first and `probe` then sees what it released.
template <std::size_t kPadBytes>
struct HoldsFrame {
  struct Probe {
    BufferPool* pool;
    std::size_t* pooled_after;
    ~Probe() { *pooled_after = pool->pooled(); }
  };
  Probe probe;
  Frame frame;
  std::array<char, kPadBytes> pad{};
  void operator()() const {}
};

template <std::size_t kPadBytes>
void check_frame_returned_at_teardown() {
  std::size_t pooled_after = 0;
  {
    Simulator sim;
    EthernetFrame raw;
    raw.ip.udp.payload = Bytes(32, 0xab);
    Frame frame = make_pooled_frame(std::move(raw), &sim.buffer_pool());
    sim.schedule_at(seconds(1),
                    HoldsFrame<kPadBytes>{{&sim.buffer_pool(), &pooled_after},
                                          std::move(frame)});
    EXPECT_EQ(sim.buffer_pool().pooled(), 0u);
  }
  EXPECT_EQ(pooled_after, 1u);
}

TEST(Simulator, PendingPooledFrameReturnsPayloadAtTeardown) {
  check_frame_returned_at_teardown<8>();    // inline
  check_frame_returned_at_teardown<128>();  // boxed
}

// The two sides of the random-mix comparison: the simulator, and a
// reference model in which a multimap keeps equal-time entries in
// insertion order (the simulator's FIFO rule). Both label events by
// counting schedule calls, so the sides agree on labels exactly when they
// schedule in the same order. Every event that runs goes through react().
class SimSide {
 public:
  std::vector<std::pair<int, int>> trace;

  SimTime now() const { return sim_.now(); }
  int scheduled() const { return static_cast<int>(ids_.size()); }
  int schedule(SimDuration delay);
  bool cancel(int label) { return sim_.cancel(ids_.at(label)); }
  void run_until(SimTime until) { sim_.run_until(until); }

 private:
  Simulator sim_;
  std::vector<EventId> ids_;
};

class ModelSide {
 public:
  std::vector<std::pair<int, int>> trace;

  SimTime now() const { return now_; }
  int scheduled() const { return next_label_; }
  int schedule(SimDuration delay) {
    const int label = next_label_++;
    live_.emplace(label, queue_.emplace(now_ + delay, label));
    return label;
  }
  bool cancel(int label) {
    const auto it = live_.find(label);
    if (it == live_.end()) return false;
    queue_.erase(it->second);
    live_.erase(it);
    return true;
  }
  void run_until(SimTime until);

 private:
  SimTime now_ = 0;
  int next_label_ = 0;
  std::multimap<SimTime, int> queue_;
  std::map<int, std::multimap<SimTime, int>::iterator> live_;
};

// What a running event does: log itself; every fourth also schedules a
// child (sometimes at the same time), and every sixth cancels the event
// labelled just before it and logs the result.
template <typename Side>
void react(Side& side, int label) {
  side.trace.emplace_back(label, -1);
  if (label % 4 == 0) side.schedule(label % 3);
  if (label % 6 == 1) {
    side.trace.emplace_back(label, side.cancel(label - 1) ? 1 : 0);
  }
}

int SimSide::schedule(SimDuration delay) {
  const int label = scheduled();
  ids_.push_back(
      sim_.schedule_after(delay, [this, label] { react(*this, label); }));
  return label;
}

void ModelSide::run_until(SimTime until) {
  while (!queue_.empty() && queue_.begin()->first <= until) {
    const auto [when, label] = *queue_.begin();
    queue_.erase(queue_.begin());
    live_.erase(label);
    now_ = when;
    react(*this, label);
  }
  if (now_ < until) now_ = until;
}

TEST(Simulator, RandomMixMatchesMultimapModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    SimSide sim;
    ModelSide model;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t pick = rng.uniform_int(0, 9);
      if (pick < 5) {
        const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 20));
        ASSERT_EQ(sim.schedule(delay), model.schedule(delay));
      } else if (pick < 8 && model.scheduled() > 0) {
        const auto label = static_cast<int>(rng.uniform_int(
            0, static_cast<std::uint64_t>(model.scheduled() - 1)));
        ASSERT_EQ(sim.cancel(label), model.cancel(label)) << "label " << label;
      } else {
        const SimTime until =
            sim.now() + static_cast<SimDuration>(rng.uniform_int(0, 15));
        sim.run_until(until);
        model.run_until(until);
        ASSERT_EQ(sim.now(), model.now());
        ASSERT_EQ(sim.trace.size(), model.trace.size()) << "op " << op;
      }
    }
    sim.run_until(sim.now() + seconds(1));
    model.run_until(model.now() + seconds(1));
    EXPECT_EQ(sim.scheduled(), model.scheduled());
    EXPECT_EQ(sim.trace, model.trace);
  }
}

}  // namespace
}  // namespace netqos::sim
