// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, and clock semantics — properties every higher layer
// depends on. Hand-written cases pin single behaviours; the differential
// test at the end drives the timer wheel and a naive reference scheduler
// (reference_scheduler.h) with the same seeded scripts and requires them
// to agree after every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "reference_scheduler.h"
#include "sim/event_pool.h"
#include "sim/simulator.h"
#include "sim/timer_wheel.h"

namespace rmc::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(3), 3000);
  EXPECT_EQ(milliseconds(2), 2'000'000);
  EXPECT_EQ(seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.25)), 2.25);
}

TEST(Time, TransmissionTime) {
  // 1250 bytes at 100 Mbps = 100 us.
  EXPECT_EQ(transmission_time(1250, 100e6), microseconds(100));
  // Exactly 1 ns.
  EXPECT_EQ(transmission_time(1, 8e9), 1);
  // Fractional nanoseconds round to nearest, not up: 1.33 ns -> 1 (a
  // ceiling would give 2) and 1.6 ns -> 2.
  EXPECT_EQ(transmission_time(1, 6e9), 1);
  EXPECT_EQ(transmission_time(1, 5e9), 2);
}

class SimulatorCore : public ::testing::Test {
 protected:
  Simulator sim;
};

TEST_F(SimulatorCore, ExecutesInTimeOrder) {
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST_F(SimulatorCore, SameTimeIsFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(SimulatorCore, EventsMayScheduleEvents) {
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.schedule_after(1, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2);
}

TEST_F(SimulatorCore, CancelPreventsExecution) {
  int fired = 0;
  EventId id = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(5, [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST_F(SimulatorCore, CancelUnknownOrFiredIsNoop) {
  EventId id = sim.schedule_at(1, [] {});
  sim.run();
  sim.cancel(id);      // already fired
  sim.cancel(999999);  // never existed
  sim.cancel(kInvalidEventId);
  EXPECT_TRUE(sim.empty());
}

TEST_F(SimulatorCore, CancelInsideOwnCallbackIsNoop) {
  EventId id = kInvalidEventId;
  int fired = 0;
  id = sim.schedule_at(5, [&] {
    ++fired;
    sim.cancel(id);  // the timer disarming itself after firing
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.empty());
}

TEST_F(SimulatorCore, RunUntilStopsAtDeadline) {
  std::vector<Time> fired;
  sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(20, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(30, [&] { fired.push_back(sim.now()); });
  sim.run_until(20);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST_F(SimulatorCore, ScheduleAfterRunUntilBeforeNextPendingEvent) {
  // run_until() must not advance the core past its deadline while looking
  // for the next event: the gap up to that event stays schedulable.
  std::vector<Time> fired;
  sim.schedule_at(100, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(seconds(10), [&] { fired.push_back(sim.now()); });
  sim.run_until(50);
  sim.schedule_at(60, [&] { fired.push_back(sim.now()); });
  sim.run_until(seconds(1));
  sim.schedule_at(seconds(2), [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{60, 100, seconds(2), seconds(10)}));
}

TEST_F(SimulatorCore, RunUntilAdvancesClockWhenIdle) {
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST_F(SimulatorCore, StepReturnsFalseWhenEmpty) {
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST_F(SimulatorCore, LiveEventsExcludesCancelled) {
  EventId a = sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  EXPECT_EQ(sim.live_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.live_events(), 1u);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST_F(SimulatorCore, MixedMagnitudeDelaysExecuteInOrder) {
  // Nanosecond propagation delays, microsecond serialization, millisecond
  // RTOs and second-scale timeouts all coexist; the wheel must interleave
  // across its levels in plain time order.
  std::vector<Time> fired;
  auto record = [&] { fired.push_back(sim.now()); };
  const std::vector<Time> times = {
      seconds(2.0),     nanoseconds(500), milliseconds(40), microseconds(7),
      seconds(1.0),     nanoseconds(501), milliseconds(40) + 1,
      microseconds(7),  milliseconds(1),  nanoseconds(1),
  };
  for (Time t : times) sim.schedule_at(t, record);
  sim.run();
  std::vector<Time> expected = times;
  std::stable_sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
}

TEST_F(SimulatorCore, SameTimeFifoAcrossCoarseSlots) {
  // A is scheduled far ahead (it lives in a coarse wheel level); B is
  // scheduled for the same instant from close range (it goes straight to
  // the fine level). A was scheduled first, so A must still run first.
  std::vector<char> order;
  const Time t = milliseconds(3);
  sim.schedule_at(t, [&] { order.push_back('A'); });
  sim.schedule_at(t - 1, [&] {
    sim.schedule_after(1, [&] { order.push_back('B'); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST_F(SimulatorCore, CancelRearmChurnKeepsOrder) {
  // The RTO pattern: a long timer cancelled and re-armed on every "ACK".
  std::vector<int> fired;
  EventId rto = kInvalidEventId;
  for (int i = 0; i < 100; ++i) {
    sim.cancel(rto);
    rto = sim.schedule_after(milliseconds(10), [&fired, i] { fired.push_back(i); });
  }
  sim.schedule_after(milliseconds(1), [&fired] { fired.push_back(-1); });
  sim.run();
  // Only the last re-arm and the short event survive.
  EXPECT_EQ(fired, (std::vector<int>{-1, 99}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST_F(SimulatorCore, BeyondHorizonDelaysStillOrder) {
  // ~100 hours exceeds the wheel's 2^48 ns horizon and exercises the
  // overflow path.
  std::vector<int> order;
  const Time far = static_cast<Time>(100) * 3600 * 1'000'000'000;
  sim.schedule_at(far, [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_at(far + 1, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), far + 1);
}

TEST_F(SimulatorCore, LargeCaptureCallbacksSurvive) {
  // Captures past the inline small-buffer budget fall back to the heap;
  // the payload must arrive intact and be freed on cancel.
  std::array<std::uint64_t, 16> big{};
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  sim.schedule_at(1, [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  EventId doomed = sim.schedule_at(2, [big, &sum] { sum += 1'000'000; });
  sim.cancel(doomed);
  sim.run();
  std::uint64_t expected = 0;
  for (std::uint64_t v : big) expected += v;
  EXPECT_EQ(sum, expected);
}

TEST(EventPool, RecyclesRecordsWithFreshGenerations) {
  EventPool pool;
  const std::uint32_t a = pool.allocate();
  const std::uint32_t gen_before = pool.at(a).gen;
  pool.release(a);
  const std::uint32_t b = pool.allocate();
  EXPECT_EQ(a, b);  // LIFO free list reuses the slot immediately
  EXPECT_GT(pool.at(b).gen, gen_before);
  pool.release(b);
}

TEST(EventPool, SteadyStateChurnDoesNotGrow) {
  EventPool pool;
  // Warm up one slab's worth, then churn far more events through it.
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 64; ++i) held.push_back(pool.allocate());
  for (std::uint32_t idx : held) pool.release(idx);
  const std::size_t capacity = pool.capacity();
  for (int round = 0; round < 1000; ++round) {
    const std::uint32_t idx = pool.allocate();
    pool.release(idx);
  }
  EXPECT_EQ(pool.capacity(), capacity);
}

TEST(TimerWheel, CancelledRecordsAreReapedNotExecuted) {
  Simulator sim;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(milliseconds(5) + i, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
  sim.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.events_executed(), 50u);
  EXPECT_TRUE(sim.empty());
}

// --- Differential test: the wheel against the reference scheduler ------

constexpr Time kHorizon = Time{1} << TimerWheel::kHorizonBits;

// A delay that lands in wheel level L (2^(6L) <= delay < 2^(6L+6) ns) for
// a uniformly drawn L = 0..7, or zero (FIFO at one instant), or past the
// 2^48 ns horizon (the overflow list).
Time script_delay(Rng& rng) {
  const std::uint64_t r = rng.uniform(20);
  if (r == 0) return 0;
  if (r == 1) return kHorizon + static_cast<Time>(rng.uniform(kHorizon / 2));
  const int level = static_cast<int>(rng.uniform(TimerWheel::kLevels));
  const std::uint64_t lo = std::uint64_t{1} << (TimerWheel::kSlotBits * level);
  return static_cast<Time>(lo + rng.uniform(lo * (TimerWheel::kSlots - 1)));
}

// Ids neither scheduler ever issues: the invalid id, an index past any
// pool, and index 0 with a generation no record reaches.
constexpr std::uint64_t kUnknownIds[] = {kInvalidEventId, ~std::uint64_t{0},
                                         (std::uint64_t{0x7FFFFFFF} << 32) | 1u};

// One scheduler plus what a script needs to drive it: each logical
// event's id and time (event k is the k-th this world scheduled) and the
// order events fired in. Two worlds that agree on every dispatch also
// agree on every k, so the script can address events by k in both.
template <typename Sched>
class World {
 public:
  explicit World(std::uint64_t seed) : seed_(seed) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  void schedule(Time t) {
    const std::size_t k = ids.size();
    ids.push_back(sched.schedule_at(t, [this, k] { on_fire(k); }));
    at.push_back(t);
  }

  Sched sched;
  std::vector<std::uint64_t> ids;                   // logical event -> id
  std::vector<Time> at;                             // logical event -> time
  std::vector<std::pair<std::size_t, Time>> fired;  // (logical event, now)

 private:
  // What a callback does is a pure function of the seed and its logical
  // event, so both worlds replay the same reentrant schedules and cancels.
  void on_fire(std::size_t k) {
    fired.emplace_back(k, sched.now());
    Rng rng(seed_ ^ (k * 0x9E3779B97F4A7C15ull));
    if (rng.chance(0.25)) {
      const std::uint64_t children = 1 + rng.uniform(2);
      for (std::uint64_t c = 0; c < children; ++c) {
        schedule(sched.now() + script_delay(rng));
      }
    }
    if (rng.chance(0.125)) sched.cancel(ids[rng.uniform(ids.size())]);
    if (rng.chance(0.0625)) sched.cancel(ids[k]);  // itself, mid-dispatch
  }

  std::uint64_t seed_;
};

::testing::AssertionResult agree(const World<Simulator>& wheel,
                                 const World<ReferenceScheduler>& oracle,
                                 std::size_t& checked) {
  for (; checked < std::min(wheel.fired.size(), oracle.fired.size()); ++checked) {
    const auto& w = wheel.fired[checked];
    const auto& o = oracle.fired[checked];
    if (w != o) {
      return ::testing::AssertionFailure()
             << "dispatch #" << checked << ": wheel ran event " << w.first << " at "
             << w.second << ", oracle ran event " << o.first << " at " << o.second;
    }
  }
  if (wheel.fired.size() != oracle.fired.size()) {
    return ::testing::AssertionFailure() << "wheel dispatched " << wheel.fired.size()
                                         << " events, oracle " << oracle.fired.size();
  }
  if (wheel.sched.now() != oracle.sched.now()) {
    return ::testing::AssertionFailure() << "now(): wheel " << wheel.sched.now()
                                         << ", oracle " << oracle.sched.now();
  }
  if (wheel.sched.live_events() != oracle.sched.live_events()) {
    return ::testing::AssertionFailure()
           << "live_events(): wheel " << wheel.sched.live_events() << ", oracle "
           << oracle.sched.live_events();
  }
  if (wheel.sched.events_executed() != oracle.sched.events_executed()) {
    return ::testing::AssertionFailure()
           << "events_executed(): wheel " << wheel.sched.events_executed()
           << ", oracle " << oracle.sched.events_executed();
  }
  return ::testing::AssertionSuccess();
}

enum ScriptOp {
  kSchedule,       // one event, delay from script_delay()
  kScheduleTie,    // one event at the time of an earlier one
  kCancel,         // an earlier event: pending, fired, cancelled or stale
  kCancelUnknown,  // an id never issued
  kStep,
  kRunUntil,
  kFillGap,        // after run_until: between now() and the next pending event
  kBurst,
  kOpKinds
};

// Runs one seeded script against both schedulers and compares them after
// every operation. Returns how often each operation ran.
std::array<int, kOpKinds> run_differential_script(std::uint64_t seed, int ops) {
  std::array<int, kOpKinds> ran{};
  Rng rng(seed);
  World<Simulator> wheel(seed);
  World<ReferenceScheduler> oracle(seed);
  std::size_t checked = 0;
  auto both = [&](auto op) {
    op(wheel);
    op(oracle);
  };
  auto check = [&](ScriptOp kind, int i) {
    ++ran[kind];
    const ::testing::AssertionResult ok = agree(wheel, oracle, checked);
    EXPECT_TRUE(ok) << "seed " << seed << ", op " << i << " (kind " << kind << ")";
    return static_cast<bool>(ok);
  };
  auto step = [&](int i) {
    const bool wheel_ran = wheel.sched.step();
    const bool oracle_ran = oracle.sched.step();
    EXPECT_EQ(wheel_ran, oracle_ran) << "seed " << seed << ", op " << i;
    return check(kStep, i) && wheel_ran == oracle_ran;
  };

  for (int i = 0; i < ops; ++i) {
    const Time now = oracle.sched.now();
    const std::uint64_t r = rng.uniform(200);
    if (r < 80) {
      const Time delay = script_delay(rng);
      both([&](auto& w) { w.schedule(w.sched.now() + delay); });
      if (!check(kSchedule, i)) return ran;
    } else if (r < 95) {
      // Recent events are the likeliest to be still ahead of now().
      if (oracle.at.empty()) continue;
      const std::size_t back = rng.uniform(std::min<std::size_t>(oracle.at.size(), 16));
      const Time t = oracle.at[oracle.at.size() - 1 - back];
      if (t < now) continue;
      both([&](auto& w) { w.schedule(t); });
      if (!check(kScheduleTie, i)) return ran;
    } else if (r < 125) {
      if (oracle.ids.empty()) continue;
      const std::size_t k = rng.uniform(oracle.ids.size());
      both([&](auto& w) { w.sched.cancel(w.ids[k]); });
      if (!check(kCancel, i)) return ran;
    } else if (r < 130) {
      const std::uint64_t id = kUnknownIds[rng.uniform(std::size(kUnknownIds))];
      both([&](auto& w) { w.sched.cancel(id); });
      if (!check(kCancelUnknown, i)) return ran;
    } else if (r < 170) {
      if (!step(i)) return ran;
    } else if (r < 199) {
      const Time deadline = now + script_delay(rng);
      both([&](auto& w) { w.sched.run_until(deadline); });
      if (!check(kRunUntil, i)) return ran;
      const Time next = oracle.sched.next_time();
      if (next != kNever && rng.chance(0.5)) {
        const std::uint64_t gap = static_cast<std::uint64_t>(next - deadline);
        const Time t = deadline + static_cast<Time>(rng.uniform(gap));
        both([&](auto& w) { w.schedule(t); });
        if (!check(kFillGap, i)) return ran;
      }
    } else {
      // 4,096 events at one instant t, in four chunks of 1,024 scheduled
      // from ever closer: from 2^18 to 2^24 ns away or past the horizon, then
      // 1/64 of that, then 1/4096, then 1 ns. A pacer event where each
      // chunk stops pulls the wheel's base along, so the chunks sit in
      // different levels (or the overflow list). With t aligned to a
      // coarse slot boundary, coarse slots and the level-0 slot come due
      // at the same instant; every chunk must still run in scheduling order.
      const Time far = rng.chance(0.5) ? kHorizon : 0;
      const int align_bits = static_cast<int>(rng.uniform(4)) * TimerWheel::kSlotBits;
      const Time reach =
          now + far + (Time{1} << 18) + static_cast<Time>(rng.uniform(1u << 24));
      const Time t =
          ((reach >> align_bits) << align_bits) - static_cast<Time>(rng.uniform(2));
      for (int chunk = 0; chunk < 4; ++chunk) {
        for (int j = 0; j < 1024; ++j) both([&](auto& w) { w.schedule(t); });
        const Time from = oracle.sched.now();
        const Time stop = chunk < 2 ? t - (t - from) / 64 : chunk == 2 ? t - 1 : t;
        if (chunk < 3 && stop >= from) both([&](auto& w) { w.schedule(stop); });
        both([&](auto& w) { w.sched.run_until(stop); });
        if (!check(kBurst, i)) return ran;
      }
    }
  }
  for (int i = ops; oracle.sched.live_events() > 0; ++i) {
    if (!step(i)) return ran;
  }
  EXPECT_FALSE(wheel.sched.step());
  return ran;
}

TEST(SimulatorDifferential, MatchesReferenceSchedulerOnSeededScripts) {
  std::array<int, kOpKinds> total{};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::array<int, kOpKinds> ran = run_differential_script(seed, 1500);
    if (HasFailure()) return;
    for (int k = 0; k < kOpKinds; ++k) total[k] += ran[k];
  }
  // The scripts exercised every kind of operation.
  for (int k = 0; k < kOpKinds; ++k) EXPECT_GT(total[k], 0) << "op kind " << k;
}

TEST(SimulatorDeath, SchedulingInThePastPanics) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(50, [] {}), "scheduled in the past");
}

}  // namespace
}  // namespace rmc::sim
