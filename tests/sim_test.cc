// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, and clock semantics — properties every higher layer
// depends on. Every behavioral test runs against both event cores (the
// pooled timer wheel and the legacy heap), since the two must be
// observationally identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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
  // Rounds up fractional nanoseconds.
  EXPECT_EQ(transmission_time(1, 8e9), 1);
}

class SimulatorCores : public ::testing::TestWithParam<EventCoreKind> {
 protected:
  Simulator sim{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    AllCores, SimulatorCores,
    ::testing::Values(EventCoreKind::kPooledWheel, EventCoreKind::kLegacyHeap),
    [](const ::testing::TestParamInfo<EventCoreKind>& info) {
      return std::string(event_core_name(info.param));
    });

TEST_P(SimulatorCores, ExecutesInTimeOrder) {
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST_P(SimulatorCores, SameTimeIsFifo) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(SimulatorCores, EventsMayScheduleEvents) {
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.schedule_after(1, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2);
}

TEST_P(SimulatorCores, CancelPreventsExecution) {
  int fired = 0;
  EventId id = sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(5, [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorCores, CancelUnknownOrFiredIsNoop) {
  EventId id = sim.schedule_at(1, [] {});
  sim.run();
  sim.cancel(id);      // already fired
  sim.cancel(999999);  // never existed
  sim.cancel(kInvalidEventId);
  EXPECT_TRUE(sim.empty());
}

TEST_P(SimulatorCores, CancelInsideOwnCallbackIsNoop) {
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

TEST_P(SimulatorCores, RunUntilStopsAtDeadline) {
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

TEST_P(SimulatorCores, ScheduleAfterRunUntilBeforeNextPendingEvent) {
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

TEST_P(SimulatorCores, RunUntilAdvancesClockWhenIdle) {
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST_P(SimulatorCores, StepReturnsFalseWhenEmpty) {
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST_P(SimulatorCores, LiveEventsExcludesCancelled) {
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

TEST_P(SimulatorCores, MixedMagnitudeDelaysExecuteInOrder) {
  // Nanosecond propagation delays, microsecond serialization, millisecond
  // RTOs and second-scale timeouts all coexist; the wheel must interleave
  // across its levels exactly as the heap does.
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

TEST_P(SimulatorCores, SameTimeFifoAcrossCoarseSlots) {
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

TEST_P(SimulatorCores, CancelRearmChurnKeepsOrder) {
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

TEST_P(SimulatorCores, BeyondHorizonDelaysStillOrder) {
  // ~100 hours exceeds the wheel's 2^48 ns horizon and exercises the
  // overflow path; the heap takes it in stride either way.
  std::vector<int> order;
  const Time far = static_cast<Time>(100) * 3600 * 1'000'000'000;
  sim.schedule_at(far, [&] { order.push_back(2); });
  sim.schedule_at(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_at(far + 1, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), far + 1);
}

TEST_P(SimulatorCores, LargeCaptureCallbacksSurvive) {
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

// Both cores, driven by the same pseudo-random schedule/cancel script,
// must produce identical execution traces — the micro-scale version of
// tests/determinism_test.cc.
TEST(SimulatorCoreParity, RandomChurnTracesMatch) {
  auto trace_for = [](EventCoreKind kind) {
    Simulator sim(kind);
    std::vector<std::pair<Time, int>> trace;
    std::vector<EventId> ids;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return lcg >> 33;
    };
    for (int i = 0; i < 500; ++i) {
      const Time at = sim.now() + static_cast<Time>(next() % 2'000'000);
      ids.push_back(sim.schedule_at(at, [&trace, &sim, i] {
        trace.emplace_back(sim.now(), i);
      }));
      if (next() % 3 == 0 && !ids.empty()) {
        sim.cancel(ids[next() % ids.size()]);
      }
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(trace_for(EventCoreKind::kPooledWheel),
            trace_for(EventCoreKind::kLegacyHeap));
}

TEST(DefaultEventCore, IsProcessWideAndRestorable) {
  const EventCoreKind original = default_event_core();
  EXPECT_EQ(original, EventCoreKind::kPooledWheel);
  set_default_event_core(EventCoreKind::kLegacyHeap);
  {
    Simulator sim;
    EXPECT_EQ(sim.core_kind(), EventCoreKind::kLegacyHeap);
  }
  set_default_event_core(original);
  Simulator sim;
  EXPECT_EQ(sim.core_kind(), EventCoreKind::kPooledWheel);
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
  Simulator sim(EventCoreKind::kPooledWheel);
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

TEST(SimulatorDeath, SchedulingInThePastPanics) {
  for (EventCoreKind kind :
       {EventCoreKind::kPooledWheel, EventCoreKind::kLegacyHeap}) {
    Simulator sim(kind);
    sim.schedule_at(100, [] {});
    sim.run();
    EXPECT_DEATH(sim.schedule_at(50, [] {}), "scheduled in the past");
  }
}

}  // namespace
}  // namespace rmc::sim
