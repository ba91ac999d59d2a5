// Discrete-event simulation core.
//
// A Simulator executes events in (time, scheduling-order) order: events at
// equal times run FIFO, which makes every run deterministic — a property
// the reproduction leans on: the harness averages over seeds, not over
// scheduler noise.
//
// Events are slab-pooled records with inline small-buffer callback storage
// and generation-counted ids, organized by a hierarchical timer wheel
// (sim/event_pool.h, sim/timer_wheel.h). Scheduling does no allocation in
// steady state and cancel() is an O(1) disarm, which is what the
// cancel/re-arm-heavy retransmission and poll timers need. The ordering
// contract is checked against a reference scheduler by the differential
// test in tests/sim_test.cc.
//
// Cancellation is lazy: cancel() disarms the event (and frees its callback
// immediately); the dead record is reaped when the wheel reaches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/panic.h"
#include "sim/event_pool.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace rmc::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` at absolute time `at` (>= now). Returns an id usable
  // with cancel(). Accepts any void() callable; captures up to
  // kInlineCallbackBytes are stored inline in the event record.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    RMC_ENSURE(at >= now_, "event scheduled in the past");
    const std::uint32_t idx = pool_.allocate();
    EventRecord& rec = pool_.at(idx);
    rec.at = at;
    rec.seq = next_seq_++;
    rec.armed = true;
    rec.fn.emplace(std::forward<F>(fn));
    wheel_.insert(idx);
    ++live_;
    return make_id(idx, rec.gen);
  }

  template <typename F>
  EventId schedule_after(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event. Cancelling an already-executed or unknown id
  // is a no-op (timers race with the events that disarm them).
  void cancel(EventId id);

  // Executes the next pending event; returns false if none remain.
  bool step();

  // Runs until the queue is empty.
  void run();

  // Runs events with time <= deadline; afterwards now() == max(now, deadline)
  // if the queue emptied or the next event is beyond the deadline.
  void run_until(Time deadline);

  bool empty() const { return live_events() == 0; }
  std::size_t live_events() const { return live_; }
  std::uint64_t events_executed() const { return executed_; }

 private:
  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (idx + 1u);
  }

  Time now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  EventPool pool_;
  TimerWheel wheel_{pool_};
};

}  // namespace rmc::sim
