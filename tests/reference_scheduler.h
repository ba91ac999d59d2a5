// A deliberately naive event scheduler with sim::Simulator's contract:
// events run in (time, scheduling order) order, cancel() of anything not
// pending is a no-op, and run_until() leaves now() at max(now, deadline).
//
// It is the oracle for the differential test in sim_test.cc and nothing
// else. Every pending event is one std::map entry keyed on (time, id),
// where ids count up in scheduling order, so the map's first entry is by
// construction the next event to run. Speed is not a goal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "sim/time.h"

namespace rmc::sim {

class ReferenceScheduler {
 public:
  using Id = std::uint64_t;

  Time now() const { return now_; }

  Id schedule_at(Time at, std::function<void()> fn) {
    const Id id = next_id_++;
    pending_.emplace(std::make_pair(at, id), std::move(fn));
    time_of_.emplace(id, at);
    return id;
  }

  void cancel(Id id) {
    auto it = time_of_.find(id);
    if (it == time_of_.end()) return;  // fired, cancelled or never issued
    pending_.erase(std::make_pair(it->second, id));
    time_of_.erase(it);
  }

  bool step() {
    if (pending_.empty()) return false;
    auto first = pending_.begin();
    const auto [at, id] = first->first;
    std::function<void()> fn = std::move(first->second);
    pending_.erase(first);
    time_of_.erase(id);
    now_ = at;
    ++executed_;
    fn();
    return true;
  }

  void run_until(Time deadline) {
    while (!pending_.empty() && next_time() <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  // Time of the next pending event, or kNever.
  Time next_time() const {
    return pending_.empty() ? kNever : pending_.begin()->first.first;
  }

  std::size_t live_events() const { return pending_.size(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  Time now_ = 0;
  std::uint64_t executed_ = 0;
  Id next_id_ = 1;
  std::map<std::pair<Time, Id>, std::function<void()>> pending_;
  std::map<Id, Time> time_of_;
};

}  // namespace rmc::sim
