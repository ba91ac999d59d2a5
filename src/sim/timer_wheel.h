// Hierarchical timer wheel over pooled event records.
//
// Eight levels of 64 slots each, one-nanosecond ticks: level L buckets
// events whose quantized distance from the wheel's base time fits in 64
// slots of width 2^(6L) ns, which covers deltas up to 2^48 ns (~78 hours)
// before spilling into an overflow list. Insertion and cancellation are
// O(1); finding the next event is a handful of bitmap rotations; when a
// coarse slot comes due its records cascade down one level at a time until
// they surface in level 0, where a slot holds exactly one nanosecond and
// records are kept in scheduling order (`seq`), preserving the simulator's
// FIFO-at-equal-time determinism contract exactly.
//
// The cancel/re-arm pattern of retransmission and poll timers is the
// design target: a cancelled record merely disarms in place (its callback
// is destroyed immediately, its slot link is reaped lazily), so re-arming
// a timer never touches a heap or a hash table.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_pool.h"
#include "sim/time.h"

namespace rmc::sim {

class TimerWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;        // 64
  static constexpr std::uint32_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 8;                    // horizon 2^48 ns
  static constexpr int kHorizonBits = kSlotBits * kLevels;

  explicit TimerWheel(EventPool& pool) : pool_(pool) {
    for (auto& h : heads_) h.fill(kNilIndex);
    for (auto& t : tails_) t.fill(kNilIndex);
    occupied_.fill(0);
  }
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Links an armed record (with `at` and `seq` already set) into the
  // wheel. `at` must be >= base().
  void insert(std::uint32_t idx);

  // Index of the next record to execute — the armed record with the
  // smallest (at, seq) — after cascading whatever coarse slots stand in
  // the way and reaping cancelled records. Returns kNilIndex if no armed
  // record is due at or before `limit`; the base never moves past `limit`,
  // so events may still be inserted anywhere after it. The record is left
  // linked; call extract_front() to detach it.
  std::uint32_t find_next(Time limit = kNever);

  // Detaches the record find_next() returned (it must still be the level-0
  // front). The caller owns releasing it back to the pool.
  void extract_front(std::uint32_t idx);

  Time base() const { return base_; }

 private:
  // Smallest level whose 64-slot window around base_ still contains `at`.
  // Returns kLevels for deltas beyond the horizon (overflow).
  int level_for(Time at) const;
  void link(int level, std::uint32_t slot, std::uint32_t idx);
  void link_level0_sorted(std::uint32_t slot, std::uint32_t idx);
  std::uint32_t unlink_all(int level, std::uint32_t slot);
  void cascade(int level, std::uint32_t slot, Time slot_start);
  void reap_level0_front(std::uint32_t slot);
  bool migrate_overflow(Time wheel_candidate);

  EventPool& pool_;
  Time base_ = 0;  // all linked records have at >= base_
  std::array<std::array<std::uint32_t, kSlots>, kLevels> heads_;
  std::array<std::array<std::uint32_t, kSlots>, kLevels> tails_;
  std::array<std::uint64_t, kLevels> occupied_;
  // Events farther than the horizon. Practically never populated; kept
  // correct by migrating back into the wheel whenever one could be due
  // before anything the wheel holds.
  std::vector<std::uint32_t> overflow_;
  Time overflow_min_ = kNever;
};

}  // namespace rmc::sim
