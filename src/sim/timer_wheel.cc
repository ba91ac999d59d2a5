#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>

#include "common/panic.h"

namespace rmc::sim {

int TimerWheel::level_for(Time at) const {
  const std::uint64_t a = static_cast<std::uint64_t>(at);
  const std::uint64_t b = static_cast<std::uint64_t>(base_);
  for (int level = 0; level < kLevels; ++level) {
    const int shift = kSlotBits * level;
    if ((a >> shift) - (b >> shift) < kSlots) return level;
  }
  return kLevels;
}

void TimerWheel::insert(std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  RMC_ENSURE(rec.at >= base_, "event linked before the wheel's base time");
  const int level = level_for(rec.at);
  if (level >= kLevels) {
    overflow_.push_back(idx);
    overflow_min_ = std::min(overflow_min_, rec.at);
    return;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(rec.at) >> (kSlotBits * level)) & kSlotMask;
  if (level == 0) {
    link_level0_sorted(slot, idx);
  } else {
    link(level, slot, idx);
  }
}

void TimerWheel::link(int level, std::uint32_t slot, std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  rec.next = kNilIndex;
  if (heads_[level][slot] == kNilIndex) {
    heads_[level][slot] = idx;
  } else {
    pool_.at(tails_[level][slot]).next = idx;
  }
  tails_[level][slot] = idx;
  occupied_[level] |= 1ull << slot;
}

void TimerWheel::link_level0_sorted(std::uint32_t slot, std::uint32_t idx) {
  // A level-0 slot is a single nanosecond, so ordering within it is purely
  // the FIFO tiebreaker `seq`. Freshly scheduled events always carry the
  // largest seq (append, O(1)); only records cascading down from coarser
  // levels can be older than the tail, and those walk.
  EventRecord& rec = pool_.at(idx);
  occupied_[0] |= 1ull << slot;
  const std::uint32_t head = heads_[0][slot];
  if (head == kNilIndex) {
    rec.next = kNilIndex;
    heads_[0][slot] = tails_[0][slot] = idx;
    return;
  }
  const std::uint32_t tail = tails_[0][slot];
  if (pool_.at(tail).seq < rec.seq) {
    rec.next = kNilIndex;
    pool_.at(tail).next = idx;
    tails_[0][slot] = idx;
    return;
  }
  if (rec.seq < pool_.at(head).seq) {
    rec.next = head;
    heads_[0][slot] = idx;
    return;
  }
  std::uint32_t prev = head;
  while (pool_.at(prev).next != kNilIndex &&
         pool_.at(pool_.at(prev).next).seq < rec.seq) {
    prev = pool_.at(prev).next;
  }
  rec.next = pool_.at(prev).next;
  pool_.at(prev).next = idx;
  if (rec.next == kNilIndex) tails_[0][slot] = idx;
}

std::uint32_t TimerWheel::unlink_all(int level, std::uint32_t slot) {
  const std::uint32_t head = heads_[level][slot];
  heads_[level][slot] = kNilIndex;
  tails_[level][slot] = kNilIndex;
  occupied_[level] &= ~(1ull << slot);
  return head;
}

void TimerWheel::cascade(int level, std::uint32_t slot, Time slot_start) {
  // Safe to advance: slot_start was the minimum candidate over every
  // level, so no armed record is due before it.
  base_ = slot_start;
  std::uint32_t idx = unlink_all(level, slot);
  while (idx != kNilIndex) {
    const std::uint32_t next = pool_.at(idx).next;
    EventRecord& rec = pool_.at(idx);
    rec.next = kNilIndex;
    if (rec.armed) {
      insert(idx);  // lands at a strictly lower level
    } else {
      pool_.release(idx);
    }
    idx = next;
  }
}

void TimerWheel::reap_level0_front(std::uint32_t slot) {
  const std::uint32_t head = heads_[0][slot];
  EventRecord& rec = pool_.at(head);
  heads_[0][slot] = rec.next;
  if (rec.next == kNilIndex) {
    tails_[0][slot] = kNilIndex;
    occupied_[0] &= ~(1ull << slot);
  }
  rec.next = kNilIndex;
  pool_.release(head);
}

bool TimerWheel::migrate_overflow(Time wheel_candidate) {
  if (overflow_.empty()) return false;
  if (wheel_candidate == kNever) {
    // The wheel proper is empty: jump straight to the overflow region.
    // overflow_min_ may be the time of a since-cancelled record, which is
    // still a valid lower bound for every armed one.
    base_ = std::max(base_, overflow_min_);
  }
  bool moved = false;
  Time new_min = kNever;
  std::vector<std::uint32_t> keep;
  keep.reserve(overflow_.size());
  for (std::uint32_t idx : overflow_) {
    EventRecord& rec = pool_.at(idx);
    if (!rec.armed) {
      pool_.release(idx);
      moved = true;
    } else if (level_for(rec.at) < kLevels) {
      insert(idx);
      moved = true;
    } else {
      new_min = std::min(new_min, rec.at);
      keep.push_back(idx);
    }
  }
  overflow_.swap(keep);
  overflow_min_ = new_min;
  return moved;
}

std::uint32_t TimerWheel::find_next(Time limit) {
  for (;;) {
    int best_level = -1;
    std::uint32_t best_slot = 0;
    Time best_time = kNever;
    for (int level = 0; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      const int shift = kSlotBits * level;
      const std::uint64_t qb = static_cast<std::uint64_t>(base_) >> shift;
      const std::uint32_t c = static_cast<std::uint32_t>(qb) & kSlotMask;
      const int d = std::countr_zero(std::rotr(occupied_[level], static_cast<int>(c)));
      const std::uint64_t q = qb + static_cast<std::uint64_t>(d);
      Time t = static_cast<Time>(q << shift);
      if (t < base_) t = base_;  // current, partially elapsed coarse slot
      // On ties prefer the coarser level so its records cascade down and
      // contend by exact (at, seq) before anything executes.
      if (t < best_time || (t == best_time && level > best_level)) {
        best_time = t;
        best_level = level;
        best_slot = (c + static_cast<std::uint32_t>(d)) & kSlotMask;
      }
    }
    // Nothing armed can be due by `limit`: stop before anything below
    // moves the base past it.
    if (std::min(best_time, overflow_min_) > limit) return kNilIndex;
    if (best_level < 0) {
      if (overflow_.empty()) return kNilIndex;
      migrate_overflow(kNever);
      continue;
    }
    if (overflow_min_ <= best_time) {
      // An overflow record may be due before the wheel's earliest slot;
      // anything that early necessarily fits the horizon now.
      migrate_overflow(best_time);
      continue;
    }
    if (best_level > 0) {
      cascade(best_level, best_slot, best_time);
      continue;
    }
    const std::uint32_t head = heads_[0][best_slot];
    EventRecord& rec = pool_.at(head);
    if (!rec.armed) {
      reap_level0_front(best_slot);
      continue;
    }
    base_ = rec.at;
    return head;
  }
}

void TimerWheel::extract_front(std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  const std::uint32_t slot =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(rec.at)) & kSlotMask;
  RMC_ENSURE(heads_[0][slot] == idx, "extract_front on a non-front record");
  heads_[0][slot] = rec.next;
  if (rec.next == kNilIndex) {
    tails_[0][slot] = kNilIndex;
    occupied_[0] &= ~(1ull << slot);
  }
  rec.next = kNilIndex;
}

}  // namespace rmc::sim
