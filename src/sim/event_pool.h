// Slab-pooled event records for the simulation core: one flat record per
// event, with no per-event allocation or hashing.
//
//   * callback storage is inline (kInlineCallbackBytes of small-buffer
//     space — enough for [this] plus a few scalars, which is what every
//     protocol timer captures); larger captures fall back to one heap
//     object owned by the record;
//   * records live in fixed slabs with stable addresses and are recycled
//     through an intrusive free list, so steady-state scheduling does no
//     allocation at all;
//   * ids carry a generation count, making cancel() an O(1) bounds check +
//     compare instead of a hash lookup, and making stale ids (the timer
//     fired, the record was reused) harmless by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/panic.h"
#include "sim/time.h"

namespace rmc::sim {

inline constexpr std::uint32_t kNilIndex = 0xFFFFFFFF;
inline constexpr std::size_t kInlineCallbackBytes = 48;

// Type-erased callback with small-buffer storage. Unlike std::function it
// never needs to move (records have stable addresses), so the vtable is
// just invoke + destroy.
class EventFn {
 public:
  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  template <typename F>
  void emplace(F&& fn) {
    using Decayed = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Decayed) <= kInlineCallbackBytes &&
                  alignof(Decayed) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      static constexpr VTable vt = {
          [](void* s) { (*std::launder(static_cast<Decayed*>(s)))(); },
          [](void* s) { std::launder(static_cast<Decayed*>(s))->~Decayed(); }};
      vtable_ = &vt;
    } else {
      auto* heap = new Decayed(std::forward<F>(fn));
      ::new (static_cast<void*>(storage_)) Decayed*(heap);
      static constexpr VTable vt = {
          [](void* s) { (**std::launder(static_cast<Decayed**>(s)))(); },
          [](void* s) { delete *std::launder(static_cast<Decayed**>(s)); }};
      vtable_ = &vt;
    }
  }

  bool engaged() const { return vtable_ != nullptr; }

  // Invokes the stored callable in place. The caller must keep the record
  // alive for the duration. The simulator unlinks the record from the
  // wheel and clears `armed` first, so a callback that cancels its own id
  // is a no-op and anything it schedules gets a different record; the
  // generation is bumped only afterwards, when the record is released.
  void invoke() {
    RMC_ENSURE(vtable_ != nullptr, "invoking an empty event callback");
    vtable_->invoke(storage_);
  }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCallbackBytes];
  const VTable* vtable_ = nullptr;
};

// One pooled event. `seq` is the global scheduling order (the FIFO
// tiebreaker for equal times); `gen` is bumped every time the record is
// recycled so stale EventIds can never reach a reused record; `next` links
// the record into a timer-wheel slot list or the pool's free list.
struct EventRecord {
  Time at = 0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 1;
  std::uint32_t next = kNilIndex;
  bool armed = false;
  EventFn fn;
};

class EventPool {
 public:
  static constexpr std::size_t kSlabSize = 256;

  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  // Pops a recycled record or grows by one slab. The returned record is
  // disarmed with an empty callback; its generation is already fresh.
  std::uint32_t allocate() {
    if (free_head_ == kNilIndex) grow();
    std::uint32_t idx = free_head_;
    EventRecord& rec = at(idx);
    free_head_ = rec.next;
    rec.next = kNilIndex;
    return idx;
  }

  // Recycles a record. The callback must already be reset and the record
  // unlinked from every list.
  void release(std::uint32_t idx) {
    EventRecord& rec = at(idx);
    RMC_ENSURE(!rec.fn.engaged(), "releasing an event with a live callback");
    ++rec.gen;  // invalidate every outstanding id for this slot
    rec.armed = false;
    rec.next = free_head_;
    free_head_ = idx;
  }

  EventRecord& at(std::uint32_t idx) {
    return slabs_[idx / kSlabSize]->records[idx % kSlabSize];
  }
  const EventRecord& at(std::uint32_t idx) const {
    return slabs_[idx / kSlabSize]->records[idx % kSlabSize];
  }

  bool valid_index(std::uint32_t idx) const {
    return idx < slabs_.size() * kSlabSize;
  }
  std::size_t capacity() const { return slabs_.size() * kSlabSize; }

 private:
  struct Slab {
    EventRecord records[kSlabSize];
  };

  void grow() {
    const std::uint32_t base = static_cast<std::uint32_t>(capacity());
    RMC_ENSURE(base < kNilIndex - kSlabSize, "event pool exhausted");
    slabs_.push_back(std::make_unique<Slab>());
    // Thread the new slab onto the free list in index order.
    for (std::size_t i = kSlabSize; i-- > 0;) {
      Slab& slab = *slabs_.back();
      slab.records[i].next = free_head_;
      free_head_ = base + static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::uint32_t free_head_ = kNilIndex;
};

}  // namespace rmc::sim
