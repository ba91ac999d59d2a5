// Ref-counted frame payload arena.
//
// Before this arena, every frame payload was a std::shared_ptr<const
// Buffer>: one heap allocation for the vector, one for the control block,
// and an atomic refcount bump on every hop — with a 16-port switch
// flooding a multicast frame, that is 16 atomic increments and, at the
// source, a full Buffer copy out of the serializer. The simulation is
// single-threaded by construction, so all of that is pure overhead.
//
// A PayloadBlock is a slab with an intrusive, non-atomic refcount,
// recycled through per-thread free lists, one per size class. Classes run
// from 64 bytes to 64 KiB, eight per doubling, so a block wastes at most
// an eighth of its size: a control packet's frame does not pin an MTU's
// worth of memory while it waits in a socket queue, and whole datagrams
// (protocol packets serialized by the sender, UDP payloads reassembled at
// the receivers) recycle like frames do. Steady-state traffic does no
// allocation at all, and handing a payload from TxPort through
// EthernetSwitch/SharedBus to inet::Host and on to a socket is a pointer
// copy plus an integer increment.
//
// Frames are immutable once transmitted — except when a fault hook
// tampers with one. mutable_data() implements copy-on-write for exactly
// that case: the tampering link gets a private copy, every other port
// flooding the same payload keeps the pristine bytes.
//
// Blocks never migrate between threads (the arena is thread_local, as is
// everything a Simulator touches); a PayloadRef must not outlive its
// thread's arena.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/panic.h"
#include "common/serial.h"

namespace rmc::net {

class FrameArena;

namespace detail {

// Header of one arena block; `capacity` payload bytes follow in the same
// allocation.
struct PayloadBlock {
  std::uint32_t refs = 0;
  std::uint32_t size = 0;
  std::uint32_t capacity = 0;
  FrameArena* arena = nullptr;

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

}  // namespace detail

// Per-thread pool of payload blocks in size classes. A request is served
// from the smallest class that holds it, and a released block returns to
// its class's free list, so steady traffic recycles the same blocks. The
// free lists together hold at most kMaxIdleBytes; a block released beyond
// that goes back to the heap. A burst that needs more (1023 receivers
// each holding a couple of 8 KB datagrams) then leaves the heap free for
// whatever peaks after it instead of pinning its high-water mark for the
// rest of the thread.
class FrameArena {
 public:
  // Largest block: a maximum UDP datagram plus the protocol headers
  // serialized around it.
  static constexpr std::size_t kMaxCapacity = 64 * 1024;
  // Up to 64 bytes, then eight classes per doubling up to kMaxCapacity.
  static constexpr std::size_t kClasses = 1 + 8 * 10;
  static constexpr std::size_t kMaxIdleBytes = 8 << 20;

  struct Stats {
    std::uint64_t blocks_created = 0;   // fresh heap allocations
    std::uint64_t blocks_reused = 0;    // served from a free list
    std::uint64_t copies_on_write = 0;  // mutable_data() on a shared block
  };

  static FrameArena& instance();

  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  const Stats& stats() const { return stats_; }
  std::size_t outstanding_blocks() const { return outstanding_; }

 private:
  friend class PayloadRef;

  detail::PayloadBlock* acquire(std::size_t size);
  void recycle(detail::PayloadBlock* block);

  std::array<std::vector<detail::PayloadBlock*>, kClasses> free_;
  std::size_t idle_bytes_ = 0;  // capacity held in free_
  std::size_t outstanding_ = 0;
  Stats stats_;
};

// Value handle to a refcounted arena block. Copying shares the block;
// mutable_data() copies-on-write when shared. An empty ref is a null
// payload of size zero.
class PayloadRef {
 public:
  PayloadRef() = default;

  // A block of `size` uninitialized bytes, owned uniquely by the result.
  static PayloadRef allocate(std::size_t size);
  static PayloadRef copy_of(BytesView bytes);

  PayloadRef(const PayloadRef& other) : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  PayloadRef(PayloadRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  PayloadRef& operator=(const PayloadRef& other) {
    if (this != &other) {
      release();
      block_ = other.block_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  bool empty() const { return block_ == nullptr; }
  std::size_t size() const { return block_ != nullptr ? block_->size : 0; }
  const std::uint8_t* data() const {
    return block_ != nullptr ? block_->data() : nullptr;
  }
  BytesView view() const { return BytesView(data(), size()); }

  // Writable bytes. If the block is shared this makes a private copy first
  // (copy-on-write), so other holders never observe the mutation.
  std::uint8_t* mutable_data();

  bool unique() const { return block_ != nullptr && block_->refs == 1; }
  std::uint32_t ref_count() const { return block_ != nullptr ? block_->refs : 0; }

  void reset() { release(); }

 private:
  explicit PayloadRef(detail::PayloadBlock* block) : block_(block) {}
  void release();

  detail::PayloadBlock* block_ = nullptr;
};

// Endian-safe serializer writing straight into an arena block — the
// zero-copy sibling of rmc::Writer. Wire code knows every packet's exact
// size up front (header + body), so the block is allocated once at that
// size and filled in place; take() hands the finished payload out as a
// refcounted PayloadRef with no intermediate Buffer and no copy. Writing
// past the declared size is a programming error and panics.
class ArenaWriter {
 public:
  explicit ArenaWriter(std::size_t exact_size)
      : ref_(PayloadRef::allocate(exact_size)), size_(exact_size) {
    data_ = ref_.mutable_data();  // freshly allocated: unique, no copy
  }

  void u8(std::uint8_t v) {
    RMC_ENSURE(pos_ + 1 <= size_, "arena writer overflow");
    data_[pos_++] = v;
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(BytesView data) {
    RMC_ENSURE(pos_ + data.size() <= size_, "arena writer overflow");
    if (!data.empty()) std::memcpy(data_ + pos_, data.data(), data.size());
    pos_ += data.size();
  }

  std::size_t size() const { return pos_; }

  // The finished payload. Every declared byte must have been written.
  PayloadRef take() {
    RMC_ENSURE(pos_ == size_, "arena writer underfilled");
    data_ = nullptr;
    return std::move(ref_);
  }

 private:
  PayloadRef ref_;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace rmc::net
