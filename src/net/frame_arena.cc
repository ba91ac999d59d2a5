#include "net/frame_arena.h"

#include <bit>

namespace rmc::net {

FrameArena& FrameArena::instance() {
  static thread_local FrameArena arena;
  return arena;
}

namespace {

constexpr std::size_t kMinCapacity = 64;

// Size class of a block holding `size` bytes. Class 0 holds up to 64
// bytes; above that, each doubling (2^(b-1), 2^b] splits into eight
// classes of width 2^(b-4).
std::size_t class_of(std::size_t size) {
  if (size <= kMinCapacity) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width(size - 1));
  const std::size_t eighth = (size - 1) >> (b - 4);  // 8..15
  return (b - 7) * 8 + (eighth - 8) + 1;
}

// Largest size class `cls` holds.
std::size_t class_capacity(std::size_t cls) {
  if (cls == 0) return kMinCapacity;
  const std::size_t b = (cls - 1) / 8 + 7;
  const std::size_t eighth = (cls - 1) % 8 + 8;
  return (eighth + 1) << (b - 4);
}

void destroy(detail::PayloadBlock* block) {
  block->~PayloadBlock();
  ::operator delete(static_cast<void*>(block));
}

}  // namespace

FrameArena::~FrameArena() {
  for (const auto& list : free_) {
    for (detail::PayloadBlock* block : list) destroy(block);
  }
}

detail::PayloadBlock* FrameArena::acquire(std::size_t size) {
  RMC_ENSURE(size <= kMaxCapacity, "payload exceeds the largest arena block");
  std::vector<detail::PayloadBlock*>& list = free_[class_of(size)];
  detail::PayloadBlock* block = nullptr;
  if (!list.empty()) {
    block = list.back();
    list.pop_back();
    idle_bytes_ -= block->capacity;
    ++stats_.blocks_reused;
  } else {
    const std::size_t capacity = class_capacity(class_of(size));
    void* raw = ::operator new(sizeof(detail::PayloadBlock) + capacity);
    block = ::new (raw) detail::PayloadBlock;
    block->capacity = static_cast<std::uint32_t>(capacity);
    block->arena = this;
    ++stats_.blocks_created;
  }
  block->refs = 1;
  block->size = static_cast<std::uint32_t>(size);
  ++outstanding_;
  return block;
}

void FrameArena::recycle(detail::PayloadBlock* block) {
  --outstanding_;
  if (idle_bytes_ + block->capacity > kMaxIdleBytes) {
    destroy(block);
    return;
  }
  idle_bytes_ += block->capacity;
  free_[class_of(block->capacity)].push_back(block);
}

PayloadRef PayloadRef::allocate(std::size_t size) {
  return PayloadRef(FrameArena::instance().acquire(size));
}

PayloadRef PayloadRef::copy_of(BytesView bytes) {
  PayloadRef ref = allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(ref.block_->data(), bytes.data(), bytes.size());
  }
  return ref;
}

std::uint8_t* PayloadRef::mutable_data() {
  RMC_ENSURE(block_ != nullptr, "mutable_data on an empty payload");
  if (block_->refs > 1) {
    FrameArena& arena = *block_->arena;
    detail::PayloadBlock* copy = arena.acquire(block_->size);
    std::memcpy(copy->data(), block_->data(), block_->size);
    ++arena.stats_.copies_on_write;
    --block_->refs;
    block_ = copy;
  }
  return block_->data();
}

void PayloadRef::release() {
  if (block_ == nullptr) return;
  if (--block_->refs == 0) block_->arena->recycle(block_);
  block_ = nullptr;
}

}  // namespace rmc::net
