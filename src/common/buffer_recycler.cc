#include "common/buffer_recycler.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace rmc {

namespace {

// Prefer a buffer already `size` bytes long, which shrinks without
// touching a byte, over one that must grow (value-filling the growth);
// among equals, the smallest capacity.
bool better_fit(const Buffer& a, const Buffer& b, std::size_t size) {
  const bool a_long = a.size() >= size;
  const bool b_long = b.size() >= size;
  if (a_long != b_long) return a_long;
  return a.capacity() < b.capacity();
}

}  // namespace

BufferRecycler& BufferRecycler::instance() {
  static thread_local BufferRecycler recycler;
  return recycler;
}

Buffer BufferRecycler::acquire(std::size_t size) {
  if (size == 0) return {};
  ++outstanding_;
  peak_ = std::max(peak_, outstanding_);

  auto best = free_.end();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->capacity() < size) continue;
    if (best == free_.end() || better_fit(*it, *best, size)) best = it;
  }
  if (best == free_.end()) return Buffer(size);
  Buffer out = std::move(*best);
  free_.erase(best);
  out.resize(size);
  return out;
}

void BufferRecycler::release(Buffer buffer) {
  if (buffer.capacity() == 0) return;
  free_.push_back(std::move(buffer));
  if (outstanding_ > 0) --outstanding_;
  if (outstanding_ == 0) {
    if (free_.size() > peak_) {
      free_.erase(free_.begin(), std::prev(free_.end(), static_cast<std::ptrdiff_t>(peak_)));
    }
    peak_ = 0;
  }
}

}  // namespace rmc
