// Per-thread recycler of message-sized buffers.
//
// A simulated transfer builds a fresh sender and fresh receivers, and they
// need message-sized Buffers: the sender's copy_user_data snapshot and the
// group's message assembly (plus a private copy for any receiver whose
// bytes differ from the group's). Allocated anew per transfer, those
// buffers fault in fresh pages on every transfer, and std::vector's
// value-initialization zero-fills every byte besides. The recycler hands back buffers a
// previous user released, with whatever bytes that user left in them:
// callers overwrite every byte they later read.
//
// Like net::FrameArena the recycler is thread_local, so nothing here is
// synchronized; a buffer released on another thread simply joins that
// thread's pool.
//
// Size limit: between transfers the recycler keeps no more than the last
// transfer held. It counts buffers outstanding, and each time the count
// returns to zero (every holder gave its buffer back, so a transfer ended)
// it frees every pooled buffer beyond the peak number outstanding since the
// count was last zero, keeping the most recently released ones: the
// buffers that transfer used.
#pragma once

#include <cstddef>
#include <vector>

#include "common/serial.h"

namespace rmc {

class BufferRecycler {
 public:
  static BufferRecycler& instance();

  // A buffer of exactly `size` bytes with unspecified contents. A size of
  // zero yields an empty buffer that does not count as outstanding.
  Buffer acquire(std::size_t size);
  // Takes back a buffer obtained from acquire(); empty buffers are ignored.
  void release(Buffer buffer);

  std::size_t pooled() const { return free_.size(); }
  std::size_t outstanding() const { return outstanding_; }

 private:
  std::vector<Buffer> free_;  // oldest release first
  std::size_t outstanding_ = 0;
  std::size_t peak_ = 0;  // most outstanding since the count was last zero
};

}  // namespace rmc
