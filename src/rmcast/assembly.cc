#include "rmcast/assembly.h"

#include <algorithm>
#include <utility>

#include "common/buffer_recycler.h"
#include "common/panic.h"

namespace rmc::rmcast {

MessageAssembly::MessageAssembly(std::uint32_t session, const AllocRequest& alloc)
    : session(session),
      alloc(alloc),
      // Recycled, not zero-filled: a receiver reads only the blocks below
      // its in-order point, each written by exactly one data packet
      // (handle_data admits only bodies of the exact block length).
      bytes(BufferRecycler::instance().acquire(alloc.message_bytes)) {}

MessageAssembly::~MessageAssembly() {
  BufferRecycler::instance().release(std::move(bytes));
}

void store_in_order(std::shared_ptr<MessageAssembly>& held, std::uint32_t seq,
                    BytesView block) {
  const std::size_t offset = std::size_t{seq} * held->alloc.packet_bytes;
  RMC_ENSURE(offset + block.size() <= held->bytes.size(), "data packet overflows buffer");
  if (seq < held->filled) {
    // Another receiver of the group stored this block first: keep sharing
    // while the bytes agree, and part ways on the first that does not.
    const auto slot = held->bytes.begin() + static_cast<std::ptrdiff_t>(offset);
    if (std::equal(block.begin(), block.end(), slot)) return;
    auto own = std::make_shared<MessageAssembly>(held->session, held->alloc);
    std::copy_n(held->bytes.begin(), offset, own->bytes.begin());
    own->filled = seq;
    held = std::move(own);
  }
  RMC_ENSURE(seq == held->filled, "block stored out of order");
  std::copy(block.begin(), block.end(),
            held->bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  ++held->filled;
}

std::shared_ptr<MessageAssembly> GroupAssembly::join(std::uint32_t session,
                                                     const AllocRequest& alloc) {
  std::shared_ptr<MessageAssembly> current = current_.lock();
  if (current != nullptr && current->session == session && current->alloc == alloc) {
    return current;
  }
  auto fresh = std::make_shared<MessageAssembly>(session, alloc);
  if (current == nullptr || current->session < session) current_ = fresh;
  return fresh;
}

}  // namespace rmc::rmcast
