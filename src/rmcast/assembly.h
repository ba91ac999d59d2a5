// The message a group's receivers assemble, stored once per group.
//
// On the simulator every receiver of a group accepts the very same bytes
// (the hosts of a cluster share one reassembled block per multicast
// datagram), and in a PosixSession the receivers of one process accept
// equal ones. So the receivers a Session wires for one group share one
// MessageAssembly per session instead of each writing the message into a
// private buffer:
//
//   * the first receiver to accept block s writes it into the shared slot;
//   * every later receiver compares the bytes it accepted with that slot;
//   * a receiver whose bytes differ continues alone in a private copy of
//     the blocks it accepted so far.
//
// A receiver stores block s only at its in-order point, so the blocks a
// shared assembly holds are always a prefix, [0, filled), and a receiver
// still sharing has accepted exactly the bytes of the slots below its own
// in-order point. A receiver therefore never delivers or repairs from
// bytes it did not accept itself.
//
// A receiver built by hand, outside a Session, gets a group of its own:
// every block is then a first fill, which is the private message buffer of
// one receiver. Nothing here is synchronized: a group's receivers run on
// one thread (one simulator, or one PosixRuntime loop).
#pragma once

#include <cstdint>
#include <memory>

#include "common/serial.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {

// One session's message. The bytes come from the thread's BufferRecycler
// and go back to it when the last receiver holding the assembly lets go.
struct MessageAssembly {
  MessageAssembly(std::uint32_t session, const AllocRequest& alloc);
  ~MessageAssembly();
  MessageAssembly(const MessageAssembly&) = delete;
  MessageAssembly& operator=(const MessageAssembly&) = delete;

  const std::uint32_t session;
  const AllocRequest alloc;
  Buffer bytes;  // message_bytes long; blocks [0, filled) are written
  std::uint32_t filled = 0;
};

// Stores `block`, the block at the in-order point `seq` of a receiver
// whose assembly is `held`. A block no receiver of the group stored yet is
// written; one already stored is compared, and on any difference `held`
// becomes a private copy of blocks [0, seq) with `block` written after
// them.
void store_in_order(std::shared_ptr<MessageAssembly>& held, std::uint32_t seq,
                    BytesView block);

// The current assembly of one group.
class GroupAssembly {
 public:
  // The assembly a receiver of this group uses for `session`: the group's
  // current one when it is for the same session and message, else a fresh
  // one, which becomes the group's current unless the group has already
  // moved on to a later session. Each assembly belongs to one session; a
  // receiver still on an older session keeps its own reference to it.
  std::shared_ptr<MessageAssembly> join(std::uint32_t session, const AllocRequest& alloc);

 private:
  std::weak_ptr<MessageAssembly> current_;
};

}  // namespace rmc::rmcast
