// Shared base and tuning constants for the concrete engines.
#pragma once

#include <algorithm>

#include "rmcast/engine/engine.h"

namespace rmc::rmcast {

// The paper's sweet spots on 100 Mbps switched Ethernet, used by the
// per-kind recommended tunings (§5, §6).
namespace tuning {
inline constexpr std::size_t kSmallMessagePacket = 50'000;  // one datagram up to here
inline constexpr std::size_t kLargeMessagePacket = 8'000;   // pipeline-friendly
inline constexpr std::size_t kLargeMessageBuffer = 400'000;  // window x packet (Table 3)
inline constexpr std::size_t kMinWindow = 8;
inline constexpr std::size_t kMaxWindow = 50;
}  // namespace tuning

// Base for the aggregating protocols: acknowledgments relay through the
// tree, so a data packet never triggers a direct ACK — only a
// recomputation of the upstream aggregate. A leaf re-forwards on
// duplicates to heal lost ACKs (interior nodes heal through their
// children's re-ACKs instead).
class TreeEngine : public ProtocolEngine {
 public:
  void on_data_event(ReceiverOps& ops, const DataEvent& event) const override {
    if (!event.duplicate) {
      ops.forward_chain_state(/*resend_allowed=*/false);
    } else if (ops.links().children.empty()) {
      ops.forward_chain_state(/*resend_allowed=*/true);
    }
  }
  bool is_tree() const override { return true; }
};

}  // namespace rmc::rmcast
