// Ring-based protocol engine (paper §3.3, with the LAN adaptations of
// §4): the acknowledgment token rotates over the live receivers — packet
// k is acknowledged by the receiver whose live rank is k mod N — plus the
// LAST packet, which everyone acknowledges.
#include "common/strings.h"
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

namespace {

// Token ownership of packet k over the current live set: the token
// rotates over live ranks, so survivors absorb an evicted node's slots.
// Identical to k % N == node_id while nobody is evicted.
bool owns_token(const ReceiverOps& ops, std::uint32_t k) {
  const std::vector<std::size_t>& live = ops.live();
  if (live.empty()) return false;
  return live[k % live.size()] == ops.node_id();
}

class RingEngine final : public ProtocolEngine {
 public:
  void on_data_event(ReceiverOps& ops, const DataEvent& event) const override {
    if (!event.duplicate) {
      bool token_mine = false;
      for (std::uint32_t k = event.old_expected; k < ops.expected(); ++k) {
        if (owns_token(ops, k)) {
          token_mine = true;
          break;
        }
      }
      const bool last_done = (event.flags & kFlagLast) != 0 &&
                             ops.expected() == ops.total_packets();
      if (token_mine || last_done) ops.send_cum_ack();
      return;
    }
    // Re-acknowledge our own token or the LAST packet — and any flagged
    // retransmission: a retransmitted packet we already hold means some
    // receiver's ACK was lost, and under selective repeat the sender
    // resends only that one packet, so the healing re-ACK must come from
    // every receiver, not just the token owner (whose ACK may not be the
    // missing one).
    if (owns_token(ops, event.seq) || (event.flags & kFlagLast) != 0 ||
        (event.flags & kFlagRetrans) != 0) {
      ops.send_cum_ack();
    }
  }
  // The token rule consults the live set directly; an eviction re-forms
  // the rotation without any links to rebuild.
  bool reforms_on_evict() const override { return true; }
};

std::string validate_ring(const ProtocolConfig& config, std::size_t n_receivers) {
  if (config.window_size <= n_receivers) {
    return str_format(
        "ring protocol requires window_size > n_receivers (%zu <= %zu): the token "
        "rotation releases packet X only on the ACK of packet X+N",
        config.window_size, n_receivers);
  }
  return "";
}

std::string describe_ring(const ProtocolConfig&) { return ""; }

void tune_ring(ProtocolConfig& config, std::uint64_t, std::size_t n_receivers) {
  config.packet_size = tuning::kLargeMessagePacket;
  // The rotation releases packet X only on the ACK of packet X+N, so the
  // window must clear the receiver count with slack (Table 3's tuned ring
  // runs N+10 at 30 receivers).
  config.window_size = std::max(tuning::kMinWindow, n_receivers + 10);
}

void grid_ring(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  out.push_back(base);
}

}  // namespace

EngineEntry ring_engine_entry() {
  EngineEntry entry;
  entry.kind = ProtocolKind::kRing;
  entry.traits.id = "ring";
  entry.traits.display_name = "Ring-based";
  entry.traits.paper_mbps = 84.6;
  entry.engine = [] {
    static const RingEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.validate = validate_ring;
  entry.traits.describe_knobs = describe_ring;
  entry.traits.apply_recommended_tuning = tune_ring;
  entry.traits.tuning_variants = grid_ring;
  return entry;
}

}  // namespace rmc::rmcast
