// ACK-based protocol engine (paper §3.1): every receiver acknowledges
// every in-order data packet straight to the sender.
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

namespace {

class AckEngine final : public ProtocolEngine {
 public:
  // In-order advance and duplicate alike: (re-)acknowledge the in-order
  // point. A duplicate means our ACK was lost; the re-ACK heals it.
  void on_data_event(ReceiverOps& ops, const DataEvent&) const override {
    ops.send_cum_ack();
  }
};

std::string validate_ack(const ProtocolConfig&, std::size_t) { return ""; }

std::string describe_ack(const ProtocolConfig&) { return ""; }

void tune_ack(ProtocolConfig& config, std::uint64_t, std::size_t) {
  // One-packet messages: a window of 2 already saturates the tiny LAN
  // round trip (Figure 10).
  config.packet_size = tuning::kSmallMessagePacket;
  config.window_size = 2;
}

void grid_ack(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  out.push_back(base);
}

}  // namespace

EngineEntry ack_engine_entry() {
  EngineEntry entry;
  entry.kind = ProtocolKind::kAck;
  entry.traits.id = "ack";
  entry.traits.display_name = "ACK-based";
  entry.traits.paper_mbps = 68.0;
  entry.engine = [] {
    static const AckEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.validate = validate_ack;
  entry.traits.describe_knobs = describe_ack;
  entry.traits.apply_recommended_tuning = tune_ack;
  entry.traits.tuning_variants = grid_ack;
  return entry;
}

}  // namespace rmc::rmcast
