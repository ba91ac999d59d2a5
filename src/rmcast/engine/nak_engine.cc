// NAK-based protocol engine with polling (paper §3.2): receivers NAK
// sequence gaps; only every poll_interval-th packet (and the last)
// solicits the cumulative ACKs that release sender buffers.
#include "common/strings.h"
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

namespace {

class NakEngine final : public ProtocolEngine {
 public:
  // The deterministic POLL rule: every poll_interval-th packet solicits
  // the cumulative ACKs that release sender buffers. A forced poll ends a
  // timer-driven retransmission round, or the resent batch solicits no
  // acknowledgment and the sender times out again; a peer repair or an
  // FEC-recovered block rebuilds the unforced bit, so a repaired poll
  // packet still solicits the ACKs the sender's buffer release waits for.
  std::uint8_t data_flags(std::uint32_t seq, bool force_poll,
                          const ProtocolConfig& config) const override {
    const bool polled = seq % config.poll_interval == config.poll_interval - 1;
    return polled || force_poll ? kFlagPoll : 0;
  }
  // Acknowledge only polled (or final) packets — on advance and on
  // duplicates alike, since a duplicate POLL means the poll's ACK was
  // lost.
  void on_data_event(ReceiverOps& ops, const DataEvent& event) const override {
    if ((event.flags & (kFlagPoll | kFlagLast)) != 0) ops.send_cum_ack();
  }
};

std::string validate_nak(const ProtocolConfig& config, std::size_t) {
  if (config.poll_interval == 0) return "poll_interval must be positive";
  if (config.poll_interval > config.window_size) {
    return str_format(
        "poll_interval %zu exceeds window_size %zu: no polled packet would ever "
        "be outstanding and the sender would stall on a full window",
        config.poll_interval, config.window_size);
  }
  return "";
}

std::string describe_nak(const ProtocolConfig& config) {
  return str_format(" poll=%zu", config.poll_interval);
}

void tune_nak(ProtocolConfig& config, std::uint64_t message_bytes, std::size_t) {
  config.packet_size = tuning::kLargeMessagePacket;
  const std::size_t packets_in_message = static_cast<std::size_t>(
      (message_bytes + tuning::kLargeMessagePacket - 1) / tuning::kLargeMessagePacket);
  config.window_size = std::clamp(
      std::min(packets_in_message,
               tuning::kLargeMessageBuffer / tuning::kLargeMessagePacket),
      tuning::kMinWindow, tuning::kMaxWindow);
  // 80-90% of the window, the optimum of Figure 12 across packet sizes.
  config.poll_interval = std::max<std::size_t>(1, config.window_size * 85 / 100);
}

void grid_nak(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  for (int pct : {50, 85}) {
    ProtocolConfig c = base;
    c.poll_interval =
        std::max<std::size_t>(1, base.window_size * static_cast<std::size_t>(pct) / 100);
    out.push_back(c);
  }
}

}  // namespace

EngineEntry nak_polling_engine_entry() {
  EngineEntry entry;
  entry.kind = ProtocolKind::kNakPolling;
  entry.traits.id = "nak";
  entry.traits.display_name = "NAK-based";
  entry.traits.paper_mbps = 89.7;
  entry.engine = [] {
    static const NakEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.validate = validate_nak;
  entry.traits.describe_knobs = describe_nak;
  entry.traits.apply_recommended_tuning = tune_nak;
  entry.traits.tuning_variants = grid_nak;
  return entry;
}

}  // namespace rmc::rmcast
