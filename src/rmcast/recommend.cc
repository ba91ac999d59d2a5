#include "rmcast/recommend.h"

#include <algorithm>

#include "common/panic.h"
#include "common/strings.h"
#include "rmcast/engine/common.h"
#include "rmcast/engine/registry.h"

namespace rmc::rmcast {

Recommendation recommend_config(std::uint64_t message_bytes, std::size_t n_receivers) {
  RMC_ENSURE(n_receivers > 0, "group must have receivers");
  Recommendation rec;

  // Protocol selection is the cross-kind decision (paper §6); the chosen
  // kind's knob values come from its registry entry, so the advice can
  // never drift from the engine actually run.
  if (message_bytes <= tuning::kSmallMessagePacket) {
    rec.config.kind = ProtocolKind::kAck;
    ProtocolRegistry::instance()
        .entry(rec.config.kind)
        .traits.apply_recommended_tuning(rec.config, message_bytes, n_receivers);
    rec.rationale = str_format(
        "%s fits one %s packet: the ACK-based, NAK-based and ring protocols behave "
        "identically here and all beat the trees (user-level relaying only adds "
        "delay), so the simplest wins; a window of 2 already saturates the tiny LAN "
        "round trip (Figure 10).",
        format_bytes(message_bytes).c_str(),
        format_bytes(rec.config.packet_size).c_str());
    scale_timers_to_group(rec.config, n_receivers);
    return rec;
  }

  rec.config.kind = ProtocolKind::kNakPolling;
  ProtocolRegistry::instance()
      .entry(rec.config.kind)
      .traits.apply_recommended_tuning(rec.config, message_bytes, n_receivers);
  rec.rationale = str_format(
      "%s to %zu receivers: the NAK-based protocol with polling achieves the highest "
      "large-message throughput (Table 3); %s packets keep the pipeline full, a "
      "window of %zu absorbs the poll round trip, and polling at ~85%% of the window "
      "is the Figure 12 optimum.",
      format_bytes(message_bytes).c_str(), n_receivers,
      format_bytes(rec.config.packet_size).c_str(), rec.config.window_size);
  scale_timers_to_group(rec.config, n_receivers);
  return rec;
}

Recommendation recommend_config(std::uint64_t message_bytes, std::size_t n_receivers,
                                double expected_loss) {
  RMC_ENSURE(expected_loss >= 0.0 && expected_loss < 1.0,
             "expected_loss must be a rate in [0, 1)");
  // The ARQ advice holds while losses are rare: an occasional NAK round
  // trip is cheaper than streaming parity nobody needs. Small messages
  // also stay ARQ — they span a fraction of one FEC group, so parity
  // overhead cannot amortize.
  if (expected_loss < 0.01 || message_bytes <= tuning::kSmallMessagePacket) {
    return recommend_config(message_bytes, n_receivers);
  }
  Recommendation rec;
  rec.config.kind = ProtocolKind::kEcRs;
  ProtocolRegistry::instance()
      .entry(rec.config.kind)
      .traits.apply_recommended_tuning(rec.config, message_bytes, n_receivers);
  rec.rationale = str_format(
      "%s to %zu receivers at ~%.1f%% expected loss: the Reed-Solomon hybrid-FEC "
      "protocol repairs up to %zu losses per %zu-packet group from parity with no "
      "repair round trip, so repair traffic stays flat where the NAK-based "
      "protocol's retransmissions grow with the loss rate (abl_ec_crossover).",
      format_bytes(message_bytes).c_str(), n_receivers, expected_loss * 100.0,
      rec.config.fec.m, rec.config.fec.k);
  scale_timers_to_group(rec.config, n_receivers);
  return rec;
}

void scale_timers_to_group(ProtocolConfig& config, std::size_t n_receivers) {
  const auto n = static_cast<sim::Time>(n_receivers);
  config.rto = std::max(config.rto, n * kTimerPerReceiver);
  config.alloc_rto = std::max(config.alloc_rto, n * kTimerPerReceiver);
  config.max_rto = std::max(config.max_rto, config.rto);
  if (config.receiver_driven_timeouts) {
    config.receiver_timeout = std::max(config.receiver_timeout, n * kSilencePerReceiver);
  }
}

}  // namespace rmc::rmcast
