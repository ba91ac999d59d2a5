#include "rmcast/config.h"

#include "common/strings.h"
#include "inet/ip.h"
#include "rmcast/engine/registry.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {

const char* protocol_name(ProtocolKind kind) {
  return ProtocolRegistry::instance().entry(kind).traits.display_name;
}

std::string ProtocolConfig::describe() const {
  std::string out = str_format("%s pkt=%zu win=%zu", protocol_name(kind), packet_size,
                               window_size);
  out += ProtocolRegistry::instance().entry(kind).traits.describe_knobs(*this);
  if (selective_repeat) out += " SR";
  if (max_retransmit_rounds > 0) {
    out += str_format(" evict@%zu", max_retransmit_rounds);
  }
  return out;
}

std::string validate(const ProtocolConfig& config, std::size_t n_receivers) {
  if (n_receivers == 0) return "group has no receivers";
  if (config.packet_size == 0) return "packet_size must be positive";
  if (config.packet_size + kHeaderBytes > inet::kMaxUdpPayload) {
    return str_format("packet_size %zu exceeds the UDP maximum payload", config.packet_size);
  }
  if (config.window_size == 0) return "window_size must be positive";
  const EngineTraits& traits = ProtocolRegistry::instance().entry(config.kind).traits;
  // FEC knobs are owned by the FEC kinds: anything else must leave them
  // unset (a silent no-op would hide a misconfigured sweep).
  if (!traits.fec && config.fec.is_set()) {
    return str_format("%s does not use FEC: fec.k/fec.m must stay unset",
                      traits.display_name);
  }
  // Kind-specific knobs, between the window and timer checks so error
  // precedence is stable across protocols.
  std::string kind_error = traits.validate(config, n_receivers);
  if (!kind_error.empty()) return kind_error;
  if (config.rto <= 0 || config.alloc_rto <= 0) return "timeouts must be positive";
  if (config.suppress_interval < 0) return "suppress_interval must be non-negative";
  if (config.peer_repair) {
    if (!config.multicast_nak_suppression) {
      return "peer_repair requires multicast_nak_suppression: repairs are triggered "
             "by overheard group NAKs";
    }
    if (!config.selective_repeat) {
      return "peer_repair requires selective_repeat: peers resupply single packets, "
             "which cannot refill a Go-Back-N receiver's discarded tail";
    }
    if (!config.receiver_driven_timeouts) {
      return "peer_repair requires receiver_driven_timeouts: with NAKs diverted to "
             "the group, only a receiver timer can escalate a loss nobody repairs";
    }
  }
  if (config.rate_limit_bps < 0) return "rate_limit_bps must be non-negative";
  if (config.max_retransmit_rounds > 0 && config.max_rto < config.rto) {
    return "max_rto must be >= rto when eviction is enabled";
  }
  return "";
}

}  // namespace rmc::rmcast
