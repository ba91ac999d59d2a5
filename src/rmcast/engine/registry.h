// ProtocolRegistry: the one table mapping a ProtocolKind to everything
// kind-specific — its engine plus an EngineTraits value bundling
// the metadata and policy hooks (display name, per-kind configuration
// validation, describe() knobs, the paper's recommended tuning, the
// parameter-space probe grid, and the FEC capability flag). Every
// dispatch that used to be a `switch (kind)` scattered across config.cc,
// recommend.cc and the bench helpers now goes through here, so adding a
// protocol is one engine file plus one entry in registry.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rmcast/config.h"
#include "rmcast/engine/engine.h"

namespace rmc::rmcast {

// Everything about a protocol kind that is data or policy rather than
// packet-by-packet behavior. One value per kind, owned by the registry;
// formerly four loose function pointers plus scattered name tables.
struct EngineTraits {
  // Short stable identifier ("ack", "nak", "ring", "tree", "btree",
  // "ecxor", "ecrs") for command lines and logs.
  const char* id = "";
  // Human-readable protocol name ("ACK-based"), as printed by the paper
  // tables.
  const char* display_name = "";
  // The paper's Table 2 peak throughput for this family (Mb/s), or 0 when
  // the paper has no measurement (protocols added beyond the paper).
  // bench/tune_search.cc prints its recovered tunings against this.
  double paper_mbps = 0.0;
  // True for the erasure-coded kinds: the sender emits parity groups and
  // the config must carry valid FecParams (see config.h). validate() keeps
  // config.fec.is_set() equal to this flag, so the shells ask the config.
  bool fec = false;

  // Per-kind arm of validate(): returns an error message or "" if the
  // kind-specific knobs are consistent for a group of `n_receivers`.
  std::string (*validate)(const ProtocolConfig& config, std::size_t n_receivers) = nullptr;

  // Per-kind knob suffix of ProtocolConfig::describe() (" poll=12",
  // " H=6", " k=32 m=8", or "").
  std::string (*describe_knobs)(const ProtocolConfig& config) = nullptr;

  // The paper's sweet-spot tuning for this kind: sets packet size, window
  // and kind-specific knobs for a `message_bytes` transfer to
  // `n_receivers`. recommend_config() routes through this so advice can
  // never drift out of sync with the registered kinds.
  void (*apply_recommended_tuning)(ProtocolConfig& config, std::uint64_t message_bytes,
                                   std::size_t n_receivers) = nullptr;

  // Parameter-space probe (the paper's Table 3 methodology): expand a base
  // configuration — kind, packet size and window already set — into the
  // kind-specific grid points.
  void (*tuning_variants)(const ProtocolConfig& base,
                          std::vector<ProtocolConfig>& out) = nullptr;
};

struct EngineEntry {
  ProtocolKind kind = ProtocolKind::kAck;
  EngineTraits traits;

  // Engines are stateless; the registry hands out shared singletons.
  const ProtocolEngine* (*engine)() = nullptr;
};

class ProtocolRegistry {
 public:
  // The process-wide registry of all protocol kinds, in enum order.
  static const ProtocolRegistry& instance();

  const EngineEntry& entry(ProtocolKind kind) const;
  // nullptr when no entry carries that id.
  const EngineEntry* find(std::string_view id) const;
  const std::vector<EngineEntry>& entries() const { return entries_; }

 private:
  ProtocolRegistry();
  std::vector<EngineEntry> entries_;
};

}  // namespace rmc::rmcast
