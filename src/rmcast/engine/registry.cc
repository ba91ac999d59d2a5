#include "rmcast/engine/registry.h"

#include "common/panic.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

ProtocolRegistry::ProtocolRegistry() {
  // Registration order is enum order; entry() indexes by kind.
  entries_.push_back(ack_engine_entry());
  entries_.push_back(nak_polling_engine_entry());
  entries_.push_back(ring_engine_entry());
  entries_.push_back(flat_tree_engine_entry());
  entries_.push_back(binary_tree_engine_entry());
  entries_.push_back(ec_xor_engine_entry());
  entries_.push_back(ec_rs_engine_entry());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const EngineEntry& e = entries_[i];
    RMC_ENSURE(static_cast<std::size_t>(e.kind) == i,
               "registry entries must be registered in ProtocolKind order");
    RMC_ENSURE(e.engine != nullptr && e.traits.validate != nullptr &&
                   e.traits.describe_knobs != nullptr &&
                   e.traits.apply_recommended_tuning != nullptr &&
                   e.traits.tuning_variants != nullptr,
               "registry entry is missing a hook");
    RMC_ENSURE(e.traits.id[0] != '\0' && e.traits.display_name[0] != '\0',
               "registry entry is missing its names");
  }
}

const ProtocolRegistry& ProtocolRegistry::instance() {
  static const ProtocolRegistry registry;
  return registry;
}

const EngineEntry& ProtocolRegistry::entry(ProtocolKind kind) const {
  const std::size_t index = static_cast<std::size_t>(kind);
  RMC_ENSURE(index < entries_.size(), "unregistered protocol kind");
  return entries_[index];
}

const EngineEntry* ProtocolRegistry::find(std::string_view id) const {
  for (const EngineEntry& e : entries_) {
    if (id == e.traits.id) return &e;
  }
  return nullptr;
}

}  // namespace rmc::rmcast
