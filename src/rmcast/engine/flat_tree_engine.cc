// Flat-tree protocol engine (paper §3.4, Figure 5): receivers form N/H
// chains of height H; cumulative ACKs relay up each chain at user level
// and only the chain heads talk to the sender.
#include <cmath>

#include "common/strings.h"
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

namespace {

class FlatTreeEngine final : public TreeEngine {
 public:
  std::vector<std::size_t> initial_units(std::size_t n,
                                         const ProtocolConfig& config) const override {
    return tree_chain_heads(n, config.tree_height);
  }
  std::vector<std::size_t> live_units(const std::vector<std::size_t>& live,
                                      const ProtocolConfig& config) const override {
    return tree_chain_heads_live(live, config.tree_height);
  }
  // A chain unit's stall can be secondhand: a node `levels` hops below it
  // died, and each parent on the path waits one stall budget per level
  // below the child before naming it (the receiver's child monitor). The
  // sender is the detector of last resort, so it waits out the whole
  // in-tree SUSPECT cascade plus one budget of margin — evicting a unit
  // directly means giving up on its entire live subtree's
  // acknowledgments, only correct when the head itself is the corpse.
  std::size_t evict_threshold(std::size_t n_live,
                              const ProtocolConfig& config) const override {
    const std::size_t levels =
        std::max<std::size_t>(1, std::min(config.tree_height, n_live)) - 1;
    return config.max_retransmit_rounds * (levels + 2);
  }
  TreeLinks full_links(std::size_t id, std::size_t n,
                       const ProtocolConfig& config) const override {
    return flat_tree_links(id, n, config.tree_height);
  }
  TreeLinks live_links(std::size_t id, const std::vector<std::size_t>& live,
                       const ProtocolConfig& config) const override {
    return flat_tree_links_live(id, live, config.tree_height);
  }
};

std::string validate_flat_tree(const ProtocolConfig& config, std::size_t n_receivers) {
  if (config.tree_height == 0) return "tree_height must be positive";
  if (config.tree_height > n_receivers) {
    return str_format("tree_height %zu exceeds the receiver count %zu",
                      config.tree_height, n_receivers);
  }
  return "";
}

std::string describe_flat_tree(const ProtocolConfig& config) {
  return str_format(" H=%zu", config.tree_height);
}

void tune_flat_tree(ProtocolConfig& config, std::uint64_t, std::size_t n_receivers) {
  config.packet_size = tuning::kLargeMessagePacket;
  config.window_size = 20;
  // Balance chain count against chain depth: H ~ sqrt(N) keeps both the
  // sender's ACK load (N/H) and the relay latency (H hops) low. 30
  // receivers land on the paper's H=6.
  config.tree_height = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::sqrt(static_cast<double>(n_receivers))) + 1,
      std::size_t{1}, n_receivers);
}

void grid_flat_tree(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  for (std::size_t h : {std::size_t{3}, std::size_t{6}, std::size_t{15}}) {
    ProtocolConfig c = base;
    c.tree_height = h;
    out.push_back(c);
  }
}

}  // namespace

EngineEntry flat_tree_engine_entry() {
  EngineEntry entry;
  entry.kind = ProtocolKind::kFlatTree;
  entry.traits.id = "tree";
  entry.traits.display_name = "Tree-based";
  entry.traits.paper_mbps = 81.2;
  entry.engine = [] {
    static const FlatTreeEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.validate = validate_flat_tree;
  entry.traits.describe_knobs = describe_flat_tree;
  entry.traits.apply_recommended_tuning = tune_flat_tree;
  entry.traits.tuning_variants = grid_flat_tree;
  return entry;
}

}  // namespace rmc::rmcast
