// Binary-tree protocol engine (paper Figure 4): the pre-existing
// tree-protocol structure the paper's flat tree argues against, kept as a
// comparison baseline. ACKs aggregate up a binary heap rooted at
// receiver 0; only the root reports to the sender.
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"

namespace rmc::rmcast {

namespace {

class BinaryTreeEngine final : public TreeEngine {
 public:
  std::vector<std::size_t> initial_units(std::size_t,
                                         const ProtocolConfig&) const override {
    return {0};  // only the tree root reports to the sender
  }
  std::vector<std::size_t> live_units(const std::vector<std::size_t>& live,
                                      const ProtocolConfig&) const override {
    return {live.front()};  // lowest live id is the promoted root
  }
  // The root's stall budget stretches with the depth of the SUSPECT
  // cascade below it (see the flat-tree engine's rationale).
  std::size_t evict_threshold(std::size_t n_live,
                              const ProtocolConfig& config) const override {
    std::size_t levels = 0;
    for (std::size_t full = 1; full < n_live; full = 2 * full + 1) ++levels;
    return config.max_retransmit_rounds * (levels + 2);
  }
  TreeLinks full_links(std::size_t id, std::size_t n,
                       const ProtocolConfig&) const override {
    return binary_tree_links(id, n);
  }
  TreeLinks live_links(std::size_t id, const std::vector<std::size_t>& live,
                       const ProtocolConfig&) const override {
    return binary_tree_links_live(id, live);
  }
};

std::string validate_binary_tree(const ProtocolConfig&, std::size_t) { return ""; }

std::string describe_binary_tree(const ProtocolConfig&) { return ""; }

void tune_binary_tree(ProtocolConfig& config, std::uint64_t, std::size_t) {
  config.packet_size = tuning::kLargeMessagePacket;
  config.window_size = 20;
}

void grid_binary_tree(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  out.push_back(base);
}

}  // namespace

EngineEntry binary_tree_engine_entry() {
  EngineEntry entry;
  entry.kind = ProtocolKind::kBinaryTree;
  entry.traits.id = "btree";
  entry.traits.display_name = "BinaryTree-based";
  entry.engine = [] {
    static const BinaryTreeEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.validate = validate_binary_tree;
  entry.traits.describe_knobs = describe_binary_tree;
  entry.traits.apply_recommended_tuning = tune_binary_tree;
  entry.traits.tuning_variants = grid_binary_tree;
  return entry;
}

}  // namespace rmc::rmcast
