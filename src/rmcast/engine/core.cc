#include "rmcast/engine/core.h"

#include <algorithm>

namespace rmc::rmcast {

namespace {

// Each consecutive unanswered retransmission round multiplies a tracked
// unit's RTO by this, up to config.max_rto.
constexpr double kRtoBackoffFactor = 2.0;

}  // namespace

ProtocolCore::ProtocolCore(const ProtocolEngine& engine, const ProtocolConfig& config)
    : engine_(engine), config_(config) {}

void ProtocolCore::reset_units(std::size_t n) {
  unit_nodes_ = engine_.initial_units(n, config_);
  rebuild_node_to_unit(n);
}

bool ProtocolCore::rebuild_units() {
  const std::size_t n = node_to_unit_.size();
  const std::vector<std::size_t>& live = live_nodes();
  if (live.empty()) return false;
  unit_nodes_ = engine_.live_units(live, config_);
  rebuild_node_to_unit(n);
  // The structure changed under the surviving units (a promoted head has
  // to rebuild its chain's aggregate from scratch): restart their grace
  // period rather than evicting them on bookkeeping inherited from the
  // old layout.
  for (std::size_t node : unit_nodes_) node_stall_rounds[node] = 0;
  return true;
}

void ProtocolCore::rebuild_node_to_unit(std::size_t n) {
  node_to_unit_.assign(n, -1);
  for (std::size_t u = 0; u < unit_nodes_.size(); ++u) {
    node_to_unit_[unit_nodes_[u]] = static_cast<int>(u);
  }
}

int ProtocolCore::unit_of_node(std::uint16_t node_id) const {
  if (node_id >= node_to_unit_.size()) return -1;
  return node_to_unit_[node_id];
}

bool ProtocolCore::mark_evicted(std::size_t node) {
  if (node >= evicted_.size() || !evicted_.set(node)) return false;
  // Evictions are rare (a handful per send); keeping the sorted id list
  // incrementally beats re-deriving it from the bitmap each RTO round.
  evicted_ids_.insert(
      std::lower_bound(evicted_ids_.begin(), evicted_ids_.end(), node), node);
  live_dirty_ = true;
  ++stats.receivers_evicted;
  return true;
}

std::size_t ProtocolCore::n_live() const {
  return std::max<std::size_t>(evicted_.size() - evicted_.count(), 1);
}

const std::vector<std::size_t>& ProtocolCore::live_nodes() const {
  if (live_dirty_) {
    live_cache_.clear();
    live_cache_.reserve(evicted_.size() - evicted_.count());
    for (std::size_t i = 0; i < evicted_.size(); ++i) {
      if (!evicted_.test(i)) live_cache_.push_back(i);
    }
    live_dirty_ = false;
  }
  return live_cache_;
}

std::size_t ProtocolCore::unit_evict_threshold() const {
  return engine_.evict_threshold(n_live(), config_);
}

std::vector<std::size_t> ProtocolCore::charge_stall_rounds(
    std::uint32_t transmitted_next) {
  std::vector<std::size_t> dead;
  // The live count — and with it the threshold — cannot change inside
  // this loop, so hoist the engine call out of the per-unit walk.
  const std::size_t threshold = unit_evict_threshold();
  for (std::size_t node : unit_nodes_) {
    if (seq_gt(node_cum[node], node_cum_snapshot[node])) {
      node_stall_rounds[node] = 0;  // advanced since the previous fire
    } else if (seq_lt(node_cum[node], transmitted_next)) {
      ++node_stall_rounds[node];
    }
    node_cum_snapshot[node] = node_cum[node];
    if (node_stall_rounds[node] >= threshold) dead.push_back(node);
  }
  return dead;
}

void ProtocolCore::backoff_rto() {
  if (current_rto >= config_.max_rto) return;
  current_rto = std::min<sim::Time>(
      static_cast<sim::Time>(static_cast<double>(current_rto) * kRtoBackoffFactor),
      config_.max_rto);
  ++stats.rto_backoffs;
}

bool ProtocolCore::mark_alloc_responded(std::size_t node) {
  if (node >= alloc_responded_.size() || !alloc_responded_.set(node)) return false;
  if (node < node_to_unit_.size() && node_to_unit_[node] >= 0 &&
      alloc_outstanding > 0) {
    --alloc_outstanding;
  }
  return true;
}

void ProtocolCore::recompute_alloc_outstanding() {
  alloc_outstanding = 0;
  for (std::size_t node : unit_nodes_) {
    if (!alloc_responded_.test(node)) ++alloc_outstanding;
  }
}

void ProtocolCore::begin_send(std::size_t n) {
  // A previous send may have evicted receivers and shrunk the roster;
  // every send starts from the full structure again.
  reset_units(n);
  alloc_responded_.assign(n, false);
  evicted_.assign(n, false);
  evicted_ids_.clear();
  live_dirty_ = true;
  node_cum.assign(n, 0);
  node_cum_snapshot.assign(n, 0);
  node_stall_rounds.assign(n, 0);
  current_rto = config_.rto;
  rto_rounds = 0;
  alloc_rounds = 0;
  alloc_outstanding = unit_nodes_.size();
}

}  // namespace rmc::rmcast
