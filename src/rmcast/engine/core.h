// ProtocolCore: the sender-side machinery every protocol shares (paper
// §4's "common machinery") — the acknowledgment roster and its unit
// mapping, the Go-Back-N window and cumulative tracker, the
// buffer-allocation handshake bookkeeping, RTO backoff plus the
// graceful-degradation stall/eviction accounting, and the ACK round-trip
// histogram hook. The MulticastSender shell owns the sockets, timers,
// wire parsing and event reporting and delegates all of this state here;
// the per-protocol ProtocolEngine supplies only policy (who the units are,
// what solicits acknowledgments, how long a stall is tolerated).
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "rmcast/config.h"
#include "rmcast/engine/engine.h"
#include "rmcast/roster.h"
#include "rmcast/stats.h"
#include "rmcast/window.h"

namespace rmc::rmcast {

class ProtocolCore {
 public:
  // Both referents must outlive the core (the sender owns the config and
  // the registry owns the engine).
  ProtocolCore(const ProtocolEngine& engine, const ProtocolConfig& config);

  // --- Acknowledgment roster -------------------------------------------
  // Units are the nodes that acknowledge directly to the sender; the
  // engine decides who they are, the core owns the mapping.

  // Re-derives the unit set over the full roster of `n` receivers
  // (start of a send, before any eviction).
  void reset_units(std::size_t n);
  // Re-derives the unit set over the current live (non-evicted) nodes and
  // restarts the survivors' stall budgets — the structure changed under
  // them. False when nobody is left alive.
  bool rebuild_units();
  // Maps a wire node id to a tracker unit index, or -1 if that node does
  // not acknowledge to the sender under this protocol.
  int unit_of_node(std::uint16_t node_id) const;
  const std::vector<std::size_t>& unit_nodes() const { return unit_nodes_; }

  // --- Graceful degradation --------------------------------------------

  bool eviction_enabled() const { return config_.max_retransmit_rounds > 0; }
  // Marks `node` evicted; false when already evicted (or out of range).
  bool mark_evicted(std::size_t node);
  bool is_evicted(std::size_t node) const {
    return node < evicted_.size() && evicted_.test(node);
  }
  std::size_t n_nodes() const { return evicted_.size(); }
  std::size_t n_evicted() const { return evicted_.count(); }
  std::size_t n_live() const;
  // Sorted node ids not yet evicted. Cached: rebuilt only after an
  // eviction dirtied it, so the common call is a reference return.
  const std::vector<std::size_t>& live_nodes() const;
  // Sorted node ids evicted so far — what announce_evictions re-announces
  // each RTO round without walking the full roster.
  const std::vector<std::size_t>& evicted_ids() const { return evicted_ids_; }
  // Consecutive no-progress RTO rounds before a tracked unit is evicted
  // (engine policy over the current live count).
  std::size_t unit_evict_threshold() const;
  // One RTO fire's stall accounting: charges a stall round to every unit
  // still short of `transmitted_next` that made no progress since the
  // previous fire, and returns the units that crossed the eviction
  // threshold.
  std::vector<std::size_t> charge_stall_rounds(std::uint32_t transmitted_next);
  // Exponential RTO backoff after a no-progress round (saturates at
  // max_rto).
  void backoff_rto();

  // --- Alloc handshake --------------------------------------------------

  bool alloc_responded(std::size_t node) const {
    return node < alloc_responded_.size() && alloc_responded_.test(node);
  }
  // Records `node`'s ALLOC_RSP; false on a duplicate or out-of-range id.
  // When the node is a tracked unit, alloc_outstanding drops by one — the
  // O(1) increment that replaces a roster recount per response.
  bool mark_alloc_responded(std::size_t node);
  // Recounts units that have not yet confirmed their buffer allocation
  // (the roster-rebuild path, where incremental bookkeeping is stale).
  void recompute_alloc_outstanding();

  // Resets everything for a fresh send over `n` receivers.
  void begin_send(std::size_t n);

  // --- Shared state -----------------------------------------------------
  // The shell reads and writes these directly; the core's job is to be
  // their single owner, not to wrap every access.

  SenderWindow window;
  CumTracker tracker;

  // Alloc-handshake bookkeeping.
  std::size_t alloc_outstanding = 0;
  std::size_t alloc_rounds = 0;  // alloc retries this send

  // Highest cumulative acknowledgment each node ever reported this send —
  // survives roster rebuilds (unit indices do not) and seeds both the
  // re-formed tracker and the final DeliveryReports.
  std::vector<std::uint32_t> node_cum;
  // Stall bookkeeping: cum as of the previous RTO fire, and how many
  // consecutive fires the node spent short of window.next() without
  // advancing.
  std::vector<std::uint32_t> node_cum_snapshot;
  std::vector<std::uint32_t> node_stall_rounds;
  sim::Time current_rto = 0;      // backed-off per no-progress round
  std::uint64_t rto_rounds = 0;   // RTO fires this send (for the outcome)

  // ACK round-trip histogram (not owned; may be null).
  metrics::LatencyHistogram* ack_rtt = nullptr;
  SenderStats stats;

 private:
  void rebuild_node_to_unit(std::size_t n);

  const ProtocolEngine& engine_;
  const ProtocolConfig& config_;
  // Node ids that acknowledge directly to the sender.
  std::vector<std::size_t> unit_nodes_;
  std::vector<int> node_to_unit_;
  // Membership facts, 64 nodes per word (see roster.h): who confirmed the
  // alloc handshake and who has been evicted this send.
  NodeBitmap alloc_responded_;
  NodeBitmap evicted_;
  std::vector<std::size_t> evicted_ids_;  // sorted; mirrors evicted_
  // live_nodes() cache, invalidated by mark_evicted / begin_send.
  mutable std::vector<std::size_t> live_cache_;
  mutable bool live_dirty_ = true;
};

}  // namespace rmc::rmcast
