// Per-protocol engine interfaces.
//
// The paper's four protocol families (plus the binary-tree baseline) are
// mostly recombinations of the same window/ACK/repair primitives; what
// actually differs between them is a handful of policies. A SenderEngine
// answers the sender-side questions — who acknowledges directly to the
// sender, which data packets solicit acknowledgments, how long a stalled
// unit's grace period is — and a ReceiverEngine answers the receive-side
// ones — when to acknowledge, what structure to aggregate through, which
// flags a peer repair must reconstruct. Everything else (Go-Back-N
// window, the alloc handshake, RTO/backoff and eviction, retransmission
// suppression, event reporting, metrics hooks) is the shared machinery of
// ProtocolCore and the sender/receiver shells.
//
// Engines are stateless: one instance serves any number of transfers, and
// every hook receives the configuration and roster it should decide over.
// Adding a protocol means one engine pair plus a ProtocolRegistry entry —
// no edits to the sender, receiver, or any dispatch site.
#pragma once

#include <cstdint>
#include <vector>

#include "rmcast/config.h"
#include "rmcast/group.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {

// Sender-side policy of one protocol kind.
class SenderEngine {
 public:
  virtual ~SenderEngine() = default;

  // Node ids that acknowledge directly to the sender over the full roster
  // of `n` receivers: everyone (ACK, NAK-polling, ring), the flat-tree
  // chain heads, or the binary-tree root.
  virtual std::vector<std::size_t> initial_units(std::size_t n,
                                                 const ProtocolConfig& config) const = 0;

  // Same, re-formed over the sorted live set after evictions. `live` is
  // never empty.
  virtual std::vector<std::size_t> live_units(const std::vector<std::size_t>& live,
                                              const ProtocolConfig& config) const = 0;

  // Protocol-specific flag bits for data packet `seq` (the POLL bit under
  // NAK-polling); the shared LAST/RETRANS bits are the core's business.
  virtual std::uint8_t data_flags(std::uint32_t seq, bool force_poll,
                                  const ProtocolConfig& config) const {
    (void)seq;
    (void)force_poll;
    (void)config;
    return 0;
  }

  // True when a timer-driven retransmission round must end in a packet
  // that solicits acknowledgments even if no packet in the batch carried
  // a soliciting flag of its own (NAK-polling's forced poll).
  virtual bool needs_forced_poll() const { return false; }

  // Consecutive no-progress RTO rounds before a tracked unit is evicted,
  // given `n_live` surviving receivers. Tree protocols stretch this so
  // the in-tree SUSPECT cascade — which names the actual dead node rather
  // than the head aggregating for it — gets the first shot.
  virtual std::size_t evict_threshold(std::size_t n_live,
                                      const ProtocolConfig& config) const {
    (void)n_live;
    return config.max_retransmit_rounds;
  }

  // True when tree parents report stalled children to the sender via
  // SUSPECT packets (only meaningful for aggregating protocols).
  virtual bool accepts_suspects() const { return false; }

  // --- Group-aware contract (hybrid FEC) -------------------------------
  // ARQ protocols keep the defaults: no parity, no group repairs.

  // Parity packets the sender emits after each group of fec.k data
  // packets. 0 means the protocol is pure ARQ and no group structure
  // exists on the wire.
  virtual std::size_t parity_per_group(const ProtocolConfig& config) const {
    (void)config;
    return 0;
  }

  // Answers a GROUP_NAK: expands (group, missing-bitmap) into the data
  // sequence numbers to retransmit. `group_data` is the number of data
  // packets the group actually holds (the tail group may be short).
  // Default: ARQ senders never see a GROUP_NAK, so there is no plan.
  virtual std::vector<std::uint32_t> make_repair_plan(
      std::uint32_t group, std::uint64_t missing, std::size_t group_data,
      const ProtocolConfig& config) const {
    (void)group;
    (void)missing;
    (void)group_data;
    (void)config;
    return {};
  }
};

// One data-packet acknowledgment decision, covering both the in-order
// advance and the duplicate case — the two call sites that previously
// dispatched the same `switch (config_.kind)` twice per packet.
struct DataEvent {
  // False: the in-order point advanced past one or more packets and
  // `flags` aggregates everything consumed, with `old_expected` the
  // in-order point before the packet arrived. True: a packet at `seq`
  // (below the in-order point) arrived again with `flags`.
  bool duplicate = false;
  std::uint8_t flags = 0;
  std::uint32_t old_expected = 0;
  std::uint32_t seq = 0;
};

// The operations a ReceiverEngine may perform on its receiver. Implemented
// privately by MulticastReceiver; engines never see receiver internals.
class ReceiverOps {
 public:
  virtual const ProtocolConfig& config() const = 0;
  virtual std::size_t node_id() const = 0;
  // Current in-order point: this receiver holds all packets with a lower
  // sequence number.
  virtual std::uint32_t expected() const = 0;
  virtual std::uint32_t total_packets() const = 0;
  // Sorted node ids this receiver currently believes alive.
  virtual const std::vector<std::size_t>& live() const = 0;
  // Current aggregation-tree links (empty for the flat protocols).
  virtual const TreeLinks& links() const = 0;
  // Unicast a cumulative acknowledgment at the current in-order point to
  // the acknowledgment target (sender, or tree parent).
  virtual void send_cum_ack() = 0;
  // Tree protocols: recompute min(own progress, children's reports) and
  // forward it upstream when it advanced — or unconditionally re-forward
  // when `resend_allowed` (healing a lost ACK).
  virtual void forward_chain_state(bool resend_allowed) = 0;

 protected:
  ~ReceiverOps() = default;
};

// Receive-side policy of one protocol kind.
class ReceiverEngine {
 public:
  virtual ~ReceiverEngine() = default;

  // The single per-packet acknowledgment decision (see DataEvent).
  virtual void on_data_event(ReceiverOps& ops, const DataEvent& event) const = 0;

  // True for protocols that aggregate acknowledgments through a logical
  // receiver tree (user-level relaying).
  virtual bool is_tree() const { return false; }

  // Aggregation links over the full roster / over the live set. Non-tree
  // protocols have no links.
  virtual TreeLinks full_links(std::size_t id, std::size_t n,
                               const ProtocolConfig& config) const {
    (void)id;
    (void)n;
    (void)config;
    return {};
  }
  virtual TreeLinks live_links(std::size_t id, const std::vector<std::size_t>& live,
                               const ProtocolConfig& config) const {
    (void)id;
    (void)live;
    (void)config;
    return {};
  }

  // Protocol flags a peer repair of `seq` must reconstruct so the repair
  // still solicits the acknowledgments the sender waits for (NAK-polling's
  // deterministic POLL bit).
  virtual std::uint8_t repair_flags(std::uint32_t seq,
                                    const ProtocolConfig& config) const {
    (void)seq;
    (void)config;
    return 0;
  }

  // True when an eviction notice re-forms this protocol's logical
  // structure even without tree links (the ring's token rotation).
  virtual bool reforms_on_evict() const { return false; }

  // --- Group-aware contract (hybrid FEC) -------------------------------
  // ARQ protocols keep the defaults: packets have no group structure and
  // the hooks never fire.

  // True for the erasure-coded kinds: the receiver buffers whole groups,
  // decodes around erasures, and NAKs only undecodable groups.
  virtual bool is_fec() const { return false; }

  // The in-order point moved past the last packet of `group`: every data
  // block of the group is held. The EC engines acknowledge here — one
  // cumulative ACK per group instead of per packet.
  virtual void on_group_close(ReceiverOps& ops, std::uint32_t group) const {
    (void)ops;
    (void)group;
  }

  // Decode policy: can a group missing `missing_data` blocks be
  // reconstructed from `parity_held` parity blocks? ARQ protocols hold no
  // parity and never decode.
  virtual bool group_decodable(std::size_t missing_data,
                               std::size_t parity_held) const {
    (void)missing_data;
    (void)parity_held;
    return false;
  }
};

}  // namespace rmc::rmcast
