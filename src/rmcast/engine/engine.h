// Per-protocol engine interface.
//
// The paper's four protocol families (plus the binary-tree baseline and
// the erasure-coded kinds) are mostly recombinations of the same
// window/ACK/repair primitives; what actually differs between them is a
// handful of policies. One ProtocolEngine per kind answers them all: who
// acknowledges directly to the sender, which data packets solicit
// acknowledgments, how long a stalled unit's grace period is, when a
// receiver acknowledges, and what structure it aggregates through.
// Everything else (Go-Back-N window, the alloc handshake, RTO/backoff and
// eviction, retransmission suppression, FEC groups, event reporting,
// metrics hooks) is the shared machinery of ProtocolCore and the
// sender/receiver shells; facts derivable from the configuration (an FEC
// group shape, the POLL rule a peer repair must rebuild) are asked of the
// configuration or of data_flags, not of a hook of their own.
//
// Engines are stateless: one instance serves any number of transfers, and
// every hook receives the configuration and roster it should decide over.
// Adding a protocol means one engine plus a ProtocolRegistry entry — no
// edits to the sender, receiver, or any dispatch site.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "rmcast/config.h"
#include "rmcast/group.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {

// One data-packet acknowledgment decision, covering both the in-order
// advance and the duplicate case.
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

// The operations an engine may perform on its receiver. Implemented
// privately by MulticastReceiver; engines never see receiver internals.
class ReceiverOps {
 public:
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

// The policy of one protocol kind. The defaults describe a flat protocol:
// every receiver acknowledges directly to the sender, no packet carries a
// protocol flag, and there is no aggregation structure.
class ProtocolEngine {
 public:
  virtual ~ProtocolEngine() = default;

  // --- Sender side ------------------------------------------------------

  // Node ids that acknowledge directly to the sender over the full roster
  // of `n` receivers: everyone, the flat-tree chain heads, or the
  // binary-tree root.
  virtual std::vector<std::size_t> initial_units(std::size_t n,
                                                 const ProtocolConfig& /*config*/) const {
    std::vector<std::size_t> units(n);
    std::iota(units.begin(), units.end(), std::size_t{0});
    return units;
  }
  // Same, re-formed over the sorted live set after evictions. `live` is
  // never empty.
  virtual std::vector<std::size_t> live_units(const std::vector<std::size_t>& live,
                                              const ProtocolConfig& /*config*/) const {
    return live;
  }

  // Protocol flag bits for data packet `seq` (the POLL bit under
  // NAK-polling); the shared LAST/RETRANS bits are the shells' business.
  // `force_poll` asks for a packet that solicits acknowledgments anyway:
  // a kind that answers it with kFlagPoll needs a timer-driven
  // retransmission round to end in one. With `force_poll` false this is
  // also the flag set a peer repair or an FEC-recovered block must carry.
  virtual std::uint8_t data_flags(std::uint32_t /*seq*/, bool /*force_poll*/,
                                  const ProtocolConfig& /*config*/) const {
    return 0;
  }

  // Consecutive no-progress RTO rounds before a tracked unit is evicted,
  // given `n_live` surviving receivers. Tree protocols stretch this so
  // the in-tree SUSPECT cascade — which names the actual dead node rather
  // than the head aggregating for it — gets the first shot.
  virtual std::size_t evict_threshold(std::size_t /*n_live*/,
                                      const ProtocolConfig& config) const {
    return config.max_retransmit_rounds;
  }

  // --- Receiver side ----------------------------------------------------

  // The single per-packet acknowledgment decision (see DataEvent).
  virtual void on_data_event(ReceiverOps& ops, const DataEvent& event) const = 0;

  // True for protocols that aggregate acknowledgments through a logical
  // receiver tree (user-level relaying); their parents report stalled
  // children to the sender with SUSPECT packets.
  virtual bool is_tree() const { return false; }
  // Aggregation links over the full roster / over the live set. Non-tree
  // protocols have no links.
  virtual TreeLinks full_links(std::size_t /*id*/, std::size_t /*n*/,
                               const ProtocolConfig& /*config*/) const {
    return {};
  }
  virtual TreeLinks live_links(std::size_t /*id*/, const std::vector<std::size_t>& /*live*/,
                               const ProtocolConfig& /*config*/) const {
    return {};
  }

  // True when an eviction notice re-forms this protocol's logical
  // structure even without tree links (the ring's token rotation).
  virtual bool reforms_on_evict() const { return false; }
};

}  // namespace rmc::rmcast
