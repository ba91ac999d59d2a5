// Protocol selection and tuning parameters.
//
// Every field is a setting some program or test varies (docs/
// ARCHITECTURE.md, "Options", names who sets each). Timing that no caller
// varies is a named constant where it is used: the RTO backoff factor
// (engine/core.cc), the NAK rate limit and the NAK and repair backoff
// bounds (receiver.h), and the user-space copy rate (inet/host_params.h).
#pragma once

#include <cstddef>
#include <string>

#include "sim/time.h"

namespace rmc::rmcast {

// The four protocol families of the reproduced paper (§3), plus the
// binary-tree structure of the pre-existing tree protocols (paper
// Figure 4) that the flat tree is an argument against — kept as a
// comparison baseline — plus the hybrid-FEC family (beyond the paper):
// the sender streams k data + m parity packets per group, receivers
// decode around up to m erasures and NAK only undecodable groups.
enum class ProtocolKind {
  kAck,         // every receiver ACKs every packet
  kNakPolling,  // NAKs on gaps; periodic polled ACKs release buffers
  kRing,        // rotating token receiver ACKs; NAKs straight to the source
  kFlatTree,    // ACKs aggregated up N/H chains of height H
  kBinaryTree,  // ACKs aggregated up a binary tree rooted at receiver 0
  kEcXor,       // erasure-coded, one XOR parity per group (m = 1)
  kEcRs,        // erasure-coded, Reed-Solomon MDS parity (any m of k+m)
};

// True for the protocols that aggregate acknowledgments through a logical
// receiver tree (user-level relaying).
constexpr bool is_tree_protocol(ProtocolKind kind) {
  return kind == ProtocolKind::kFlatTree || kind == ProtocolKind::kBinaryTree;
}

// True for the erasure-coded protocols (group-structured transmission
// with parity). Prefer ProtocolRegistry's EngineTraits::fec where a
// registry is already in hand; this exists for constexpr contexts.
constexpr bool is_fec_protocol(ProtocolKind kind) {
  return kind == ProtocolKind::kEcXor || kind == ProtocolKind::kEcRs;
}

// Erasure-coding parameters, meaningful only for the FEC kinds. Both
// zero (the default) means "unset": the FEC kinds reject an unset
// configuration (recommend_config() fills in the defaults), and the ARQ
// kinds reject a *set* one — FEC knobs on a non-FEC protocol are a
// configuration error, not a silent no-op.
struct FecParams {
  // Data packets per group. Each group is erasure-coded independently;
  // the wire group-NAK bitmap caps k at 64 (fec::kMaxK).
  std::size_t k = 0;
  // Parity packets per group (1 for kEcXor; kEcRs tolerates any m losses
  // per group). k + m must fit inside the sender window.
  std::size_t m = 0;

  // Packets a receiver must buffer per group: the group's span on the
  // wire.
  constexpr std::size_t group_size() const { return k + m; }
  constexpr bool is_set() const { return k != 0 || m != 0; }

  bool operator==(const FecParams&) const = default;
};

struct ProtocolConfig {
  ProtocolKind kind = ProtocolKind::kAck;

  // Payload bytes per data packet. The UDP datagram is 12 bytes larger
  // (header); must stay within the UDP maximum.
  std::size_t packet_size = 8192;

  // Sender window in packets: at most this many unacknowledged packets are
  // outstanding (window-based flow control, Go-Back-N by default).
  std::size_t window_size = 20;

  // NAK-polling: every poll_interval-th packet carries the POLL flag and
  // is acknowledged by all receivers.
  std::size_t poll_interval = 16;

  // Flat tree: chain height H. 1 degenerates to the ACK-based protocol
  // (every receiver talks straight to the sender); N gives a single chain.
  std::size_t tree_height = 1;

  // Erasure coding (kEcXor / kEcRs only; must stay unset elsewhere).
  FecParams fec;

  // Sender-driven error control (paper §4): retransmission timeout, and
  // the suppression interval below which a packet is not retransmitted
  // again (one retransmission can serve many NAKs). The timeout restarts
  // on any acknowledgment progress and must exceed the protocol's longest
  // legitimate ACK silence — for NAK-polling that is a full poll interval
  // of data, for the ring a full token rotation — so it is deliberately
  // loose; gap-driven NAKs provide the fast recovery path, the timer only
  // backstops tail losses.
  sim::Time rto = sim::milliseconds(100);
  sim::Time suppress_interval = sim::milliseconds(10);

  // Graceful degradation (sender-side failure detection). The paper
  // assumes fault-free receivers, so a crashed receiver stalls the window
  // forever; with max_retransmit_rounds > 0 the sender counts consecutive
  // retransmission timeouts during which a tracked unit's cumulative count
  // made no progress while others did not release it, backs its RTO off
  // exponentially (rto * 2^k, capped at max_rto), and
  // after max_retransmit_rounds such rounds EVICTS the unresponsive
  // receiver from the acknowledgment roster: survivors re-form the ring /
  // tree structure, the window drains over the live set, and send()
  // completes with a per-receiver DeliveryReport instead of hanging.
  // 0 keeps the paper's fault-free semantics (wait forever).
  std::size_t max_retransmit_rounds = 0;
  sim::Time max_rto = sim::seconds(2);
  // Retransmission timeout for the buffer-allocation handshake.
  sim::Time alloc_rto = sim::milliseconds(10);

  // Extension (paper §4 discusses the trade-off): selective repeat instead
  // of Go-Back-N — receivers buffer out-of-order packets and the sender
  // retransmits only the first missing packet.
  bool selective_repeat = false;

  // Extension (paper §3 cites Pingali's receiver-side scheme as the
  // alternative to its sender-side suppression): receivers delay NAKs by a
  // uniform random backoff and also multicast them to the group; a
  // receiver overhearing a NAK that covers its own gap suppresses its own.
  // The backoff is uniform up to kNakSuppressDelay (receiver.h).
  bool multicast_nak_suppression = false;

  // Extension (paper §3: on LANs "sending a packet to one receiver costs
  // almost the same bandwidth as sending to the whole group" — but
  // multicast retransmission burns CPU at unintended receivers): answer
  // NAKs with a unicast retransmission to the complaining receiver only.
  // Timer-driven retransmissions stay multicast (the sender cannot know
  // who is missing them).
  bool unicast_nak_retransmissions = false;

  // Extension (paper §3: "flow control can either be rate-based or
  // window-based"): cap first-transmission pacing at this rate; 0 leaves
  // flow control purely window-based.
  double rate_limit_bps = 0.0;

  // Extension (SRM, Floyd et al. — the paper's reference [7]): receivers
  // that hold a NAKed packet repair it themselves after a random backoff,
  // multicasting it to the group; the sender is relieved of most
  // retransmission work and acts only as the timer-driven backstop.
  // Requires multicast_nak_suppression (repairs are triggered by
  // overheard NAKs, and NAKs then go to the group only) and
  // selective_repeat (peers resupply single packets; a Go-Back-N receiver
  // that discarded everything behind a gap would need one repair round
  // per discarded packet — SRM presumes receivers keep out-of-order
  // data, and so does this option). The repair backoff is uniform up to
  // kRepairDelay (receiver.h).
  bool peer_repair = false;

  // Extension (paper §3: "retransmission can be either sender-driven,
  // where the retransmission timer is managed at the sender, or
  // receiver-driven"): receivers with an incomplete message also arm an
  // inactivity timer and NAK when the data stream goes silent, instead of
  // waiting for the sender's (deliberately loose) timeout to notice.
  bool receiver_driven_timeouts = false;
  sim::Time receiver_timeout = sim::milliseconds(30);

  // Models the user-space copy from the application buffer into protocol
  // packets (the dominant large-message overhead in the paper's Figure 9)
  // at inet::kCopyNsPerByte. Disabling reproduces the paper's "ACK-based
  // without copy" curve, which the paper notes is not a correct protocol —
  // data handed to send() must be copied for retransmission to be safe.
  bool copy_user_data = true;

  std::string describe() const;

  bool operator==(const ProtocolConfig&) const = default;
};

// Validates a configuration against a group size; returns an error message
// or the empty string if valid. The ring protocol, for example, deadlocks
// with window_size <= n_receivers (paper §3: the window must exceed the
// receiver count), so that is rejected here rather than discovered by a
// hung run.
std::string validate(const ProtocolConfig& config, std::size_t n_receivers);

const char* protocol_name(ProtocolKind kind);

}  // namespace rmc::rmcast
