// Reliable multicast receiver — the protocol shell.
//
// Mirrors the sender: one class drives the receive side of every protocol
// family, and the per-kind acknowledgment policy lives in the kind's
// ProtocolEngine, looked up in the ProtocolRegistry by config.kind
// (paper §3):
//
//   * ACK-based — acknowledge every in-order data packet;
//   * NAK-based with polling — acknowledge only packets flagged POLL (or
//     the LAST packet); send NAKs to the sender on sequence gaps;
//   * ring — acknowledge packet k iff k mod N is this receiver's id, plus
//     the LAST packet (everyone); ACKs are unicast to the sender and NAKs
//     go straight to the source, the paper's LAN adaptations;
//   * trees (flat chains, Figure 5, or the binary baseline, Figure 4) —
//     relay cumulative ACKs toward the root at user level: a node reports
//     min(what it holds, what its children reported); the root(s) of the
//     structure report to the sender.
//
// The engine answers the per-packet acknowledgment decision (one
// on_data_event call covering in-order advances and duplicates), supplies
// the aggregation links, and names the protocol flags (data_flags) a peer
// repair or an FEC-recovered block must carry; the shell owns everything
// the policies share — Go-Back-N/selective repeat reception through one
// in-order advance, NAK pacing and suppression behind one rate limit, the
// buffer-allocation handshake (paper Figure 6), one handler for a tree
// child's ACK and ALLOC_RSP, graceful-degradation bookkeeping, the tree
// child monitor, and, when config.fec is set, the FEC groups: parity
// buffering, the MDS decode rule, one cumulative ACK per closed group and
// the GROUP_NAK fallback. Per-packet and per-group sizes come from the
// session's AllocRequest.
//
// Reception is Go-Back-N by default (out-of-order packets are dropped and
// NAKed), or selective repeat when configured (out-of-order packets are
// buffered within the window). With multicast NAK suppression enabled
// (the receiver-side scheme the paper cites as the alternative to its
// sender-side suppression), NAKs wait out a random backoff, are multicast
// to the group as well as unicast to the sender, and are suppressed
// entirely when another receiver's NAK already covers the gap.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/trace.h"
#include "rmcast/assembly.h"
#include "rmcast/config.h"
#include "rmcast/engine/engine.h"
#include "rmcast/fec/codec.h"
#include "rmcast/group.h"
#include "rmcast/stats.h"
#include "rmcast/wire.h"
#include "runtime/runtime.h"

namespace rmc::rmcast {

// NAK pacing: a receiver sends at most one NAK or GROUP_NAK per
// kNakInterval.
inline constexpr sim::Time kNakInterval = sim::milliseconds(2);
// Upper bound of the uniform NAK backoff under multicast NAK suppression.
inline constexpr sim::Time kNakSuppressDelay = sim::milliseconds(2);
// Upper bound of the uniform peer-repair backoff. It must comfortably
// exceed the time a repair takes to become visible to the other holders
// (~1.5 ms on the Figure-7 testbed), or several holders answer the same
// NAK. A repair seen for a packet holds further repairs of it off for
// 5 x kRepairDelay.
inline constexpr sim::Time kRepairDelay = sim::milliseconds(6);

class MulticastReceiver : private ReceiverOps {
 public:
  // Invoked once per completed message with the assembled bytes. The
  // Buffer may be shared by the group's receivers and is valid for the
  // call only.
  using MessageHandler = std::function<void(const Buffer& message, std::uint32_t session)>;

  // `data_socket` must be bound to the group port and joined to the group;
  // `control_socket` must be bound to membership.receiver_control[node_id].
  // Both must outlive the receiver; their handlers are installed here.
  // The receiver shares `membership` with the rest of its group (Session
  // validates the roster once and hands every endpoint the same one, so
  // N receivers hold one roster, not N copies); the by-value form
  // validates its own copy, for endpoints built by hand. Likewise the
  // receivers of one group share `assembly`, the message they assemble
  // (assembly.h); null gives this receiver a group of its own.
  MulticastReceiver(rt::Runtime& runtime, rt::UdpSocket& data_socket,
                    rt::UdpSocket& control_socket, SharedMembership membership,
                    std::size_t node_id, ProtocolConfig config,
                    std::shared_ptr<GroupAssembly> assembly = nullptr);
  MulticastReceiver(rt::Runtime& runtime, rt::UdpSocket& data_socket,
                    rt::UdpSocket& control_socket, GroupMembership membership,
                    std::size_t node_id, ProtocolConfig config);
  ~MulticastReceiver();
  MulticastReceiver(const MulticastReceiver&) = delete;
  MulticastReceiver& operator=(const MulticastReceiver&) = delete;

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

  // Optional metrics sink (may be null; not owned; must outlive the
  // receiver). Publishes the delivery-latency distribution as the
  // "receiver.delivery_latency_us" histogram: one sample per delivered
  // message, from acceptance of the session's ALLOC_REQ to delivery.
  void set_metrics(metrics::Registry* metrics) {
    delivery_latency_ =
        metrics != nullptr ? &metrics->histogram("receiver.delivery_latency_us") : nullptr;
  }
  // Causal tracing (may be null; not owned; must outlive the receiver):
  // every protocol event the receiver reports (trace::EventKind) is also
  // recorded onto `track` of `tracer`.
  void set_tracer(trace::Tracer* tracer, std::uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  std::size_t node_id() const override { return node_id_; }
  const ReceiverStats& stats() const { return stats_; }
  const ProtocolConfig& config() const { return config_; }
  const GroupMembership& membership() const { return *membership_; }

  // Graceful degradation: true once the sender announced this node's own
  // eviction (the receiver goes passive for the rest of the session).
  bool evicted_self() const { return evicted_self_; }
  // Membership churn: the receiver departs the group for good — it stops
  // acknowledging, NAKing and relaying, and cancels every pending timer.
  // There is no LEAVE packet on the wire (the paper's groups are static);
  // the sender notices the silence, evicts the node through the ordinary
  // no-progress path, and the survivors splice the ring/tree around it —
  // the exact machinery a crash exercises, minus the dead host. The
  // caller is responsible for dropping the data socket's IGMP membership
  // so snooping switches prune the port.
  void leave();
  bool left() const { return left_; }
  // Current tree links — re-formed over the live set as evict notices
  // arrive; reset to the full-roster structure on each new session.
  const TreeLinks& links() const override { return links_; }
  // Sorted node ids this receiver currently believes alive. Built lazily:
  // protocols that never consult the roster (and the common no-eviction
  // run) skip the O(N) build entirely.
  const std::vector<std::size_t>& live() const override;

 private:
  // Remaining ReceiverOps surface (the engine's view of this receiver).
  std::uint32_t expected() const override { return expected_; }
  std::uint32_t total_packets() const override { return alloc_.total_packets; }
  void send_cum_ack() override { send_ack(expected_); }
  void forward_chain_state(bool resend_allowed) override;

  void on_packet(const net::Endpoint& src, BytesView payload);
  void handle_alloc_request(const Header& h, Reader& r);
  void handle_data(const Header& h, BytesView body);
  // Tree: a child's ACK or ALLOC_RSP; reports for a future session are
  // held until its ALLOC_REQ arrives.
  void handle_child_report(const Header& h);
  void handle_foreign_nak(const Header& h);      // multicast NAK suppression
  void handle_evict(const Header& h);            // sender evicted a node
  void handle_parity(const Header& h, BytesView body);  // hybrid FEC

  // Stores the packet at the in-order point into the message assembly,
  // drains the reorder buffer under selective repeat, then reports the
  // advance (flags accumulated over everything consumed) to the engine,
  // acknowledges each FEC group it closed, and delivers a complete message.
  void advance_in_order(std::uint8_t flags, BytesView body);
  void on_duplicate(const Header& h);
  void send_ack(std::uint32_t cum);
  // The NAK and GROUP_NAK rate limit: true (and counted as suppressed)
  // while the previous one is younger than kNakInterval.
  bool nak_rate_limited();
  void want_nak();       // request a NAK, subject to rate limit / backoff
  void emit_nak();       // actually put the NAK on the wire
  void send_alloc_response();
  void deliver_if_complete();
  // Receiver-driven error control: (re)arms the inactivity timer while a
  // message is incomplete; fires a NAK after silence.
  void arm_inactivity_timer();
  // Cancels the NAK, inactivity, child-monitor and repair timers: on
  // destruction, leave() and self-eviction.
  void cancel_timers();
  // SRM-style peer repair: schedule/cancel the repair of packet `seq`
  // (which this receiver holds) in response to an overheard NAK.
  void schedule_repair(std::uint32_t seq);
  void cancel_repair(std::uint32_t seq);
  void emit_repair(std::uint32_t seq);

  // Hybrid FEC (config_.fec.is_set()). Data blocks of the group live in
  // assembly_/reorder_ as usual; only parity needs dedicated storage.
  // Data packets of the oldest incomplete group count as erased once the
  // group's repair window provably closed (parity tail seen, or anything
  // from a later group); a group whose erasures exceed its held parity
  // falls back to a GROUP_NAK naming the missing blocks.
  std::uint64_t fec_missing_bitmap(std::uint32_t group, std::size_t* n_missing) const;
  // Schedules a decode of `group` behind its modelled GF(2^8) CPU cost
  // when it is decodable; the completion re-verifies (state may shift
  // while the CPU is busy) and then reconstructs the erased blocks.
  void maybe_fec_decode(std::uint32_t group);
  void finish_fec_decode(std::uint32_t group, sim::Time started);
  // GROUP_NAK fallback, rate-limited like ordinary NAKs. `force` skips
  // the parity-still-in-flight check (inactivity: nothing more is coming).
  void want_group_nak(bool force);
  void emit_group_nak(std::uint32_t group, std::uint64_t missing,
                      std::size_t n_missing);

  net::Endpoint ack_target() const;  // sender, or tree parent
  bool is_child(std::size_t node) const;
  bool all_children_alloc_done() const;

  // Graceful degradation.
  bool eviction_enabled() const { return config_.max_retransmit_rounds > 0; }
  void reset_full_structure();   // links/alive for a fresh session
  void rebuild_tree_links();     // splice chains over the live set
  // Tree parents watch their children's progress and report a child that
  // stalls for max_retransmit_rounds monitor ticks to the sender (SUSPECT)
  // — the sender only sees the heads, never the interior nodes.
  void arm_child_monitor();
  void on_child_monitor();
  // Aggregation levels below `node` in the current live structure.
  std::size_t subtree_height(std::size_t node) const;
  // Stall rounds before `child` is reported: scaled by its subtree height
  // so the parent nearest a failure names it before any ancestor fires.
  std::size_t child_suspect_threshold(std::size_t child) const;
  void send_suspect(std::size_t child);

  // Reports one protocol event (operands per trace::EventKind): into the
  // tracer when one is attached, and always into the flight recorder.
  void emit(trace::EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0);

  rt::Runtime& rt_;
  rt::UdpSocket& data_socket_;
  rt::UdpSocket& control_socket_;
  SharedMembership membership_;
  std::size_t node_id_;
  ProtocolConfig config_;
  // Per-protocol acknowledgment policy (registry-owned singleton).
  const ProtocolEngine* engine_;
  bool is_tree_ = false;
  TreeLinks links_;
  Rng rng_;  // NAK backoff randomisation, seeded by node id

  MessageHandler handler_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t trace_track_ = 0;
  metrics::LatencyHistogram* delivery_latency_ = nullptr;
  ReceiverStats stats_;

  // Current session state.
  std::uint32_t session_ = 0;  // 0 = none yet
  bool session_active_ = false;
  sim::Time session_started_ = 0;  // when this session's ALLOC_REQ was accepted
  AllocRequest alloc_;
  // This receiver's group, and the message it assembles this session:
  // shared with the group while the bytes agree, else its own copy.
  std::shared_ptr<GroupAssembly> group_assembly_;
  std::shared_ptr<MessageAssembly> assembly_;
  std::uint32_t expected_ = 0;  // in-order point: holds all seq < expected_
  bool delivered_ = false;
  sim::Time last_nak_ = -1;
  rt::TimerId nak_timer_ = rt::kInvalidTimerId;
  rt::TimerId inactivity_timer_ = rt::kInvalidTimerId;
  // Pending peer repairs: seq -> backoff timer; and the holdoff record of
  // when each packet was last repaired (by us or anyone) so that the
  // stream of re-NAKs a still-healing receiver emits does not re-trigger
  // a fresh repair round at every holder.
  std::map<std::uint32_t, rt::TimerId> repair_timers_;
  std::map<std::uint32_t, sim::Time> repair_seen_at_;
  // Last gap we actually NAKed (peer repair): a repeat NAK for the same
  // gap means no peer repaired it, so it escalates to the sender.
  std::uint32_t last_emitted_nak_seq_ = UINT32_MAX;

  // Selective repeat reorder buffer: seq -> (flags, payload).
  std::map<std::uint32_t, std::pair<std::uint8_t, Buffer>> reorder_;

  // Hybrid FEC state (config_.fec.is_set() only; reset per session).
  // The codec is the process-wide one for (k, m) (fec::shared_codec).
  const fec::Codec* fec_codec_ = nullptr;
  // group -> (parity index -> payload); released at group close/decode.
  std::map<std::uint32_t, std::map<std::uint32_t, Buffer>> fec_parity_;
  // One decode occupies the (modelled) CPU at a time.
  bool fec_decode_inflight_ = false;
  // Groups below this provably have no more parity in flight: the sender
  // streams a group's parity right after its data, so any frame from a
  // later group — or the group's own last parity index — closes it.
  std::uint32_t fec_no_more_parity_group_ = 0;

  // Tree chain/aggregation state, keyed by peer node id (not child slot)
  // so that re-forming links_ after an eviction keeps what surviving
  // children already reported. A map, not an N-sized vector: each node
  // hears from O(degree) children, and per-receiver state that is O(N)
  // costs O(N^2) across a 10^4-receiver group.
  struct PeerState {
    bool alloc_done = false;
    std::uint32_t cum = 0;
    // Child-stall bookkeeping for the monitor tick: state as of the
    // previous tick and consecutive no-progress ticks.
    std::uint32_t monitor_cum = 0;
    bool monitor_alloc = false;
    std::uint32_t stall_rounds = 0;
  };
  using PeerMap = std::unordered_map<std::size_t, PeerState>;
  PeerMap peers_;
  PeerState& peer(std::size_t node) { return peers_[node]; }
  // Read-only view; absent peers read as the all-zero state (exactly what
  // the old vectors held for a child that never reported).
  const PeerState& peer_view(std::size_t node) const;

  std::uint32_t upstream_sent_ = 0;
  // Tree traffic that raced ahead of our ALLOC_REQ (the multicast REQ and
  // the unicast tree traffic take different paths); held for the newest
  // future session seen and moved into peers_ when that session starts.
  std::uint32_t pending_session_ = 0;
  PeerMap pending_peers_;

  // Graceful-degradation state, reset per session.
  std::vector<bool> alive_;  // indexed by node id
  // live() cache over alive_; dirtied by evict notices and session resets.
  mutable std::vector<std::size_t> live_;
  mutable bool live_dirty_ = true;
  bool evicted_self_ = false;
  bool left_ = false;  // departed the group permanently (leave())
  rt::TimerId child_monitor_timer_ = rt::kInvalidTimerId;
};

}  // namespace rmc::rmcast
