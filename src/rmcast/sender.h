// Reliable multicast sender — the protocol shell.
//
// One class drives the sender side of every protocol family, but the
// per-kind policy lives elsewhere: the kind's ProtocolEngine (looked up in
// the ProtocolRegistry by config.kind) answers who must acknowledge, which
// data packets solicit acknowledgments (and whether a timer-driven round
// must end in a forced poll), how long a stalled unit's grace period is,
// and whether tree parents may report stalled children; a ProtocolCore
// owns the machinery the paper's §4 calls common — the acknowledgment
// roster, window-based flow control, the buffer-allocation handshake
// (Figure 6), sender-driven retransmission timers with backoff/eviction,
// and the retransmission suppression that lets one retransmission answer
// many NAKs. What stays here is the shell: wire parsing, sockets, timers,
// the transmit pipeline (user-space copy modelling, pacing, the
// per-packet tx chain) and, when config.fec is set, the parity groups and
// their GROUP_NAK repairs. The message's packetization is the AllocRequest
// the handshake announces.
//
// The class is single-message: send() transfers one message reliably to
// the whole group and invokes the completion handler once every receiver
// provably holds it — or, with graceful degradation enabled
// (config.max_retransmit_rounds > 0), once every receiver has either
// acknowledged everything or been evicted for making no progress; the
// SendOutcome handed to the handler reports which. Sequential messages
// reuse the sender (sessions); for concurrent transfers use several
// groups.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "common/serial.h"
#include "common/trace.h"
#include "rmcast/config.h"
#include "rmcast/engine/core.h"
#include "rmcast/engine/engine.h"
#include "rmcast/fec/codec.h"
#include "rmcast/group.h"
#include "rmcast/report.h"
#include "rmcast/stats.h"
#include "rmcast/window.h"
#include "rmcast/wire.h"
#include "runtime/runtime.h"

namespace rmc::rmcast {

class MulticastSender {
 public:
  // Invoked exactly once per send() with the per-receiver delivery
  // report. Without graceful degradation the outcome always reads
  // all-delivered — the send would not have completed otherwise.
  using CompletionHandler = std::function<void(const SendOutcome&)>;

  // `control_socket` must be bound to membership.sender_control and stay
  // alive as long as the sender; the sender installs its receive handler.
  // The sender shares `membership` with the group's receivers (Session
  // hands every endpoint the one roster it validated); the by-value form
  // validates its own copy, for endpoints built by hand.
  MulticastSender(rt::Runtime& runtime, rt::UdpSocket& control_socket,
                  SharedMembership membership, ProtocolConfig config);
  MulticastSender(rt::Runtime& runtime, rt::UdpSocket& control_socket,
                  GroupMembership membership, ProtocolConfig config);
  ~MulticastSender();
  MulticastSender(const MulticastSender&) = delete;
  MulticastSender& operator=(const MulticastSender&) = delete;

  // Starts transferring `message` (copied unless config.copy_user_data is
  // false, in which case the caller must keep it alive — the paper's
  // deliberately incorrect "without copy" variant). Must be idle.
  void send(BytesView message, CompletionHandler on_complete);

  bool busy() const { return state_ != State::kIdle; }
  std::uint32_t session() const { return session_; }

  // Namespaces this sender's wire session ids: the next send() uses
  // base + 1, the one after base + 2, and so on. Multi-tenant runs give
  // tenant t the base (t + 1) << 16, so every packet's header carries its
  // tenant in the session's high half — which is what the per-tenant
  // trace tagger reads back out of frames inside shared switches. Must be
  // idle (a base change mid-transfer would orphan the session).
  void set_session_base(std::uint32_t base);

  // The node ids currently acknowledging directly to the sender — all
  // receivers (ACK, NAK-polling, ring), the flat-tree chain heads, or the
  // binary-tree root. Shrinks/re-forms as receivers are evicted; reset to
  // the full roster's structure on each send().
  const std::vector<std::size_t>& unit_nodes() const { return core_.unit_nodes(); }
  bool is_evicted(std::size_t node) const { return core_.is_evicted(node); }
  std::size_t n_evicted() const { return core_.n_evicted(); }
  // Current (possibly backed-off) retransmission timeout.
  sim::Time current_rto() const { return core_.current_rto; }

  // Optional metrics sink (may be null; not owned; must outlive the
  // sender). Publishes the ACK round-trip distribution as the
  // "sender.ack_rtt_us" histogram: one sample per acknowledgment that
  // advances a unit's cumulative count, measured from the newest
  // acknowledged packet's last transmission.
  void set_metrics(metrics::Registry* metrics) {
    core_.ack_rtt =
        metrics != nullptr ? &metrics->histogram("sender.ack_rtt_us") : nullptr;
  }
  // Causal tracing (may be null; not owned; must outlive the sender):
  // every protocol event the sender reports (trace::EventKind) is also
  // recorded onto `track` of `tracer`.
  void set_tracer(trace::Tracer* tracer, std::uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  const SenderStats& stats() const { return core_.stats; }
  const ProtocolConfig& config() const { return config_; }
  const GroupMembership& membership() const { return *membership_; }

  // Packets sent but not yet released by acknowledgments — what the
  // timeline sampler snapshots as the outstanding window.
  std::size_t outstanding_packets() const { return core_.window.outstanding(); }

 private:
  enum class State { kIdle, kAllocating, kSending };

  void on_packet(const net::Endpoint& src, BytesView payload);
  void on_alloc_response(const Header& h);
  void on_ack(const Header& h);
  void on_nak(const Header& h);
  void on_suspect(const Header& h);
  // Hybrid FEC fallback: a receiver names a group's missing data blocks
  // (bitmap body) and exactly those blocks are multicast back.
  void on_group_nak(const Header& h, Reader& r);

  void send_alloc_request();
  void start_data_phase();
  void pump();
  // `unicast_to` overrides the multicast destination for retransmissions
  // answering a specific receiver's NAK (config.unicast_nak_retransmissions).
  void transmit(std::uint32_t seq, bool retransmission, bool force_poll,
                const net::Endpoint* unicast_to = nullptr);
  // Go-Back-N: resends [from, next) subject to suppression; selective
  // repeat resends only `from`.
  void retransmit_from(std::uint32_t from, bool force_poll,
                       const net::Endpoint* unicast_to = nullptr);
  // Hybrid FEC: true when config.fec is set and `seq` is the final data
  // block of its group (so its tx chain must append the parity).
  bool group_closes_at(std::uint32_t seq) const;
  // Encodes and multicasts the m parity frames for `group` inside the tx
  // chain: the GF(2^8) encode occupies the host CPU (run_cost) exactly
  // like the user-space copy, then the frames go out back to back and
  // the chain resumes pump().
  void emit_group_parity(std::uint32_t group);

  void arm_rto();
  void on_rto();
  void arm_alloc_timer();
  void on_alloc_timeout();
  void complete();

  // Graceful degradation (core bookkeeping + engine policy; this shell
  // only wires the announcements).
  void evict(std::size_t node);
  void send_evict_notice(std::size_t node);
  void announce_evictions();
  void rebuild_units();

  std::uint8_t data_flags(std::uint32_t seq, bool retransmission, bool force_poll) const;

  // Reports one protocol event (operands per trace::EventKind): into the
  // tracer when one is attached, and always into the flight recorder.
  void emit(trace::EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0);

  rt::Runtime& rt_;
  rt::UdpSocket& socket_;
  SharedMembership membership_;
  ProtocolConfig config_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t trace_track_ = 0;
  // Per-protocol policy (registry-owned singleton) and the shared
  // machinery it parameterizes.
  const ProtocolEngine* engine_;
  ProtocolCore core_;
  // Hybrid FEC only (config_.fec.is_set(), else null): the process-wide
  // GF(2^8) erasure codec for (k, m), shared by every group of the
  // transfer and by every receiver coding with the same (k, m).
  const fec::Codec* fec_codec_ = nullptr;

  State state_ = State::kIdle;
  std::uint32_t session_ = 0;
  Buffer message_;
  BytesView message_view_;  // what transmit() slices (message_ or caller's)
  // The current message's packetization, as announced in ALLOC_REQ.
  AllocRequest request_;
  sim::Time send_started_ = 0;
  // True while a first-transmission copy/send chain occupies the CPU; the
  // chain claims the next packet itself when it finishes.
  bool tx_chain_active_ = false;
  // Rate-based flow control (config.rate_limit_bps): earliest time the
  // next first transmission may start, and the timer that resumes pumping.
  sim::Time next_tx_allowed_ = 0;
  rt::TimerId rate_timer_ = rt::kInvalidTimerId;
  rt::TimerId rto_timer_ = rt::kInvalidTimerId;
  rt::TimerId alloc_timer_ = rt::kInvalidTimerId;
  CompletionHandler on_complete_;
  // True while the window is full with nothing in flight to send, so the
  // stall event fires once per stall, not once per pump().
  bool window_stalled_ = false;
};

}  // namespace rmc::rmcast
