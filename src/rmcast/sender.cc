#include "rmcast/sender.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/buffer_recycler.h"
#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/panic.h"
#include "inet/host_params.h"
#include "rmcast/engine/registry.h"

namespace rmc::rmcast {

MulticastSender::MulticastSender(rt::Runtime& runtime, rt::UdpSocket& control_socket,
                                 SharedMembership membership, ProtocolConfig config)
    : rt_(runtime),
      socket_(control_socket),
      membership_(std::move(membership)),
      config_(config),
      engine_(ProtocolRegistry::instance().entry(config_.kind).engine()),
      core_(*engine_, config_) {
  std::string config_error = validate(config_, membership_->n_receivers());
  RMC_ENSURE(config_error.empty(), config_error);

  // Hybrid FEC: one codec serves every group of every session (the
  // parity matrix depends only on k and m, both fixed per config).
  if (config_.fec.is_set()) {
    fec_codec_ = &fec::shared_codec(config_.fec.k, config_.fec.m);
  }

  core_.reset_units(membership_->n_receivers());

  socket_.set_handler([this](const net::Endpoint& src, BytesView payload) {
    on_packet(src, payload);
  });
}

MulticastSender::MulticastSender(rt::Runtime& runtime, rt::UdpSocket& control_socket,
                                 GroupMembership membership, ProtocolConfig config)
    : MulticastSender(runtime, control_socket,
                      SharedMembership(std::move(membership)),
                      std::move(config)) {}

MulticastSender::~MulticastSender() {
  rt_.disarm(rto_timer_);
  rt_.disarm(alloc_timer_);
  rt_.disarm(rate_timer_);
  BufferRecycler::instance().release(std::move(message_));
}

void MulticastSender::set_session_base(std::uint32_t base) {
  RMC_ENSURE(state_ == State::kIdle, "cannot re-base sessions mid-transfer");
  session_ = base;
}

void MulticastSender::send(BytesView message, CompletionHandler on_complete) {
  RMC_ENSURE(state_ == State::kIdle, "sender is busy");
  if (config_.copy_user_data) {
    // The user-space copy of Figure 6/9: the message must be snapshotted
    // into protocol buffers so retransmissions stay valid even if the
    // caller reuses its buffer. The modelled cost is charged per packet at
    // transmit time, where the original implementation's copy happened.
    // The snapshot buffer is recycled (see common/buffer_recycler.h).
    message_ = BufferRecycler::instance().acquire(message.size());
    if (!message.empty()) std::memcpy(message_.data(), message.data(), message.size());
    message_view_ = BytesView(message_.data(), message_.size());
  } else {
    message_view_ = message;
  }
  on_complete_ = std::move(on_complete);

  request_ = AllocRequest::for_message(message_view_.size(), config_.packet_size);
  ++session_;
  tx_chain_active_ = false;
  next_tx_allowed_ = 0;
  rt_.disarm(rate_timer_);
  state_ = State::kAllocating;
  core_.begin_send(membership_->n_receivers());
  send_started_ = rt_.now();
  send_alloc_request();
  arm_alloc_timer();
}

void MulticastSender::send_alloc_request() {
  Header h{PacketType::kAllocReq, 0, kSenderNodeId, session_, 0};
  net::ArenaWriter w(kHeaderBytes + kAllocRequestBytes);
  write_header(w, h);
  write_alloc_request(w, request_);
  ++core_.stats.alloc_requests_sent;
  emit(trace::EventKind::kAllocReq, request_.total_packets, session_);
  socket_.send_ref(membership_->group, w.take());
}

void MulticastSender::arm_alloc_timer() {
  alloc_timer_ = rt_.schedule_after(config_.alloc_rto, [this] { on_alloc_timeout(); });
}

void MulticastSender::on_alloc_timeout() {
  alloc_timer_ = rt::kInvalidTimerId;
  if (state_ != State::kAllocating) return;
  if (core_.eviction_enabled()) {
    ++core_.alloc_rounds;
    announce_evictions();
    // The handshake retries on alloc_rto, a much shorter period than the
    // data-phase RTO rounds the eviction threshold is specified in;
    // convert so a dead receiver gets the same grace in wall time (and a
    // tree parent's SUSPECT path the same head start) as mid-transfer.
    const std::size_t evict_after = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               (static_cast<double>(core_.unit_evict_threshold()) * config_.rto) /
               static_cast<double>(config_.alloc_rto)));
    if (core_.alloc_rounds >= evict_after) {
      core_.alloc_rounds = 0;  // promoted replacements get a full grace period
      std::vector<std::size_t> dead;
      for (std::size_t node : core_.unit_nodes()) {
        if (!core_.alloc_responded(node) && !core_.is_evicted(node)) {
          dead.push_back(node);
        }
      }
      for (std::size_t node : dead) {
        evict(node);
        if (state_ != State::kAllocating) return;
      }
    }
  }
  send_alloc_request();
  arm_alloc_timer();
}

void MulticastSender::on_packet(const net::Endpoint& src, BytesView payload) {
  (void)src;  // identity travels in the header; the cluster is closed
  Reader r(payload);
  auto header = read_header(r);
  if (!header) return;
  switch (header->type) {
    case PacketType::kAllocRsp:
      on_alloc_response(*header);
      break;
    case PacketType::kAck:
      on_ack(*header);
      break;
    case PacketType::kNak:
      on_nak(*header);
      break;
    case PacketType::kSuspect:
      on_suspect(*header);
      break;
    case PacketType::kGroupNak:
      on_group_nak(*header, r);
      break;
    default:
      ++core_.stats.stale_packets;
      break;
  }
}

void MulticastSender::on_alloc_response(const Header& h) {
  if (state_ != State::kAllocating || h.session != session_) {
    ++core_.stats.stale_packets;
    return;
  }
  ++core_.stats.alloc_responses_received;
  if (!core_.mark_alloc_responded(h.node_id)) return;  // duplicate or unknown
  if (core_.unit_of_node(h.node_id) < 0) return;
  if (core_.alloc_outstanding == 0) start_data_phase();
}

void MulticastSender::start_data_phase() {
  rt_.disarm(alloc_timer_);
  state_ = State::kSending;
  window_stalled_ = false;
  core_.window.reset(request_.total_packets, config_.window_size);
  core_.tracker.reset(core_.unit_nodes().size());
  pump();
  arm_rto();
}

std::uint8_t MulticastSender::data_flags(std::uint32_t seq, bool retransmission,
                                         bool force_poll) const {
  std::uint8_t flags = engine_->data_flags(seq, force_poll, config_);
  if (seq + 1 == core_.window.end()) flags |= kFlagLast;
  if (retransmission) flags |= kFlagRetrans;
  return flags;
}

void MulticastSender::pump() {
  // First transmissions are chained one packet at a time: copy the packet
  // out of the user buffer (a modelled CPU cost), hand it to the socket,
  // and only then claim the next sequence number. Claiming the whole
  // window up front would queue every copy ahead of every send on the host
  // CPU and stall the wire for the duration of the copies — the original
  // implementation's send loop interleaves copy and sendto per packet, and
  // so must this one.
  core_.stats.peak_buffered_bytes = std::max<std::uint64_t>(
      core_.stats.peak_buffered_bytes,
      std::uint64_t{core_.window.outstanding()} * config_.packet_size);
  if (tx_chain_active_) return;
  if (!core_.window.can_send()) {
    // A full window with unsent packets remaining is a flow-control stall:
    // the sender is now blocked on acknowledgments. Report only the
    // transition — pump() runs on every ACK while stalled.
    if (!window_stalled_ && seq_lt(core_.window.next(), core_.window.end())) {
      window_stalled_ = true;
      ++core_.stats.window_stalls;
      emit(trace::EventKind::kWindowStall, core_.window.base());
    }
    return;
  }
  if (window_stalled_) emit(trace::EventKind::kWindowResume, core_.window.base());
  window_stalled_ = false;
  if (config_.rate_limit_bps > 0) {
    const sim::Time now = rt_.now();
    if (now < next_tx_allowed_) {
      // Rate-based flow control: resume once the pacing interval elapses.
      if (rate_timer_ == rt::kInvalidTimerId) {
        rate_timer_ = rt_.schedule_after(next_tx_allowed_ - now, [this] {
          rate_timer_ = rt::kInvalidTimerId;
          if (state_ == State::kSending) pump();
        });
      }
      return;
    }
    const std::size_t datagram_bytes = config_.packet_size + kHeaderBytes;
    next_tx_allowed_ =
        std::max(now, next_tx_allowed_) +
        sim::transmission_time(datagram_bytes, config_.rate_limit_bps);
  }
  tx_chain_active_ = true;
  transmit(core_.window.claim_next(), /*retransmission=*/false, /*force_poll=*/false);
}

void MulticastSender::transmit(std::uint32_t seq, bool retransmission, bool force_poll,
                               const net::Endpoint* unicast_to) {
  const std::size_t len = request_.block_len(seq);
  Header h{PacketType::kData, data_flags(seq, retransmission, force_poll), kSenderNodeId,
           session_, seq};
  net::PayloadRef packet =
      make_packet_ref(h, message_view_.subspan(std::size_t{seq} * config_.packet_size, len));

  RMC_DEBUG("[%.6f] sender tx: seq=%u flags=%02x", sim::to_seconds(rt_.now()), seq,
            h.flags);
  // Unicast repairs do not count as group-wide transmissions for the
  // suppression bookkeeping.
  if (unicast_to == nullptr) core_.window.mark_sent(seq, rt_.now());
  emit(trace::EventKind::kSenderTx, seq, retransmission ? 1u : 0u);

  if (retransmission) {
    // Retransmissions resend from the protocol buffer — the user-space
    // copy happened on first transmission — so no copy cost applies.
    ++core_.stats.retransmissions;
    const net::Endpoint& dst = unicast_to != nullptr ? *unicast_to : membership_->group;
    socket_.send_ref(dst, std::move(packet));
    return;
  }

  ++core_.stats.data_packets_sent;
  auto finish = [this, seq, packet = std::move(packet)]() mutable {
    socket_.send_ref(membership_->group, std::move(packet));
    if (group_closes_at(seq)) {
      // The group's parity rides the same tx chain as its data: the
      // GF(2^8) encode occupies the CPU, the m frames go out back to
      // back, and only then does the chain resume pumping.
      emit_group_parity(seq / static_cast<std::uint32_t>(config_.fec.k));
      return;
    }
    tx_chain_active_ = false;
    if (state_ == State::kSending) pump();
  };
  if (config_.copy_user_data) {
    const auto copy_cost =
        static_cast<sim::Time>(inet::kCopyNsPerByte * static_cast<double>(len));
    rt_.run_cost(copy_cost, std::move(finish));
  } else {
    finish();
  }
}

bool MulticastSender::group_closes_at(std::uint32_t seq) const {
  if (fec_codec_ == nullptr) return false;
  const std::uint32_t k = static_cast<std::uint32_t>(config_.fec.k);
  // First transmissions are claimed sequentially, so each seq passes
  // through here exactly once; the last seq of the message closes a
  // (possibly partial) tail group.
  return (seq + 1) % k == 0 || seq + 1 == request_.total_packets;
}

void MulticastSender::emit_group_parity(std::uint32_t group) {
  const std::size_t k = config_.fec.k;
  const std::size_t m = config_.fec.m;
  const std::uint32_t first = group * static_cast<std::uint32_t>(k);
  // Parity blocks span the group's longest data block (its first).
  // Shorter tail blocks contribute as if zero-padded: folding only their
  // real bytes leaves the remainder untouched, which is exactly the
  // zero-pad's contribution.
  const std::size_t parity_len = request_.block_len(first);
  const std::size_t group_data = request_.group_blocks(group, k);

  std::vector<Buffer> parity(m);
  std::vector<std::uint8_t*> parity_ptrs(m);
  for (std::size_t j = 0; j < m; ++j) {
    parity[j].assign(parity_len, 0);
    parity_ptrs[j] = parity[j].data();
  }
  std::uint64_t folded_bytes = 0;
  for (std::size_t i = 0; i < group_data; ++i) {
    const std::uint32_t seq = first + static_cast<std::uint32_t>(i);
    const std::size_t len = request_.block_len(seq);
    if (len == 0) continue;
    fec_codec_->encode_add(i, message_view_.data() + std::size_t{seq} * config_.packet_size,
                           parity_ptrs.data(), len, fec::Backend::kWide);
    folded_bytes += std::uint64_t{len} * m;
  }

  auto finish = [this, group, parity = std::move(parity)] {
    const std::size_t m = config_.fec.m;
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t pseq =
          group * static_cast<std::uint32_t>(m) + static_cast<std::uint32_t>(j);
      Header h{PacketType::kParity, 0, kSenderNodeId, session_, pseq};
      ++core_.stats.parity_packets_sent;
      emit(trace::EventKind::kParityTx, pseq, group);
      socket_.send_ref(membership_->group, make_packet_ref(h, parity[j]));
    }
    tx_chain_active_ = false;
    if (state_ == State::kSending) pump();
  };
  rt_.run_cost(inet::fec_fold_cost(m, folded_bytes), std::move(finish));
}

void MulticastSender::on_group_nak(const Header& h, Reader& r) {
  if (state_ != State::kSending || h.session != session_ ||
      fec_codec_ == nullptr) {
    ++core_.stats.stale_packets;
    return;
  }
  auto body = read_group_nak(r);
  if (!body) {
    ++core_.stats.stale_packets;
    return;
  }
  ++core_.stats.group_naks_received;
  emit(trace::EventKind::kGroupNakRx, h.node_id, h.seq);
  const std::size_t group_data = request_.group_blocks(h.seq, config_.fec.k);
  if (group_data == 0) {
    ++core_.stats.stale_packets;
    return;
  }
  // Retransmit exactly the data blocks the bitmap names. Parity is never
  // retransmitted: once the sender is retransmitting anyway, the named
  // blocks repair the group directly.
  const sim::Time now = rt_.now();
  for (std::uint32_t seq : body->missing_seqs(h.seq, config_.fec.k, group_data)) {
    // Below the window base every unit (the complainer included) has
    // acknowledged past it — the NAK is stale; at or past next() the
    // block was never transmitted — the bitmap is garbage.
    if (seq_lt(seq, core_.window.base()) || seq_ge(seq, core_.window.next())) continue;
    if (now - core_.window.last_sent(seq) < config_.suppress_interval) {
      ++core_.stats.suppressed_retransmissions;
      continue;
    }
    transmit(seq, /*retransmission=*/true, /*force_poll=*/false);
  }
}

void MulticastSender::on_ack(const Header& h) {
  if (state_ != State::kSending || h.session != session_) {
    ++core_.stats.stale_packets;
    return;
  }
  ++core_.stats.acks_received;
  emit(trace::EventKind::kAckRx, h.node_id, h.seq);
  int unit = core_.unit_of_node(h.node_id);
  if (unit < 0 || seq_gt(h.seq, core_.window.end())) {
    ++core_.stats.stale_packets;
    return;
  }
  RMC_DEBUG("[%.6f] sender ack: node=%u cum=%u min=%u base=%u next=%u",
            sim::to_seconds(rt_.now()), h.node_id, h.seq, core_.tracker.min_cum(),
            core_.window.base(), core_.window.next());
  // A cumulative count beyond what has ever been transmitted is a
  // misbehaving peer; honour only the prefix that can be true.
  std::uint32_t cum = h.seq;
  if (seq_gt(cum, core_.window.next())) {
    ++core_.stats.stale_packets;
    cum = core_.window.next();
  }
  core_.node_cum[h.node_id] = seq_max(core_.node_cum[h.node_id], cum);
  if (!core_.tracker.on_ack(static_cast<std::size_t>(unit), cum)) return;
  // Progress: any exponential RTO backoff resets to the configured base.
  core_.current_rto = config_.rto;
  // ACK round-trip sample: from the newest acknowledged packet's last
  // transmission to now. Must be taken before release_to() slides the
  // window past cum.
  if (core_.ack_rtt != nullptr && seq_gt(cum, core_.window.base())) {
    const sim::Time sent_at = core_.window.last_sent(cum - 1);
    if (sent_at >= 0) {
      core_.ack_rtt->record_seconds(sim::to_seconds(rt_.now() - sent_at));
    }
  }
  // Any unit advancing is evidence the transfer is live: push the
  // retransmission timeout out. (Keying the timer on the *minimum* would
  // misfire under the ring's token rotation, where the minimum necessarily
  // lags a full rotation behind the newest packet.)
  arm_rto();

  if (seq_le(core_.tracker.min_cum(), core_.window.base())) return;
  core_.window.release_to(core_.tracker.min_cum());
  emit(trace::EventKind::kWindowAdvance, core_.window.base(),
       static_cast<std::uint32_t>(core_.window.outstanding()));
  if (core_.window.all_released()) {
    complete();
    return;
  }
  pump();
}

void MulticastSender::on_nak(const Header& h) {
  if (state_ != State::kSending || h.session != session_) {
    ++core_.stats.stale_packets;
    return;
  }
  ++core_.stats.naks_received;
  emit(trace::EventKind::kNakRx, h.node_id, h.seq);
  if (seq_lt(h.seq, core_.window.base()) || seq_ge(h.seq, core_.window.next())) return;
  if (config_.unicast_nak_retransmissions && h.node_id < membership_->n_receivers()) {
    // Answer only the complaining receiver; the group keeps its bandwidth
    // and, more importantly on a LAN, its CPUs (paper §3: multicast
    // retransmission makes every unintended receiver process the packet).
    const net::Endpoint dst = membership_->receiver_control[h.node_id];
    retransmit_from(h.seq, /*force_poll=*/false, &dst);
    return;
  }
  retransmit_from(h.seq, /*force_poll=*/false);
}

void MulticastSender::retransmit_from(std::uint32_t from, bool force_poll,
                                      const net::Endpoint* unicast_to) {
  const std::uint32_t end = config_.selective_repeat
                                ? seq_min(from + 1, core_.window.next())
                                : core_.window.next();
  const sim::Time now = rt_.now();
  // UINT32_MAX is a legal sequence number once the space wraps, so an
  // explicit flag (not a sentinel seq) records whether anything went out.
  bool resent_any = false;
  std::uint32_t last_resent = 0;
  for (std::uint32_t seq = from; seq_lt(seq, end); ++seq) {
    // Unicast repairs answer one receiver and do not interact with the
    // multicast suppression bookkeeping (a unicast resend to A must not
    // mask a later group-wide repair that B needs, and vice versa).
    if (unicast_to == nullptr) {
      if (now - core_.window.last_sent(seq) < config_.suppress_interval) {
        ++core_.stats.suppressed_retransmissions;
        continue;
      }
    }
    // Defer the poll flag to the last packet actually resent so one ACK
    // round answers the whole batch.
    transmit(seq, /*retransmission=*/true, /*force_poll=*/false, unicast_to);
    resent_any = true;
    last_resent = seq;
  }
  // A kind whose forced data_flags set kFlagPoll needs a timer-driven
  // round to end in a soliciting packet: resend the batch's final packet
  // once more with the poll flag if it did not already carry one.
  if (!force_poll || !resent_any) return;  // not timer-driven, or all suppressed
  const bool polls = (engine_->data_flags(last_resent, true, config_) & kFlagPoll) != 0;
  if (polls && (data_flags(last_resent, true, false) & (kFlagPoll | kFlagLast)) == 0) {
    transmit(last_resent, /*retransmission=*/true, /*force_poll=*/true, unicast_to);
  }
}

void MulticastSender::arm_rto() {
  rt_.disarm(rto_timer_);
  rto_timer_ = rt_.schedule_after(
      core_.current_rto > 0 ? core_.current_rto : config_.rto, [this] { on_rto(); });
}

void MulticastSender::on_rto() {
  rto_timer_ = rt::kInvalidTimerId;
  if (state_ != State::kSending) return;
  ++core_.stats.rto_fires;
  ++core_.rto_rounds;
  emit(trace::EventKind::kRtoFire, core_.window.base());
  RMC_DEBUG("[%.6f] sender rto: session=%u base=%u next=%u", sim::to_seconds(rt_.now()),
            session_, core_.window.base(), core_.window.next());
  if (core_.eviction_enabled()) {
    // The timer re-arms on any unit's progress, so a fire means a full
    // current_rto of silence from every tracked unit: a no-progress round.
    // Back the timeout off exponentially (the peer — or the network — is
    // not keeping up with the current pace) and charge a stall round to
    // every unit still short of what has been transmitted.
    core_.backoff_rto();
    std::vector<std::size_t> dead = core_.charge_stall_rounds(core_.window.next());
    for (std::size_t node : dead) {
      evict(node);
      if (state_ != State::kSending) return;
    }
    announce_evictions();
  }
  retransmit_from(core_.window.base(), /*force_poll=*/true);
  arm_rto();
}

void MulticastSender::send_evict_notice(std::size_t node) {
  Header h{PacketType::kEvict, 0, kSenderNodeId, session_,
           static_cast<std::uint32_t>(node)};
  socket_.send_ref(membership_->group, make_packet_ref(h));
}

void MulticastSender::announce_evictions() {
  // Evict notices ride the lossy multicast channel; re-announcing every
  // timeout round heals receivers that missed the original, the same way
  // Go-Back-N retransmission heals lost data.
  for (std::size_t node : core_.evicted_ids()) send_evict_notice(node);
}

void MulticastSender::evict(std::size_t node) {
  if (!core_.mark_evicted(node)) return;
  emit(trace::EventKind::kEvict, static_cast<std::uint32_t>(node), core_.node_cum[node]);
  RMC_DEBUG("[%.6f] sender evict: node=%zu cum=%u", sim::to_seconds(rt_.now()), node,
            core_.node_cum[node]);
  send_evict_notice(node);
  rebuild_units();
}

void MulticastSender::rebuild_units() {
  if (!core_.rebuild_units()) {
    // Nobody left to acknowledge anything: report and stop.
    complete();
    return;
  }
  if (state_ == State::kSending) {
    // Seed the re-formed tracker from what each surviving unit last
    // reported. The minimum may drop (a promoted flat-tree head reports
    // its own, smaller aggregate) — release_to is monotonic, so already
    // released packets stay released — or rise past the window base, in
    // which case the transfer resumes (or completes) right here.
    std::vector<std::uint32_t> cums;
    cums.reserve(core_.unit_nodes().size());
    for (std::size_t node : core_.unit_nodes()) cums.push_back(core_.node_cum[node]);
    core_.tracker.reset_with(std::move(cums));
    core_.window.release_to(core_.tracker.min_cum());
    if (core_.window.all_released()) {
      complete();
      return;
    }
    pump();
  } else if (state_ == State::kAllocating) {
    core_.recompute_alloc_outstanding();
    if (core_.alloc_outstanding == 0) start_data_phase();
  }
}

void MulticastSender::on_suspect(const Header& h) {
  // SUSPECT is a tree parent telling the sender its child (h.seq) has
  // stopped responding — the sender cannot see interior nodes stall, only
  // the heads that aggregate for them.
  if (!core_.eviction_enabled() || !engine_->is_tree() ||
      state_ == State::kIdle || h.session != session_) {
    ++core_.stats.stale_packets;
    return;
  }
  ++core_.stats.suspect_reports_received;
  const std::size_t node = h.seq;
  if (node >= core_.n_nodes() || core_.is_evicted(node)) return;
  emit(trace::EventKind::kSuspectRx, h.node_id, h.seq);
  evict(node);
}

void MulticastSender::complete() {
  rt_.disarm(rto_timer_);
  rt_.disarm(alloc_timer_);
  rt_.disarm(rate_timer_);
  SendOutcome outcome;
  outcome.session = session_;
  outcome.message_bytes = message_view_.size();
  outcome.total_packets = request_.total_packets;
  outcome.elapsed = rt_.now() - send_started_;
  outcome.retransmit_rounds = core_.rto_rounds;
  outcome.receivers.resize(membership_->n_receivers());
  for (std::size_t i = 0; i < outcome.receivers.size(); ++i) {
    if (core_.is_evicted(i)) {
      outcome.receivers[i] = {DeliveryStatus::kEvicted, core_.node_cum[i]};
    } else {
      outcome.receivers[i] = {DeliveryStatus::kDelivered, request_.total_packets};
    }
  }
  state_ = State::kIdle;
  ++core_.stats.messages_sent;
  emit(trace::EventKind::kComplete, session_);
  BufferRecycler::instance().release(std::exchange(message_, {}));
  message_view_ = {};
  if (on_complete_) {
    // Clear before invoking so the handler may immediately start the next
    // message.
    CompletionHandler handler = std::move(on_complete_);
    on_complete_ = nullptr;
    handler(outcome);
  }
}

void MulticastSender::emit(trace::EventKind kind, std::uint32_t a, std::uint32_t b) {
  const sim::Time now = rt_.now();
  if (tracer_) tracer_->record(now, kind, trace_track_, a, b);
  flight_recorder().record(now, "sender", trace::event_kind_name(kind), kSenderNodeId, a,
                           b);
}

}  // namespace rmc::rmcast
