#include "rmcast/receiver.h"

#include <algorithm>
#include <utility>

#include "common/flight_recorder.h"
#include "common/log.h"
#include "common/panic.h"
#include "inet/host_params.h"
#include "rmcast/engine/registry.h"

namespace rmc::rmcast {

MulticastReceiver::MulticastReceiver(rt::Runtime& runtime, rt::UdpSocket& data_socket,
                                     rt::UdpSocket& control_socket,
                                     SharedMembership membership, std::size_t node_id,
                                     ProtocolConfig config,
                                     std::shared_ptr<GroupAssembly> assembly)
    : rt_(runtime),
      data_socket_(data_socket),
      control_socket_(control_socket),
      membership_(std::move(membership)),
      node_id_(node_id),
      config_(config),
      engine_(ProtocolRegistry::instance().entry(config_.kind).engine()),
      rng_(0x9E3779B9u ^ node_id),
      group_assembly_(assembly != nullptr ? std::move(assembly)
                                          : std::make_shared<GroupAssembly>()) {
  std::string config_error = validate(config_, membership_->n_receivers());
  RMC_ENSURE(config_error.empty(), config_error);
  RMC_ENSURE(node_id_ < membership_->n_receivers(), "node id out of range");

  is_tree_ = engine_->is_tree();
  if (config_.fec.is_set()) {
    fec_codec_ = &fec::shared_codec(config_.fec.k, config_.fec.m);
  }
  reset_full_structure();

  auto handler = [this](const net::Endpoint& src, BytesView payload) {
    on_packet(src, payload);
  };
  data_socket_.set_handler(handler);
  control_socket_.set_handler(handler);
}

MulticastReceiver::MulticastReceiver(rt::Runtime& runtime, rt::UdpSocket& data_socket,
                                     rt::UdpSocket& control_socket,
                                     GroupMembership membership, std::size_t node_id,
                                     ProtocolConfig config)
    : MulticastReceiver(runtime, data_socket, control_socket,
                        SharedMembership(std::move(membership)), node_id,
                        std::move(config)) {}

MulticastReceiver::~MulticastReceiver() { cancel_timers(); }

void MulticastReceiver::reset_full_structure() {
  alive_.assign(membership_->n_receivers(), true);
  live_dirty_ = true;
  evicted_self_ = false;
  if (is_tree_) {
    links_ = engine_->full_links(node_id_, membership_->n_receivers(), config_);
  }
}

void MulticastReceiver::leave() {
  if (left_) return;
  left_ = true;
  // Deactivating the session makes every in-flight completion (FEC decode,
  // repair backoff closures) a no-op: they all re-check session_active_.
  session_active_ = false;
  cancel_timers();
}

void MulticastReceiver::cancel_timers() {
  rt_.disarm(nak_timer_);
  rt_.disarm(inactivity_timer_);
  rt_.disarm(child_monitor_timer_);
  for (auto& [seq, timer] : repair_timers_) rt_.cancel(timer);
  repair_timers_.clear();
}

const std::vector<std::size_t>& MulticastReceiver::live() const {
  if (live_dirty_) {
    live_.clear();
    live_.reserve(alive_.size());
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (alive_[i]) live_.push_back(i);
    }
    live_dirty_ = false;
  }
  return live_;
}

const MulticastReceiver::PeerState& MulticastReceiver::peer_view(
    std::size_t node) const {
  static const PeerState kNeverReported{};
  auto it = peers_.find(node);
  return it == peers_.end() ? kNeverReported : it->second;
}

net::Endpoint MulticastReceiver::ack_target() const {
  if (is_tree_ && links_.has_parent) {
    return membership_->receiver_control[links_.parent];
  }
  return membership_->sender_control;
}

bool MulticastReceiver::is_child(std::size_t node) const {
  return std::find(links_.children.begin(), links_.children.end(), node) !=
         links_.children.end();
}

bool MulticastReceiver::all_children_alloc_done() const {
  return std::all_of(links_.children.begin(), links_.children.end(),
                     [this](std::size_t child) { return peer_view(child).alloc_done; });
}

void MulticastReceiver::on_packet(const net::Endpoint& src, BytesView payload) {
  (void)src;
  Reader r(payload);
  auto header = read_header(r);
  if (!header) return;
  // A departed receiver is gone for every session, current and future —
  // unlike eviction, which only covers the session that evicted it.
  if (left_) return;
  // An evicted receiver is out of the session: it must not acknowledge,
  // NAK or relay anything — survivors have restructured around it, and a
  // late ACK from it would corrupt the re-formed aggregation. It wakes up
  // again at the next session's ALLOC_REQ.
  if (evicted_self_ && header->session == session_) return;
  switch (header->type) {
    case PacketType::kAllocReq:
      handle_alloc_request(*header, r);
      break;
    case PacketType::kData:
      handle_data(*header, r.bytes(r.remaining()));
      break;
    case PacketType::kAck:
    case PacketType::kAllocRsp:
      handle_child_report(*header);
      break;
    case PacketType::kNak:
      handle_foreign_nak(*header);
      break;
    case PacketType::kEvict:
      handle_evict(*header);
      break;
    case PacketType::kParity:
      handle_parity(*header, r.bytes(r.remaining()));
      break;
    case PacketType::kSuspect:
    case PacketType::kGroupNak:
      ++stats_.stale_packets;  // sender-bound; not for receivers
      break;
  }
}

void MulticastReceiver::handle_alloc_request(const Header& h, Reader& r) {
  auto req = read_alloc_request(r);
  if (!req || !req->well_formed()) return;
  ++stats_.alloc_requests_received;

  if (h.session == session_ && session_active_) {
    // Duplicate request: the sender missed our (or our subtree's) response.
    if (!is_tree_ || all_children_alloc_done()) send_alloc_response();
    return;
  }
  if (h.session < session_) {
    ++stats_.stale_packets;
    return;
  }

  // New session: reset per-message state.
  session_ = h.session;
  session_active_ = true;
  session_started_ = rt_.now();
  alloc_ = *req;
  // Let go of the last session's assembly first: when no other receiver
  // holds it, its buffer serves this session's.
  assembly_.reset();
  assembly_ = group_assembly_->join(session_, alloc_);
  expected_ = 0;
  delivered_ = false;
  last_nak_ = -1;
  rt_.disarm(nak_timer_);
  reorder_.clear();
  fec_parity_.clear();
  fec_no_more_parity_group_ = 0;
  for (auto& [seq, timer] : repair_timers_) rt_.cancel(timer);
  repair_timers_.clear();
  repair_seen_at_.clear();
  last_emitted_nak_seq_ = UINT32_MAX;
  upstream_sent_ = 0;
  // A new session starts from the full roster and structure again, even
  // after evictions (a previously evicted — e.g. paused-and-resumed —
  // receiver rejoins here).
  reset_full_structure();
  // Per-peer state starts from the tree traffic that raced ahead of this
  // request (absent map entry == never reported).
  peers_ = pending_session_ == session_ ? std::move(pending_peers_) : PeerMap{};
  pending_session_ = 0;
  pending_peers_.clear();

  if (!is_tree_ || all_children_alloc_done()) send_alloc_response();
  if (config_.receiver_driven_timeouts) arm_inactivity_timer();
  if (eviction_enabled() && is_tree_ && !links_.children.empty()) arm_child_monitor();
}

void MulticastReceiver::send_alloc_response() {
  Header h{PacketType::kAllocRsp, 0, static_cast<std::uint16_t>(node_id_), session_, 0};
  ++stats_.alloc_responses_sent;
  control_socket_.send_ref(ack_target(), make_packet_ref(h));
}

void MulticastReceiver::handle_child_report(const Header& h) {
  if (!is_child(h.node_id)) {
    ++stats_.stale_packets;
    return;
  }
  ++stats_.relayed_acks_received;
  const bool alloc_rsp = h.type == PacketType::kAllocRsp;
  if (h.session != session_ || !session_active_) {
    // Tree traffic that raced ahead of our ALLOC_REQ: hold it for the
    // newest future session seen.
    if (h.session > session_) {
      if (h.session != pending_session_) {
        pending_session_ = h.session;
        pending_peers_.clear();
      }
      PeerState& st = pending_peers_[h.node_id];
      if (alloc_rsp) {
        st.alloc_done = true;
      } else {
        st.cum = std::max(st.cum, h.seq);
      }
    }
    return;
  }
  PeerState& st = peer(h.node_id);
  if (alloc_rsp) {
    st.alloc_done = true;
    // Forward once the whole subtree (and we) have allocated; a duplicate
    // re-forwards to heal a lost response upstream. In an active session
    // a subtree that was already done has already been answered for.
    if (all_children_alloc_done()) send_alloc_response();
    return;
  }
  const bool advanced = h.seq > st.cum;
  st.cum = std::max(st.cum, h.seq);
  // A non-advancing tree ACK is a child healing a lost ACK; pass the
  // re-ACK upstream so the repair reaches the sender.
  forward_chain_state(/*resend_allowed=*/!advanced);
}

void MulticastReceiver::handle_data(const Header& h, BytesView body) {
  if (!session_active_ || h.session != session_) {
    ++stats_.stale_packets;
    return;
  }
  if (h.seq >= alloc_.total_packets || body.size() != alloc_.block_len(h.seq)) {
    // Beyond the message, or a body that would overflow its slot or leave
    // a hole in it: nothing the sender of this session sent.
    ++stats_.stale_packets;
    return;
  }
  if (config_.receiver_driven_timeouts && !delivered_) arm_inactivity_timer();
  // Someone (sender or peer) already retransmitted this packet: our own
  // pending repair of it is redundant.
  if (config_.peer_repair && (h.flags & kFlagRetrans) != 0) cancel_repair(h.seq);
  const bool is_fec = config_.fec.is_set();
  if (is_fec) {
    // A data block from group G proves every earlier group's parity tail
    // already went by (first transmissions are in order on the wire).
    fec_no_more_parity_group_ =
        std::max(fec_no_more_parity_group_,
                 h.seq / static_cast<std::uint32_t>(config_.fec.k));
  }

  if (h.seq >= expected_) emit(trace::EventKind::kReceiverRx, h.seq, 0);
  if (h.seq == expected_) {
    advance_in_order(h.flags, body);
    // A retransmission can complete the erasure pattern of the (new)
    // oldest group without any fresh parity arriving.
    if (is_fec && !delivered_) {
      maybe_fec_decode(expected_ / static_cast<std::uint32_t>(config_.fec.k));
    }
  } else if (h.seq > expected_) {
    ++stats_.gaps_detected;
    if (config_.selective_repeat && h.seq < expected_ + config_.window_size &&
        reorder_.size() < config_.window_size) {
      reorder_.try_emplace(h.seq, h.flags, Buffer(body.begin(), body.end()));
      std::uint64_t held = 0;
      for (const auto& [seq, entry] : reorder_) held += entry.second.size();
      stats_.peak_reorder_bytes = std::max(stats_.peak_reorder_bytes, held);
    }
    if (is_fec) {
      // No per-packet NAK: parity is the first line of repair. Try the
      // block's own group (a retransmission may have completed it), then
      // fall back to a GROUP_NAK only if the oldest incomplete group is
      // provably beyond parity help.
      maybe_fec_decode(h.seq / static_cast<std::uint32_t>(config_.fec.k));
      want_group_nak(/*force=*/false);
    } else {
      // Go-Back-N discards the packet; either way, ask for the gap.
      want_nak();
    }
  } else {
    on_duplicate(h);
  }
}

void MulticastReceiver::advance_in_order(std::uint8_t flags, BytesView body) {
  DataEvent event;
  event.flags = flags;
  event.old_expected = expected_;
  auto consume = [this](BytesView data) {
    store_in_order(assembly_, expected_, data);
    ++stats_.data_packets_received;
    ++expected_;
  };
  consume(body);
  // Selective repeat: drain buffered successors.
  for (auto it = reorder_.find(expected_); it != reorder_.end();
       it = reorder_.find(expected_)) {
    event.flags |= it->second.first;
    consume(BytesView(it->second.second.data(), it->second.second.size()));
    reorder_.erase(it);
  }
  engine_->on_data_event(*this, event);
  if (config_.fec.is_set()) {
    // One cumulative ACK per group the in-order point closed, in order —
    // the EC kinds' entire steady-state ACK traffic; a short tail group
    // closes at the message end. A closed group's parity is dead weight.
    const std::uint32_t k = static_cast<std::uint32_t>(config_.fec.k);
    std::uint32_t closed_end = expected_ / k;
    if (expected_ >= alloc_.total_packets && expected_ % k != 0) ++closed_end;
    for (std::uint32_t g = event.old_expected / k; g < closed_end; ++g) {
      fec_parity_.erase(g);
      send_ack(expected_);
    }
  }
  deliver_if_complete();
}

void MulticastReceiver::on_duplicate(const Header& h) {
  ++stats_.duplicates;
  emit(trace::EventKind::kReceiverRx, h.seq, 1);
  // A retransmission of something we already hold usually means our (or a
  // peer's) acknowledgment was lost: re-acknowledge per the engine's
  // policy.
  DataEvent event;
  event.duplicate = true;
  event.flags = h.flags;
  event.seq = h.seq;
  engine_->on_data_event(*this, event);
}

void MulticastReceiver::forward_chain_state(bool resend_allowed) {
  std::uint32_t upstream = expected_;
  for (std::size_t child : links_.children) {
    upstream = std::min(upstream, peer_view(child).cum);
  }
  if (upstream > upstream_sent_ ||
      (resend_allowed && upstream == upstream_sent_ && upstream > 0)) {
    upstream_sent_ = upstream;
    send_ack(upstream);
  }
}

void MulticastReceiver::send_ack(std::uint32_t cum) {
  Header h{PacketType::kAck, 0, static_cast<std::uint16_t>(node_id_), session_, cum};
  ++stats_.acks_sent;
  emit(trace::EventKind::kAckTx, cum);
  control_socket_.send_ref(ack_target(), make_packet_ref(h));
}

bool MulticastReceiver::nak_rate_limited() {
  if (last_nak_ < 0 || rt_.now() - last_nak_ >= kNakInterval) return false;
  ++stats_.naks_suppressed;
  emit(trace::EventKind::kNakSuppressed, expected_,
       static_cast<std::uint32_t>(trace::NakSuppressReason::kRateLimited));
  return true;
}

void MulticastReceiver::want_nak() {
  if (nak_rate_limited()) return;
  if (!config_.multicast_nak_suppression) {
    last_nak_ = rt_.now();
    emit_nak();
    return;
  }
  // Receiver-side suppression: wait a random backoff; if a peer's NAK for
  // the same (or an earlier) gap arrives first, ours is cancelled.
  if (nak_timer_ != rt::kInvalidTimerId) return;  // already backing off
  const sim::Time delay = static_cast<sim::Time>(
      rng_.uniform(static_cast<std::uint64_t>(kNakSuppressDelay)) + 1);
  const std::uint32_t gap_at = expected_;
  nak_timer_ = rt_.schedule_after(delay, [this, gap_at] {
    nak_timer_ = rt::kInvalidTimerId;
    if (!session_active_ || delivered_) return;
    // If the in-order point moved during the backoff, the gap healed (or
    // is healing) — a NAK now would only provoke spurious retransmission.
    if (expected_ != gap_at) return;
    last_nak_ = rt_.now();
    emit_nak();
  });
}

void MulticastReceiver::emit_nak() {
  Header h{PacketType::kNak, 0, static_cast<std::uint16_t>(node_id_), session_, expected_};
  net::PayloadRef packet = make_packet_ref(h);
  ++stats_.naks_sent;
  emit(trace::EventKind::kNakTx, expected_);
  if (config_.peer_repair) {
    // SRM-style: the NAK goes to the group — whoever holds the packet
    // repairs it, keeping the sender out of the fast path. If this is a
    // REPEAT request for the same gap, no peer could repair it (e.g. the
    // frame died on the sender's own uplink and nobody holds it):
    // escalate to the sender.
    control_socket_.send_ref(membership_->group, packet);
    if (expected_ == last_emitted_nak_seq_) {
      control_socket_.send_ref(membership_->sender_control, std::move(packet));
    }
    last_emitted_nak_seq_ = expected_;
    return;
  }
  // Otherwise NAKs go straight to the source (the paper's ring adaptation
  // for LANs applies to all the protocols here).
  if (config_.multicast_nak_suppression) {
    // Also let the other receivers hear it, so they can suppress theirs.
    // (The sender does not join the group, hence the unicast copy above.)
    control_socket_.send_ref(membership_->sender_control, packet);
    control_socket_.send_ref(membership_->group, std::move(packet));
  } else {
    control_socket_.send_ref(membership_->sender_control, std::move(packet));
  }
}

void MulticastReceiver::handle_foreign_nak(const Header& h) {
  if (!config_.multicast_nak_suppression || h.session != session_ || !session_active_ ||
      h.node_id == node_id_) {
    ++stats_.stale_packets;
    return;
  }
  // The sender's Go-Back-N answer to this NAK will retransmit everything
  // from h.seq onward; if our own gap starts at or after that, our NAK is
  // redundant. Under selective repeat only h.seq itself is resent, so
  // suppression applies only to the identical gap.
  // SRM-style: if we already hold the packet the peer is missing, offer
  // to repair it ourselves after a short random backoff.
  if (config_.peer_repair && h.seq < expected_) schedule_repair(h.seq);
  const bool covered = config_.selective_repeat ? expected_ == h.seq : expected_ >= h.seq;
  if (covered) {
    if (rt_.disarm(nak_timer_)) {
      ++stats_.naks_suppressed;
      emit(trace::EventKind::kNakSuppressed, expected_,
           static_cast<std::uint32_t>(trace::NakSuppressReason::kPeerCovered));
    }
    last_nak_ = rt_.now();
  }
}

std::uint64_t MulticastReceiver::fec_missing_bitmap(std::uint32_t group,
                                                    std::size_t* n_missing) const {
  const std::uint32_t first = group * static_cast<std::uint32_t>(config_.fec.k);
  const std::size_t group_data = alloc_.group_blocks(group, config_.fec.k);
  std::uint64_t missing = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < group_data; ++i) {
    const std::uint32_t seq = first + static_cast<std::uint32_t>(i);
    if (seq < expected_ || reorder_.count(seq) > 0) continue;
    missing |= std::uint64_t{1} << i;
    ++count;
  }
  if (n_missing != nullptr) *n_missing = count;
  return missing;
}

void MulticastReceiver::handle_parity(const Header& h, BytesView body) {
  if (!config_.fec.is_set() || !session_active_ || h.session != session_) {
    ++stats_.stale_packets;
    return;
  }
  const std::uint32_t m = static_cast<std::uint32_t>(config_.fec.m);
  const std::uint32_t group = h.seq / m;
  const std::uint32_t index = h.seq % m;
  const std::size_t group_data = alloc_.group_blocks(group, config_.fec.k);
  if (group_data == 0) {
    ++stats_.stale_packets;
    return;
  }
  ++stats_.parity_packets_received;
  if (config_.receiver_driven_timeouts && !delivered_) arm_inactivity_timer();
  // This frame proves every earlier frame of its group already went by;
  // the group's last parity index closes its repair window entirely.
  fec_no_more_parity_group_ = std::max(
      fec_no_more_parity_group_, index + 1 == m ? group + 1 : group);
  emit(trace::EventKind::kParityRx, h.seq, group);
  const std::uint64_t group_end = std::uint64_t{group} * config_.fec.k + group_data;
  if (!delivered_ && expected_ < group_end) {
    fec_parity_[group].try_emplace(index, Buffer(body.begin(), body.end()));
  }
  maybe_fec_decode(group);
  want_group_nak(/*force=*/false);
}

void MulticastReceiver::maybe_fec_decode(std::uint32_t group) {
  if (fec_decode_inflight_ || !session_active_ || delivered_) return;
  auto pit = fec_parity_.find(group);
  if (pit == fec_parity_.end() || pit->second.empty()) return;
  std::size_t n_missing = 0;
  fec_missing_bitmap(group, &n_missing);
  if (n_missing == 0) {
    // Every data block is already held (in order or buffered): the group
    // closes by draining, and its parity is dead weight.
    fec_parity_.erase(pit);
    return;
  }
  // MDS property: any e erased data blocks decode from any e held parity
  // blocks (XOR is the m = 1 special case).
  if (n_missing > pit->second.size()) return;
  // Defer the reconstruction behind its modelled CPU cost: syndrome
  // formation folds every held block and recovery recombines the
  // erasures — about one fold per group block at the GF multiply rate
  // (memory-speed XOR for the m == 1 code). State may shift while the
  // CPU is busy (a retransmission can land, a new session can start), so
  // the completion re-verifies before touching anything.
  fec_decode_inflight_ = true;
  const std::uint32_t first = group * static_cast<std::uint32_t>(config_.fec.k);
  const sim::Time cost = inet::fec_fold_cost(
      config_.fec.m,
      std::uint64_t{alloc_.block_len(first)} * alloc_.group_blocks(group, config_.fec.k));
  const std::uint32_t sess = session_;
  const sim::Time started = rt_.now();
  rt_.run_cost(cost, [this, group, sess, started] {
    fec_decode_inflight_ = false;
    if (!session_active_ || session_ != sess || delivered_) return;
    finish_fec_decode(group, started);
  });
}

void MulticastReceiver::finish_fec_decode(std::uint32_t group, sim::Time started) {
  auto pit = fec_parity_.find(group);
  if (pit == fec_parity_.end() || pit->second.empty()) return;
  std::size_t n_missing = 0;
  const std::uint64_t missing = fec_missing_bitmap(group, &n_missing);
  if (n_missing == 0) {
    fec_parity_.erase(pit);
    return;
  }
  if (n_missing > pit->second.size()) return;

  const std::size_t k = config_.fec.k;
  const std::size_t m = config_.fec.m;
  const std::uint32_t first = group * static_cast<std::uint32_t>(k);
  const std::size_t group_data = alloc_.group_blocks(group, k);
  const std::size_t len = alloc_.block_len(first);

  // Stage all k blocks at the parity length: held blocks copy in (short
  // tail blocks zero-padded), erased blocks start zeroed as decode
  // outputs, and indices past the tail group's end are implicit zero
  // blocks (present by definition — the sender never folded them).
  std::vector<Buffer> staging(k, Buffer(len, 0));
  std::vector<std::uint8_t*> data_ptrs(k);
  bool data_present[fec::kMaxK];
  for (std::size_t i = 0; i < k; ++i) {
    data_ptrs[i] = staging[i].data();
    data_present[i] = true;
    if (i >= group_data) continue;
    const std::uint32_t seq = first + static_cast<std::uint32_t>(i);
    if ((missing >> i) & 1u) {
      data_present[i] = false;
      continue;
    }
    if (seq < expected_) {
      const std::size_t off = std::size_t{seq} * alloc_.packet_bytes;
      std::copy_n(assembly_->bytes.begin() + static_cast<std::ptrdiff_t>(off),
                  alloc_.block_len(seq), staging[i].begin());
    } else {
      const Buffer& held = reorder_.at(seq).second;
      std::copy_n(held.begin(), std::min(held.size(), len), staging[i].begin());
    }
  }
  std::vector<const std::uint8_t*> parity_ptrs(m, nullptr);
  bool parity_present[fec::kMaxM];
  std::fill(parity_present, parity_present + m, false);
  for (const auto& [index, payload] : pit->second) {
    if (index < m && payload.size() == len) {
      parity_ptrs[index] = payload.data();
      parity_present[index] = true;
    }
  }
  if (!fec_codec_->decode(data_ptrs.data(), data_present, parity_ptrs.data(),
                          parity_present, len, fec::Backend::kWide)) {
    // A malformed parity frame shrank the usable set below the erasure
    // count; the GROUP_NAK fallback takes over from here.
    return;
  }
  ++stats_.fec_decodes;
  emit(trace::EventKind::kFecDecode, group,
       static_cast<std::uint32_t>(rt_.now() - started));
  for (std::size_t i = 0; i < group_data; ++i) {
    if (((missing >> i) & 1u) == 0) continue;
    const std::uint32_t seq = first + static_cast<std::uint32_t>(i);
    std::uint8_t flags = engine_->data_flags(seq, /*force_poll=*/false, config_);
    if (seq + 1 == alloc_.total_packets) flags |= kFlagLast;
    ++stats_.fec_blocks_recovered;
    emit(trace::EventKind::kFecRecover, seq);
    reorder_.try_emplace(seq, flags,
                         Buffer(staging[i].begin(),
                                staging[i].begin() +
                                    static_cast<std::ptrdiff_t>(alloc_.block_len(seq))));
  }
  fec_parity_.erase(group);
  // The decode may have filled the in-order gap: drain through the normal
  // in-order path so acknowledgments and delivery fire exactly as if the
  // blocks had arrived on the wire. Unlike a data arrival, a finished
  // decode does not itself try the next group's decode.
  auto it = reorder_.find(expected_);
  if (it == reorder_.end()) return;
  const std::uint8_t flags = it->second.first;
  Buffer body = std::move(it->second.second);
  reorder_.erase(it);
  advance_in_order(flags, BytesView(body.data(), body.size()));
}

void MulticastReceiver::want_group_nak(bool force) {
  if (!session_active_ || delivered_) return;
  const std::uint32_t k = static_cast<std::uint32_t>(config_.fec.k);
  const std::uint32_t group = expected_ / k;  // oldest incomplete group
  if (std::uint64_t{group} * k >= alloc_.total_packets) return;
  std::size_t n_missing = 0;
  const std::uint64_t missing = fec_missing_bitmap(group, &n_missing);
  if (n_missing == 0) return;
  auto pit = fec_parity_.find(group);
  const std::size_t parity_held = pit == fec_parity_.end() ? 0 : pit->second.size();
  if (n_missing <= parity_held) {
    // Parity already here covers the erasures: decode instead of asking.
    maybe_fec_decode(group);
    return;
  }
  // Unless forced (silence: nothing more is coming), hold the NAK while
  // the group's parity tail may still be in flight.
  if (!force && group >= fec_no_more_parity_group_) return;
  if (nak_rate_limited()) return;
  last_nak_ = rt_.now();
  emit_group_nak(group, missing, n_missing);
}

void MulticastReceiver::emit_group_nak(std::uint32_t group, std::uint64_t missing,
                                       std::size_t n_missing) {
  Header h{PacketType::kGroupNak, 0, static_cast<std::uint16_t>(node_id_), session_,
           group};
  net::ArenaWriter w(kHeaderBytes + kGroupNakBytes);
  write_header(w, h);
  write_group_nak(w, GroupNak{missing});
  ++stats_.group_naks_sent;
  emit(trace::EventKind::kGroupNakTx, group, static_cast<std::uint32_t>(n_missing));
  control_socket_.send_ref(membership_->sender_control, w.take());
}

void MulticastReceiver::deliver_if_complete() {
  if (delivered_ || expected_ < alloc_.total_packets) return;
  delivered_ = true;
  rt_.disarm(inactivity_timer_);
  ++stats_.messages_delivered;
  if (delivery_latency_ != nullptr) {
    delivery_latency_->record_seconds(sim::to_seconds(rt_.now() - session_started_));
  }
  const Buffer& message = assembly_->bytes;
  emit(trace::EventKind::kDeliver, session_, static_cast<std::uint32_t>(message.size()));
  RMC_DEBUG("receiver %zu: delivered session %u (%zu bytes)", node_id_, session_,
            message.size());
  if (handler_) handler_(message, session_);
}

void MulticastReceiver::arm_inactivity_timer() {
  rt_.disarm(inactivity_timer_);
  inactivity_timer_ = rt_.schedule_after(config_.receiver_timeout, [this] {
    inactivity_timer_ = rt::kInvalidTimerId;
    if (!session_active_ || delivered_) return;
    // The stream went quiet with the message incomplete: ask for the gap
    // ourselves instead of waiting out the sender's timer. Silence means
    // no parity is coming either, so the FEC fallback is forced.
    if (config_.fec.is_set()) {
      want_group_nak(/*force=*/true);
    } else {
      want_nak();
    }
    arm_inactivity_timer();
  });
}

void MulticastReceiver::schedule_repair(std::uint32_t seq) {
  if (repair_timers_.count(seq) > 0) return;
  if (repair_timers_.size() >= 16) return;  // bound the repair state
  // Holdoff: a packet that was just repaired (by us or a peer) is in
  // flight to whoever NAKed it; further NAKs inside the window are echoes
  // of the same loss, not new ones. Without this, every re-NAK restarts a
  // repair round at every holder and the group storms itself.
  const sim::Time holdoff = 5 * kRepairDelay;
  if (auto it = repair_seen_at_.find(seq); it != repair_seen_at_.end()) {
    if (rt_.now() - it->second < holdoff) {
      ++stats_.repairs_suppressed;
      emit(trace::EventKind::kRepairSuppressed, seq);
      return;
    }
  }
  const sim::Time delay = static_cast<sim::Time>(
      rng_.uniform(static_cast<std::uint64_t>(kRepairDelay)) + 1);
  repair_timers_[seq] = rt_.schedule_after(delay, [this, seq] {
    repair_timers_.erase(seq);
    if (!session_active_ || seq >= expected_) return;
    repair_seen_at_[seq] = rt_.now();
    emit_repair(seq);
  });
}

void MulticastReceiver::cancel_repair(std::uint32_t seq) {
  // Seeing anyone's retransmission of `seq` starts the holdoff window,
  // whether or not we had a repair of our own pending.
  repair_seen_at_[seq] = rt_.now();
  auto it = repair_timers_.find(seq);
  if (it == repair_timers_.end()) return;
  rt_.cancel(it->second);
  repair_timers_.erase(it);
  ++stats_.repairs_suppressed;
  emit(trace::EventKind::kRepairSuppressed, seq);
}

void MulticastReceiver::emit_repair(std::uint32_t seq) {
  // Reconstruct the data packet from the message assembly and
  // multicast it: every receiver missing it is healed at once, and other
  // would-be repairers cancel on seeing it.
  std::uint8_t flags = kFlagRetrans;
  if (seq + 1 == alloc_.total_packets) flags |= kFlagLast;
  // Reconstruct the deterministic protocol flags (NAK-polling's POLL bit):
  // a repaired poll packet must still solicit the acknowledgments the
  // sender's buffer release waits for, or the repair fixes the receivers
  // while the sender times out.
  flags |= engine_->data_flags(seq, /*force_poll=*/false, config_);
  Header h{PacketType::kData, flags, static_cast<std::uint16_t>(node_id_), session_, seq};
  const BytesView body(assembly_->bytes.data() + std::size_t{seq} * alloc_.packet_bytes,
                       alloc_.block_len(seq));
  ++stats_.repairs_sent;
  emit(trace::EventKind::kRepairTx, seq);
  control_socket_.send_ref(membership_->group, make_packet_ref(h, body));
}

void MulticastReceiver::handle_evict(const Header& h) {
  if (!eviction_enabled() || !session_active_ || h.session != session_) {
    ++stats_.stale_packets;
    return;
  }
  const std::size_t node = h.seq;
  if (node >= alive_.size() || !alive_[node]) return;  // duplicate notice
  ++stats_.evict_notices_received;
  alive_[node] = false;
  live_dirty_ = true;
  emit(trace::EventKind::kEvictRx, static_cast<std::uint32_t>(node));
  if (node == node_id_) {
    // That's us. Go passive: cancel every timer and stop talking — the
    // survivors have already restructured around this node, and any late
    // ACK or NAK from it would corrupt their re-formed aggregation.
    evicted_self_ = true;
    cancel_timers();
    return;
  }
  if (is_tree_) {
    rebuild_tree_links();
    ++stats_.structure_reforms;
  } else if (engine_->reforms_on_evict()) {
    // The ring's token rule consults live_ directly; nothing to rebuild.
    ++stats_.structure_reforms;
  }
}

void MulticastReceiver::rebuild_tree_links() {
  links_ = engine_->live_links(node_id_, live(), config_);
  // The parent may be new (a splice re-points us at the dead node's
  // predecessor, or promotes us to report to the sender): it has no record
  // of what we reported before, so start the upstream watermark over and
  // push our current aggregate at it. Missing state heals the same way as
  // lost ACKs — Go-Back-N retransmissions make leaves re-acknowledge, and
  // the re-ACKs cascade up the re-formed chain.
  upstream_sent_ = 0;
  // A splice changes who is accountable for what: give every child a fresh
  // stall budget against the re-formed structure.
  for (auto& [node, st] : peers_) st.stall_rounds = 0;
  if (all_children_alloc_done()) {
    send_alloc_response();
  }
  forward_chain_state(/*resend_allowed=*/true);
  if (eviction_enabled() && !links_.children.empty() &&
      child_monitor_timer_ == rt::kInvalidTimerId) {
    arm_child_monitor();
  }
}

void MulticastReceiver::arm_child_monitor() {
  rt_.disarm(child_monitor_timer_);
  child_monitor_timer_ = rt_.schedule_after(config_.rto, [this] {
    child_monitor_timer_ = rt::kInvalidTimerId;
    on_child_monitor();
  });
}

void MulticastReceiver::on_child_monitor() {
  if (!session_active_ || evicted_self_ || links_.children.empty()) return;
  // Stop ticking once the whole subtree has everything — nothing below us
  // can stall a finished transfer (and an idle simulation must drain).
  bool subtree_done = delivered_;
  for (std::size_t child : links_.children) {
    if (peer_view(child).cum < alloc_.total_packets) subtree_done = false;
  }
  if (subtree_done) return;
  for (std::size_t child : links_.children) {
    PeerState& st = peer(child);
    const bool changed =
        st.cum != st.monitor_cum || st.alloc_done != st.monitor_alloc;
    // A child is only suspect while it is the one holding us back: before
    // its allocation confirmation, or while its cumulative count trails
    // what we already hold (if it matches us, the stall is upstream).
    const bool blocking = !st.alloc_done || st.cum < expected_;
    if (changed) {
      st.stall_rounds = 0;
    } else if (blocking) {
      ++st.stall_rounds;
    }
    st.monitor_cum = st.cum;
    st.monitor_alloc = st.alloc_done;
    if (st.stall_rounds >= child_suspect_threshold(child)) {
      // Repeat every tick until the sender's EVICT notice arrives and the
      // splice removes the child from links_.
      send_suspect(child);
    }
  }
  arm_child_monitor();
}

std::size_t MulticastReceiver::subtree_height(std::size_t node) const {
  TreeLinks links = engine_->live_links(node, live(), config_);
  std::size_t height = 0;
  for (std::size_t child : links.children) {
    height = std::max(height, 1 + subtree_height(child));
  }
  return height;
}

std::size_t MulticastReceiver::child_suspect_threshold(std::size_t child) const {
  // A leaf's silence is definitive; a subtree root's stall may be
  // secondhand (its own child died). Waiting one extra stall budget per
  // level below the child lets the parent closest to the failure name it
  // first — otherwise every ancestor up the path (and the sender) would
  // reach its threshold on the same tick and evict live interior nodes
  // along with the dead one.
  return config_.max_retransmit_rounds * (1 + subtree_height(child));
}

void MulticastReceiver::send_suspect(std::size_t child) {
  Header h{PacketType::kSuspect, 0, static_cast<std::uint16_t>(node_id_), session_,
           static_cast<std::uint32_t>(child)};
  ++stats_.suspects_sent;
  emit(trace::EventKind::kSuspectTx, static_cast<std::uint32_t>(child));
  control_socket_.send_ref(membership_->sender_control, make_packet_ref(h));
}

void MulticastReceiver::emit(trace::EventKind kind, std::uint32_t a, std::uint32_t b) {
  const sim::Time now = rt_.now();
  if (tracer_) tracer_->record(now, kind, trace_track_, a, b);
  flight_recorder().record(now, "receiver", trace::event_kind_name(kind),
                           static_cast<std::uint32_t>(node_id_), a, b);
}

}  // namespace rmc::rmcast
