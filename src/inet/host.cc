#include "inet/host.h"

#include <algorithm>

#include "common/log.h"
#include "common/panic.h"

namespace rmc::inet {

void Socket::bind(std::uint16_t port) { port_ = port; }

void Socket::join(net::Ipv4Addr group) {
  RMC_ENSURE(group.is_multicast(), "join requires a multicast group address");
  if (groups_.insert(group).second) host_->on_join(group);
}

void Socket::leave(net::Ipv4Addr group) {
  if (groups_.erase(group) > 0) host_->on_leave(group);
}

void Socket::send_to(const net::Endpoint& dst, BytesView payload) {
  host_->send_datagram(*this, dst, net::PayloadRef::copy_of(payload));
}

void Socket::send_ref(const net::Endpoint& dst, net::PayloadRef payload) {
  host_->send_datagram(*this, dst, std::move(payload));
}

net::Endpoint Socket::local_endpoint() const { return {host_->addr(), port_}; }

Host::Host(sim::Simulator& simulator, std::string name, net::Ipv4Addr addr,
           net::MacAddr mac, HostParams params, double cpu_factor,
           ReassemblyCache& reassembly)
    : sim_(simulator),
      name_(std::move(name)),
      addr_(addr),
      mac_(mac),
      params_(params),
      send_cost_{static_cast<sim::Time>(kSendSyscall * cpu_factor),
                 kSendPerByteNs * cpu_factor,
                 static_cast<sim::Time>(kSendPerFragment * cpu_factor)},
      recv_cost_{static_cast<sim::Time>(kRecvSyscall * cpu_factor),
                 kRecvPerByteNs * cpu_factor,
                 static_cast<sim::Time>(kRecvPerFragment * cpu_factor)},
      interrupt_cost_(static_cast<sim::Time>(kInterruptPerFrame * cpu_factor)),
      reassembler_(simulator,
                   [this](Datagram d, std::size_t n_fragments) {
                     deliver(std::move(d), n_fragments);
                   },
                   &reassembly) {}

Socket* Host::open_socket() {
  auto socket = std::unique_ptr<Socket>(new Socket(this));
  socket->rcvbuf_bytes_ = params_.default_rcvbuf_bytes;
  sockets_.push_back(std::move(socket));
  return sockets_.back().get();
}

void Host::run_on_cpu(sim::Time cost, std::function<void()> fn) {
  enqueue_cpu(CpuTask{cost, std::move(fn), 0});
}

void Host::enqueue_cpu(CpuTask task) {
  cpu_queue_.push_back(std::move(task));
  if (!cpu_busy_ && !cpu_send_blocked_) start_next_cpu_task();
}

bool Host::send_space_available(std::size_t wire_bytes) const {
  const std::size_t backlog = nic_backlog_fn_ ? nic_backlog_fn_() : 0;
  if (wire_bytes > params_.default_sndbuf_bytes) {
    // A datagram larger than the whole buffer drains it completely first.
    return backlog == 0;
  }
  return backlog + wire_bytes <= params_.default_sndbuf_bytes;
}

void Host::start_next_cpu_task() {
  if (cpu_queue_.empty()) return;
  CpuTask& front = cpu_queue_.front();
  if (front.send_wire_bytes > 0 && !send_space_available(front.send_wire_bytes)) {
    // sendto() sleeps until the NIC backlog leaves room; everything queued
    // behind it (the process is single-threaded) sleeps too.
    cpu_send_blocked_ = true;
    return;
  }
  cpu_send_blocked_ = false;
  cpu_busy_ = true;
  const sim::Time start = std::max(sim_.now(), cpu_horizon_);
  const sim::Time done = start + front.cost;
  cpu_horizon_ = done;
  stats_.cpu_busy += front.cost;
  sim_.schedule_at(done, [this] {
    CpuTask task = std::move(cpu_queue_.front());
    cpu_queue_.pop_front();
    cpu_busy_ = false;
    task.fn();
    if (!cpu_busy_ && !cpu_send_blocked_) start_next_cpu_task();
  });
}

void Host::on_nic_dequeue(std::size_t /*wire_bytes*/) {
  if (cpu_send_blocked_ && !cpu_busy_) start_next_cpu_task();
}

std::uint16_t Host::ephemeral_port() {
  // Linear probe over the ephemeral range; hosts here open a handful of
  // sockets, so collisions are all but impossible.
  for (int guard = 0; guard < 16384; ++guard) {
    std::uint16_t candidate = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
    bool taken = std::any_of(sockets_.begin(), sockets_.end(),
                             [&](const auto& s) { return s->port_ == candidate; });
    if (!taken) return candidate;
  }
  RMC_PANIC("ephemeral port space exhausted");
}

namespace {

// Total wire occupancy of a UDP payload once fragmented and framed; what a
// sendto() must fit into the transmit backlog (SO_SNDBUF).
std::size_t datagram_wire_bytes(std::size_t payload_size) {
  std::size_t segment = kUdpHeaderBytes + payload_size;
  std::size_t total = 0;
  std::size_t offset = 0;
  do {
    std::size_t chunk = std::min(kIpPayloadPerFrame, segment - offset);
    std::size_t frame = std::max(net::kEthHeaderBytes + kIpHeaderBytes + chunk +
                                     net::kEthCrcBytes,
                                 net::kEthMinFrameBytes);
    total += frame + net::kEthPreambleAndIfgBytes;
    offset += chunk;
  } while (offset < segment);
  return total;
}

}  // namespace

void Host::send_datagram(Socket& socket, const net::Endpoint& dst,
                         net::PayloadRef payload) {
  RMC_ENSURE(payload.size() <= kMaxUdpPayload, "datagram exceeds UDP maximum");
  RMC_ENSURE(dst.port != 0, "destination port required");
  if (socket.port_ == 0) socket.port_ = ephemeral_port();

  const std::size_t n_fragments = fragment_count(payload.size());
  const sim::Time cost = send_cost_.of(payload.size(), n_fragments);
  ++socket.stats_.datagrams_sent;
  const std::size_t wire_bytes = datagram_wire_bytes(payload.size());

  const std::uint16_t ident = next_ident_++;
  Datagram datagram{socket.local_endpoint(), dst, std::move(payload), {}};
  datagram.payload = datagram.block.view();
  enqueue_cpu(CpuTask{cost, [this, datagram = std::move(datagram), ident, n_fragments] {
    if (down_) {
      // The process died (or was paused) before this send took effect:
      // nothing reaches the wire.
      ++stats_.frames_suppressed_down;
      return;
    }
    if (datagram.dst.addr == addr_) {
      // Local delivery: no NIC involved.
      deliver(datagram, n_fragments);
      return;
    }
    net::MacAddr dst_mac;
    if (datagram.dst.addr.is_multicast()) {
      dst_mac = net::MacAddr::from_multicast_group(datagram.dst.addr);
    } else {
      RMC_ENSURE(mac_resolver_ != nullptr, "no MAC resolver configured");
      dst_mac = mac_resolver_(datagram.dst.addr);
    }
    const std::uint32_t tag =
        tracer_ == nullptr ? 0u
                           : tracer_->tag_packet(datagram.payload.data(),
                                                 datagram.payload.size());
    fragment_datagram(datagram.src, datagram.dst, datagram.payload, ident,
                      [&](net::PayloadRef fragment) {
                        ++stats_.frames_out;
                        if (!frame_output_) return;
                        net::Frame frame = net::make_frame(dst_mac, mac_, std::move(fragment));
                        frame.trace_tag = tag;
                        frame_output_(std::move(frame));
                      });
  }, wire_bytes});
}

bool Host::accepts_mac(net::MacAddr dst) const {
  if (dst == mac_ || dst.is_broadcast()) return true;
  return dst.is_group() && joined_macs_.count(dst) > 0;
}

void Host::handle_frame(const net::Frame& frame) {
  if (down_) {
    ++stats_.frames_dropped_down;
    return;
  }
  if (!accepts_mac(frame.dst)) {
    ++stats_.frames_filtered;
    return;
  }
  ++stats_.frames_in;
  // Interrupt service: steals CPU from future work without delaying work
  // already in flight (interrupts preempt).
  cpu_horizon_ = std::max(cpu_horizon_, sim_.now()) + interrupt_cost_;
  stats_.cpu_busy += interrupt_cost_;

  reassembler_.accept(frame.payload);
}

void Host::deliver(Datagram datagram, std::size_t n_fragments) {
  // Multicast datagrams fan out to every socket joined to the group on the
  // destination port, all sharing one block; unicast delivers to the first
  // matching socket. The last match takes the datagram itself.
  Socket* previous = nullptr;
  for (auto& socket : sockets_) {
    if (socket->port_ != datagram.dst.port) continue;
    if (datagram.dst.addr.is_multicast()) {
      if (socket->groups_.count(datagram.dst.addr) == 0) continue;
    } else if (datagram.dst.addr != addr_) {
      continue;
    }
    if (previous != nullptr) enqueue_datagram(*previous, datagram, n_fragments);
    previous = socket.get();
    if (!datagram.dst.addr.is_multicast()) break;
  }
  if (previous == nullptr) {
    ++stats_.datagrams_no_socket;
    return;
  }
  enqueue_datagram(*previous, std::move(datagram), n_fragments);
}

void Host::enqueue_datagram(Socket& s, Datagram datagram, std::size_t n_fragments) {
  const std::size_t bytes = datagram.payload.size();
  if (s.pending_bytes_ + bytes > s.rcvbuf_bytes_) {
    ++s.stats_.rcvbuf_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_,
                    tracer_->tag_packet(datagram.payload.data(), bytes),
                    trace::DropCause::kRcvbufOverflow);
    }
    RMC_TRACE("%s: rcvbuf overflow on port %u", name_.c_str(), s.port_);
    return;
  }
  s.pending_bytes_ += bytes;
  s.queue_.push_back(Socket::Queued{std::move(datagram), n_fragments});

  run_on_cpu(recv_cost_.of(bytes, n_fragments), [this, sp = &s] {
    RMC_ENSURE(!sp->queue_.empty(), "socket delivery with empty queue");
    Socket::Queued item = std::move(sp->queue_.front());
    sp->queue_.pop_front();
    sp->pending_bytes_ -= item.datagram.payload.size();
    ++sp->stats_.datagrams_delivered;
    if (sp->handler_) sp->handler_(item.datagram);
  });
}

void Host::on_join(net::Ipv4Addr group) {
  auto mac = net::MacAddr::from_multicast_group(group);
  if (++joined_macs_[mac] == 1 && membership_observer_) {
    membership_observer_(mac, true);
  }
}

void Host::on_leave(net::Ipv4Addr group) {
  auto mac = net::MacAddr::from_multicast_group(group);
  auto it = joined_macs_.find(mac);
  RMC_ENSURE(it != joined_macs_.end(), "leave without matching join");
  if (--it->second == 0) {
    joined_macs_.erase(it);
    if (membership_observer_) membership_observer_(mac, false);
  }
}

}  // namespace rmc::inet
