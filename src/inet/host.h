// Simulated end host: UDP sockets, multicast membership, and a CPU model.
//
// Everything the reproduced paper measures at the hosts flows through this
// class. Protocol processing serializes through one CPU per host
// (run_on_cpu): a datagram send or an application delivery occupies the
// CPU for a modelled cost before taking effect, and frames that arrive
// while the CPU is backlogged wait in finite socket buffers. When a burst
// of acknowledgments outpaces the receiver's drain rate the buffer
// overflows and datagrams are dropped — the paper's loss mechanism on an
// otherwise error-free LAN, and the substance of "ACK implosion".
//
// Interrupt service per accepted frame is charged by pushing the CPU's
// free time forward without delaying already-issued work — a preempting
// interrupt, to first order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "inet/host_params.h"
#include "inet/ip.h"
#include "net/mac.h"
#include "net/tx_port.h"
#include "sim/simulator.h"

namespace rmc::inet {

class Host;

// A simulated UDP socket. Obtained from Host::open_socket(); the host owns
// it and it lives for the host's lifetime (static groups — the reproduced
// protocols never tear sockets down mid-run).
class Socket {
 public:
  using Handler = std::function<void(const Datagram&)>;

  struct Stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_delivered = 0;
    std::uint64_t rcvbuf_drops = 0;
  };

  // Binds to a local port (0 picks an ephemeral port at first send).
  void bind(std::uint16_t port);
  void join(net::Ipv4Addr group);
  void leave(net::Ipv4Addr group);
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_rcvbuf(std::size_t bytes) { rcvbuf_bytes_ = bytes; }

  // Sends a datagram; the payload is copied. Charges the host CPU and then
  // hands fragments to the NIC.
  void send_to(const net::Endpoint& dst, BytesView payload);
  // Same, taking over an arena payload instead of copying one: the
  // fragments are cut straight out of `payload`.
  void send_ref(const net::Endpoint& dst, net::PayloadRef payload);

  net::Endpoint local_endpoint() const;
  const Stats& stats() const { return stats_; }
  Host& host() { return *host_; }

 private:
  friend class Host;
  explicit Socket(Host* host) : host_(host) {}

  Host* host_;
  std::uint16_t port_ = 0;
  std::set<net::Ipv4Addr> groups_;
  Handler handler_;
  std::size_t rcvbuf_bytes_;
  std::size_t pending_bytes_ = 0;
  struct Queued {
    Datagram datagram;  // shares the delivered block; no bytes copied
    std::size_t n_fragments;
  };
  std::deque<Queued> queue_;
  Stats stats_;
};

class Host {
 public:
  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_filtered = 0;  // MAC filter rejected
    std::uint64_t frames_out = 0;
    std::uint64_t datagrams_no_socket = 0;
    std::uint64_t frames_dropped_down = 0;  // ingress while the host was down
    std::uint64_t frames_suppressed_down = 0;  // egress while the host was down
    sim::Time cpu_busy = 0;
  };

  // `cpu_factor` scales every CPU cost of host_params.h for this host (a
  // straggler's is above 1). `reassembly` is the cluster's cache of
  // finished reassemblies, shared by all its hosts (see ReassemblyCache);
  // it must outlive the host.
  Host(sim::Simulator& simulator, std::string name, net::Ipv4Addr addr, net::MacAddr mac,
       HostParams params, double cpu_factor, ReassemblyCache& reassembly);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  Socket* open_socket();

  // Fault injection: a "down" host drops every ingress frame and emits
  // nothing (crash or paused process). Already-queued CPU work still runs
  // — a dead process's timers are gone, but the model's timers belong to
  // the runtime above — its output is simply discarded at the wire, which
  // is indistinguishable from silence to every peer. Resuming (set_down
  // false) models a paused process being rescheduled.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  // Wiring: frames the host transmits go to `sink` (a switch ingress or a
  // bus station); frame_input() is what the peer delivers into.
  void set_frame_output(net::FrameSink sink) { frame_output_ = std::move(sink); }
  net::FrameSink frame_input() {
    return [this](const net::Frame& frame) { handle_frame(frame); };
  }

  // Causal tracing: stamps every outgoing frame with the tracer's packet
  // tag for the datagram it carries (all fragments share the tag) and
  // records socket receive-buffer overflows onto `track` as drops with
  // cause kRcvbufOverflow. Null detaches.
  void set_tracer(trace::Tracer* tracer, std::uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // Unicast IP -> MAC resolution (the cluster provides a static table; the
  // testbed's ARP traffic is not modelled).
  void set_mac_resolver(std::function<net::MacAddr(net::Ipv4Addr)> resolver) {
    mac_resolver_ = std::move(resolver);
  }

  // Invoked when this host's first socket joins (joined=true) or its last
  // socket leaves (joined=false) a multicast MAC — what an IGMP
  // report/leave would announce. The topology builder uses it to drive
  // switch snooping tables.
  void set_membership_observer(std::function<void(net::MacAddr, bool joined)> observer) {
    membership_observer_ = std::move(observer);
  }

  // Occupies the CPU for `cost`, then runs `fn`. Work queues FIFO behind
  // whatever the CPU is already committed to — including a sendto() that
  // is asleep waiting for socket-buffer space, exactly as in the
  // single-threaded user process the paper describes.
  void run_on_cpu(sim::Time cost, std::function<void()> fn);

  // Wire-level backpressure plumbing (set by the topology builder): how
  // many wire bytes sit in this host's transmit queue, and a notification
  // when a frame leaves it. Without these, sends never block.
  void set_nic_backlog_fn(std::function<std::size_t()> fn) {
    nic_backlog_fn_ = std::move(fn);
  }
  void on_nic_dequeue(std::size_t wire_bytes);

  const std::string& name() const { return name_; }
  net::Ipv4Addr addr() const { return addr_; }
  net::MacAddr mac() const { return mac_; }
  sim::Simulator& simulator() { return sim_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t reassembly_timeouts() const { return reassembler_.timeouts(); }

 private:
  friend class Socket;

  // CPU cost of one datagram on the send or receive path.
  struct PathCost {
    sim::Time syscall;
    double per_byte_ns;
    sim::Time per_fragment;

    sim::Time of(std::size_t bytes, std::size_t n_fragments) const {
      return syscall + static_cast<sim::Time>(per_byte_ns * static_cast<double>(bytes)) +
             static_cast<sim::Time>(n_fragments) * per_fragment;
    }
  };

  struct CpuTask {
    sim::Time cost;
    std::function<void()> fn;
    // Non-zero marks a sendto(): the task may not start until this many
    // wire bytes fit into the transmit backlog (SO_SNDBUF).
    std::size_t send_wire_bytes = 0;
  };

  void send_datagram(Socket& socket, const net::Endpoint& dst, net::PayloadRef payload);
  void handle_frame(const net::Frame& frame);
  bool accepts_mac(net::MacAddr dst) const;
  void deliver(Datagram datagram, std::size_t n_fragments);
  // Queues `datagram` on `socket` (or drops it on a full receive buffer)
  // and schedules the application's receive behind its modelled cost.
  void enqueue_datagram(Socket& socket, Datagram datagram, std::size_t n_fragments);
  void on_join(net::Ipv4Addr group);
  void on_leave(net::Ipv4Addr group);
  std::uint16_t ephemeral_port();

  void enqueue_cpu(CpuTask task);
  void start_next_cpu_task();
  bool send_space_available(std::size_t wire_bytes) const;

  sim::Simulator& sim_;
  std::string name_;
  net::Ipv4Addr addr_;
  net::MacAddr mac_;
  HostParams params_;
  // The host_params.h costs scaled by this host's CPU factor.
  PathCost send_cost_;
  PathCost recv_cost_;
  sim::Time interrupt_cost_;
  net::FrameSink frame_output_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t trace_track_ = 0;
  std::function<net::MacAddr(net::Ipv4Addr)> mac_resolver_;
  std::function<void(net::MacAddr, bool)> membership_observer_;
  std::function<std::size_t()> nic_backlog_fn_;
  std::vector<std::unique_ptr<Socket>> sockets_;
  // Joined multicast MACs with reference counts (several sockets may join
  // the same group).
  std::map<net::MacAddr, int> joined_macs_;
  Reassembler reassembler_;
  std::deque<CpuTask> cpu_queue_;
  bool cpu_busy_ = false;          // completion event outstanding
  bool cpu_send_blocked_ = false;  // front task asleep in sendto()
  // Time until which the CPU is committed (running task + interrupts).
  sim::Time cpu_horizon_ = 0;
  std::uint16_t next_ident_ = 1;
  std::uint16_t next_ephemeral_ = 49152;
  bool down_ = false;
  Stats stats_;
};

}  // namespace rmc::inet
