// Real-socket Runtime: epoll event loop, monotonic clock, UDP multicast.
//
// This backend makes the protocol layer an actually usable reliable
// multicast library on a real Ethernet LAN — the deliverable the paper's
// introduction asks for. It is single-threaded: run() dispatches socket
// handlers and timer callbacks from one loop, so protocol code needs no
// locking on either backend.
//
// The transmit path is batched: send_to()/send_ref() enqueue onto a
// bounded per-socket TX ring of refcounted arena payloads, and the event
// loop drains rings with sendmmsg(2) right before it blocks in
// epoll_wait — one syscall per burst instead of one per datagram. Where
// the kernel supports UDP segmentation offload (UDP_SEGMENT), runs of
// same-destination equal-size datagrams at the head of the ring are
// coalesced into a single GSO super-datagram, which is what actually
// moves the needle on loopback (the per-datagram skb cost dominates the
// syscall cost there). EAGAIN/ENOBUFS arms EPOLLOUT and backpressures —
// datagrams are never silently dropped on a transient error. The receive
// path drains with recvmmsg(2) into a socket-owned slab and hands each
// datagram to the handler without an intermediate copy. This is the only
// datagram path: without GSO/GRO (or with PosixSocketOptions::gso off)
// the same sendmmsg/recvmmsg code carries one datagram per message
// header. bench/smoke.sh holds it to its purpose: bench/posix_loopback's
// 1 KiB cell must hand the kernel >= 32 datagrams per transmit syscall.
//
// Every syscall, batch size, drop and backpressure event is published
// under `posix.*` in the runtime's metrics::Registry (the names are a
// documented contract — see docs/OBSERVABILITY.md), which is what the
// sim-vs-real parity harness diffs against the simulator's run.
//
// Sockets opened through this runtime must not outlive it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "runtime/runtime.h"

namespace rmc::rt {

class PosixUdpSocket;

struct PosixSocketOptions {
  // Local bind address; unspecified means INADDR_ANY.
  net::Ipv4Addr bind_addr;
  std::uint16_t port = 0;  // 0 = ephemeral
  // Required when several processes (or sockets in one process) share a
  // multicast group port.
  bool reuse_addr = false;
  std::vector<net::Ipv4Addr> join_groups;
  // Interface for both joining and transmitting multicast. Defaults to
  // loopback so that single-machine demos and tests work out of the box;
  // set to a NIC address for a real LAN.
  net::Ipv4Addr multicast_if = net::Ipv4Addr(127, 0, 0, 1);
  int rcvbuf_bytes = 0;  // 0 = system default
  int sndbuf_bytes = 0;  // 0 = system default
  // Largest datagram the receive slab accepts; bigger ones are truncated
  // (and counted under posix.rx_truncated). The protocol's largest packet
  // is header + packet_size, far below this default.
  std::size_t max_datagram_bytes = 16384;
  // TX ring capacity in datagrams. When the ring is full the sender
  // blocks on POLLOUT until the kernel drains it (backpressure, counted),
  // rather than dropping.
  std::size_t tx_ring_capacity = 1024;
  // Allow UDP segmentation/receive offload when the kernel supports it:
  // UDP_SEGMENT coalesces same-destination TX runs into super-datagrams,
  // UDP_GRO lets the kernel hand coalesced RX runs that the drain splits
  // back into datagrams. Without them (or with this off) the same
  // sendmmsg/recvmmsg path sends and receives one datagram per mmsghdr.
  bool gso = true;
};

class PosixRuntime final : public Runtime {
 public:
  PosixRuntime();
  ~PosixRuntime() override;
  PosixRuntime(const PosixRuntime&) = delete;
  PosixRuntime& operator=(const PosixRuntime&) = delete;

  sim::Time now() override;
  TimerId schedule_after(sim::Time delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;
  // The modelled cost already happened for real on this backend.
  void run_cost(sim::Time /*cost*/, std::function<void()> fn) override { fn(); }

  // Opens and configures a UDP socket; returns null on OS error (e.g. a
  // sandbox forbidding sockets), with the errno logged.
  std::unique_ptr<UdpSocket> open_socket(const PosixSocketOptions& options);

  // Dispatches events until stop() is called.
  void run();
  // Dispatches events for at most `duration` wall time (useful in tests).
  void run_for(sim::Time duration);
  void stop() { stopped_ = true; }

  // Counters, gauges and histograms under `posix.*` — syscalls, batch
  // sizes, ring depth, drops, timer traffic. Owned by the runtime;
  // callers may merge it into a run-level registry.
  metrics::Registry& metrics() { return metrics_; }

 private:
  friend class PosixUdpSocket;

  struct FdHandlers {
    std::function<void()> on_readable;
    std::function<void()> on_writable;
  };

  void register_fd(int fd, std::function<void()> on_readable,
                   std::function<void()> on_writable);
  void unregister_fd(int fd);
  // Fires due timers; returns ms until the next one (or -1 if none).
  int fire_due_timers();
  void poll_once(int timeout_ms);

  // Deferred-flush bookkeeping: sockets with queued TX register here and
  // are drained right before the loop blocks, so a burst produced by one
  // handler invocation leaves as one sendmmsg call.
  void request_flush(PosixUdpSocket* socket);
  void forget_socket(PosixUdpSocket* socket);
  void flush_pending();
  bool in_loop() const { return in_loop_; }

  int epoll_fd_ = -1;
  bool stopped_ = false;
  bool in_loop_ = false;

  // Timer wheel: a deadline-ordered min-heap over (deadline, id) plus an
  // id -> callback map. cancel() is O(log n)-free — it just erases the
  // callback; the stale heap entry is skipped when it surfaces. Equal
  // deadlines fire in schedule order (smallest id first), matching the
  // simulator's tie-break. A dispatch round fires only timers due at its
  // start — a callback rescheduling itself at zero delay runs next round,
  // after the loop has flushed TX rings and polled sockets, so timer
  // traffic can never starve I/O.
  struct HeapEntry {
    sim::Time deadline;
    TimerId id;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.id > b.id;
    }
  };
  TimerId next_timer_id_ = 1;
  std::vector<HeapEntry> timer_heap_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;

  std::map<int, FdHandlers> fd_handlers_;
  std::vector<PosixUdpSocket*> flush_queue_;
  metrics::Registry metrics_;
};

}  // namespace rmc::rt
