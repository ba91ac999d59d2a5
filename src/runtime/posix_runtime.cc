#include "runtime/posix_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <deque>

#include "common/log.h"
#include "common/panic.h"

namespace rmc::rt {

namespace {

sockaddr_in to_sockaddr(const net::Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.addr.bits());
  sa.sin_port = htons(ep.port);
  return sa;
}

net::Endpoint from_sockaddr(const sockaddr_in& sa) {
  return net::Endpoint{net::Ipv4Addr(ntohl(sa.sin_addr.s_addr)), ntohs(sa.sin_port)};
}

bool same_dest(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

bool transient_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS;
}

// Probe UDP segmentation offload support: a zero UDP_SEGMENT is a no-op
// when the kernel has the option and ENOPROTOOPT/EINVAL when it does not.
bool probe_gso(int fd) {
#ifdef UDP_SEGMENT
  int zero = 0;
  return ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &zero, sizeof zero) == 0;
#else
  (void)fd;
  return false;
#endif
}

// Enable generic receive offload: the kernel hands bursts of
// same-source equal-size datagrams as one coalesced buffer plus a
// UDP_GRO cmsg carrying the segment size, and the drain splits them
// back out. Succeeding here both probes and turns the option on.
bool enable_gro(int fd) {
#ifdef UDP_GRO
  int one = 1;
  return ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof one) == 0;
#else
  (void)fd;
  return false;
#endif
}

constexpr unsigned kTxBatch = 64;        // mmsghdrs per sendmmsg call
constexpr std::size_t kTxIovecs = 1024;  // datagrams per sendmmsg call
constexpr std::size_t kMaxGsoSegments = 64;
constexpr std::size_t kMaxGsoBytes = 65507;  // one UDP datagram
constexpr std::size_t kMaxGroBytes = 65535;  // largest coalesced RX buffer
constexpr unsigned kRxBatch = 32;            // slab slots per recvmmsg call
constexpr sim::Time kWarnIntervalNs = 1'000'000'000;

}  // namespace

class PosixUdpSocket final : public UdpSocket {
 public:
  PosixUdpSocket(PosixRuntime* runtime, int fd, const PosixSocketOptions& options,
                 bool gso_supported, bool gro_enabled)
      : runtime_(runtime),
        fd_(fd),
        gso_enabled_(options.gso && gso_supported),
        gro_enabled_(gro_enabled),
        max_datagram_bytes_(std::max<std::size_t>(options.max_datagram_bytes, 1)),
        // With GRO on, one slab slot must hold a full coalesced
        // super-datagram, not just one protocol datagram.
        rx_stride_(gro_enabled_ ? kMaxGroBytes : max_datagram_bytes_),
        tx_ring_capacity_(std::max<std::size_t>(options.tx_ring_capacity, 1)),
        rx_slab_(static_cast<std::size_t>(kRxBatch) * rx_stride_),
        rx_msgs_(kRxBatch),
        rx_addrs_(kRxBatch),
        rx_cmsg_(kRxBatch),
        tx_msgs_(kTxBatch),
        tx_cmsg_(kTxBatch),
        tx_msg_entries_(kTxBatch),
        tx_iovs_(kTxIovecs),
        c_sendmmsg_(runtime->metrics().counter("posix.sendmmsg_calls")),
        c_recvmmsg_(runtime->metrics().counter("posix.recvmmsg_calls")),
        c_tx_datagrams_(runtime->metrics().counter("posix.datagrams_sent")),
        c_rx_datagrams_(runtime->metrics().counter("posix.datagrams_received")),
        c_gso_(runtime->metrics().counter("posix.gso_superframes")),
        c_gro_(runtime->metrics().counter("posix.gro_superframes")),
        c_send_errors_(runtime->metrics().counter("posix.send_errors")),
        c_ring_drops_(runtime->metrics().counter("posix.tx_ring_drops")),
        c_backpressure_(runtime->metrics().counter("posix.tx_backpressure")),
        c_rx_truncated_(runtime->metrics().counter("posix.rx_truncated")),
        g_ring_hwm_(runtime->metrics().gauge("posix.tx_ring_depth_hwm")),
        h_tx_batch_(runtime->metrics().histogram("posix.tx_batch_datagrams")),
        h_rx_batch_(runtime->metrics().histogram("posix.rx_batch_datagrams")) {
    runtime_->register_fd(
        fd_, [this] { drain(); }, [this] { on_writable(); });
  }

  ~PosixUdpSocket() override {
    // Best-effort: push out whatever the protocol queued. A full kernel
    // buffer at teardown is not worth blocking on.
    if (!tx_ring_.empty()) flush();
    runtime_->forget_socket(this);
    runtime_->unregister_fd(fd_);
    ::close(fd_);
  }

  void send_to(const net::Endpoint& dst, BytesView payload) override {
    enqueue(to_sockaddr(dst), net::PayloadRef::copy_of(payload));
  }

  void send_ref(const net::Endpoint& dst, net::PayloadRef payload) override {
    enqueue(to_sockaddr(dst), std::move(payload));
  }

  void set_handler(Handler handler) override { handler_ = std::move(handler); }

  net::Endpoint local_endpoint() const override {
    sockaddr_in sa{};
    socklen_t len = sizeof sa;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return {};
    return from_sockaddr(sa);
  }

  // Drains the TX ring; returns true when empty. On a transient kernel
  // refusal it arms EPOLLOUT and returns false — the loop resumes the
  // flush when the socket turns writable.
  bool flush() {
    while (!tx_ring_.empty()) {
      if (!flush_batch()) return false;
    }
    disarm_epollout();
    return true;
  }

  bool flush_requested_ = false;

 private:
  struct TxEntry {
    net::PayloadRef payload;
    sockaddr_in dst;
  };
  struct CmsgBuf {
    alignas(cmsghdr) char bytes[CMSG_SPACE(sizeof(std::uint16_t))];
  };

  void enqueue(const sockaddr_in& dst, net::PayloadRef payload) {
    if (tx_ring_.size() >= tx_ring_capacity_) backpressure();
    tx_ring_.push_back(TxEntry{std::move(payload), dst});
    g_ring_hwm_.set_max(static_cast<double>(tx_ring_.size()));
    if (runtime_->in_loop()) {
      // Defer: the loop flushes right before it blocks, so every send a
      // handler produces in one wakeup leaves in one sendmmsg call.
      runtime_->request_flush(this);
    } else {
      // Outside the loop nothing would ever drain the ring — keep the
      // old synchronous semantics.
      flush();
    }
  }

  // Ring full: block on POLLOUT until the kernel makes room. Bounded so a
  // wedged peer cannot hang the process forever; past the bound the
  // oldest datagram is dropped (counted) to stay live.
  void backpressure() {
    c_backpressure_.inc();
    for (int spin = 0; spin < 50; ++spin) {
      if (flush() || tx_ring_.size() < tx_ring_capacity_) return;
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 100);
    }
    tx_ring_.pop_front();
    c_ring_drops_.inc();
    warn_rate_limited("tx ring full for 5s, dropping oldest datagram");
  }

  // One sendmmsg(2) call over the head of the ring. Head runs of
  // same-destination datagrams — equal-size, with one optional short
  // tail — collapse into a single GSO super-datagram when the kernel
  // supports UDP_SEGMENT; everything else goes as one mmsghdr per
  // datagram with the payload iovec pointing straight at the arena
  // block the protocol serialized into. Returns false when the kernel
  // pushed back (EPOLLOUT armed).
  bool flush_batch() {
    unsigned nmsgs = 0;
    std::size_t iov_used = 0;
    std::size_t entry = 0;
    const std::size_t ring = tx_ring_.size();
    while (entry < ring && nmsgs < kTxBatch && iov_used < kTxIovecs) {
      TxEntry& head = tx_ring_[entry];
      const std::size_t seg = head.payload.size();
      std::size_t run = 1;
      if (gso_enabled_ && seg > 0) {
        std::size_t total = seg;
        while (entry + run < ring && run < kMaxGsoSegments &&
               iov_used + run < kTxIovecs) {
          const TxEntry& next = tx_ring_[entry + run];
          const std::size_t s = next.payload.size();
          if (!same_dest(next.dst, head.dst) || s > seg || s == 0 ||
              total + s > kMaxGsoBytes) {
            break;
          }
          total += s;
          ++run;
          if (s < seg) break;  // a short segment must be the last one
        }
      }
      mmsghdr& mm = tx_msgs_[nmsgs];
      std::memset(&mm, 0, sizeof mm);
      mm.msg_hdr.msg_name = &head.dst;
      mm.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      mm.msg_hdr.msg_iov = &tx_iovs_[iov_used];
      mm.msg_hdr.msg_iovlen = run;
      for (std::size_t j = 0; j < run; ++j) {
        const TxEntry& e = tx_ring_[entry + j];
        tx_iovs_[iov_used + j].iov_base =
            const_cast<std::uint8_t*>(e.payload.data());
        tx_iovs_[iov_used + j].iov_len = e.payload.size();
      }
#ifdef UDP_SEGMENT
      if (run > 1) {
        CmsgBuf& cbuf = tx_cmsg_[nmsgs];
        std::memset(cbuf.bytes, 0, sizeof cbuf.bytes);
        mm.msg_hdr.msg_control = cbuf.bytes;
        mm.msg_hdr.msg_controllen = sizeof cbuf.bytes;
        cmsghdr* cm = CMSG_FIRSTHDR(&mm.msg_hdr);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto seg16 = static_cast<std::uint16_t>(seg);
        std::memcpy(CMSG_DATA(cm), &seg16, sizeof seg16);
      }
#endif
      tx_msg_entries_[nmsgs] = run;
      iov_used += run;
      entry += run;
      ++nmsgs;
    }

    const int ret = ::sendmmsg(fd_, tx_msgs_.data(), nmsgs, 0);
    if (ret < 0) {
      if (transient_errno(errno)) {
        c_backpressure_.inc();
        arm_epollout();
        return false;
      }
      if (tx_msg_entries_[0] > 1) {
        // The first message was a GSO super-datagram and the kernel
        // rejected it outright — stop coalescing and resend plain.
        gso_enabled_ = false;
        warn_rate_limited("kernel rejected UDP_SEGMENT, disabling GSO");
        return true;
      }
      drop_head(tx_msg_entries_[0]);
      return true;
    }
    c_sendmmsg_.inc();
    std::size_t sent = 0;
    std::uint64_t superframes = 0;
    for (int i = 0; i < ret; ++i) {
      sent += tx_msg_entries_[i];
      if (tx_msg_entries_[i] > 1) ++superframes;
    }
    c_tx_datagrams_.inc(sent);
    if (superframes > 0) c_gso_.inc(superframes);
    h_tx_batch_.record(static_cast<double>(sent));
    tx_ring_.erase(tx_ring_.begin(),
                   tx_ring_.begin() + static_cast<std::ptrdiff_t>(sent));
    return true;
  }

  // A hard errno on the head message: that datagram is undeliverable
  // (EMSGSIZE, ECONNREFUSED, no route...). Drop it — and only it — so
  // the rest of the ring still flows.
  void drop_head(std::size_t n_entries) {
    const int err = errno;
    n_entries = std::min(n_entries, tx_ring_.size());
    tx_ring_.erase(tx_ring_.begin(),
                   tx_ring_.begin() + static_cast<std::ptrdiff_t>(n_entries));
    c_send_errors_.inc(n_entries);
    warn_rate_limited(std::strerror(err));
  }

  void on_writable() {
    if (flush()) disarm_epollout();
  }

  void arm_epollout() {
    if (epollout_armed_) return;
    epollout_armed_ = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd_;
    ::epoll_ctl(runtime_->epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
  }

  void disarm_epollout() {
    if (!epollout_armed_) return;
    epollout_armed_ = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd_;
    ::epoll_ctl(runtime_->epoll_fd_, EPOLL_CTL_MOD, fd_, &ev);
  }

  // recvmmsg(2) into the socket's slab: up to kRxBatch datagrams per
  // syscall, each handed to the handler as a view into its slab slot —
  // no per-datagram stack buffer or copy. With GRO on, a slot may carry
  // a kernel-coalesced run of equal-size same-source datagrams (the
  // UDP_GRO cmsg gives the segment size); the loop splits it back into
  // the original datagrams, still without copying.
  void drain() {
    for (;;) {
      for (unsigned i = 0; i < kRxBatch; ++i) {
        rx_iov_scratch_[i].iov_base = rx_slab_.data() + i * rx_stride_;
        rx_iov_scratch_[i].iov_len = rx_stride_;
        mmsghdr& mm = rx_msgs_[i];
        std::memset(&mm, 0, sizeof mm);
        mm.msg_hdr.msg_name = &rx_addrs_[i];
        mm.msg_hdr.msg_namelen = sizeof(sockaddr_in);
        mm.msg_hdr.msg_iov = &rx_iov_scratch_[i];
        mm.msg_hdr.msg_iovlen = 1;
        if (gro_enabled_) {
          mm.msg_hdr.msg_control = rx_cmsg_[i].bytes;
          mm.msg_hdr.msg_controllen = sizeof rx_cmsg_[i].bytes;
        }
      }
      const int n = ::recvmmsg(fd_, rx_msgs_.data(), kRxBatch, MSG_DONTWAIT, nullptr);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        warn_rate_limited(std::strerror(errno));
        return;
      }
      c_recvmmsg_.inc();
      std::uint64_t datagrams = 0;
      for (int i = 0; i < n; ++i) {
        if ((rx_msgs_[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
          c_rx_truncated_.inc();
          warn_rate_limited("datagram larger than max_datagram_bytes truncated");
        }
        const std::uint8_t* base = rx_slab_.data() + i * rx_stride_;
        const std::size_t len = rx_msgs_[i].msg_len;
        const std::size_t seg = gro_segment_size(rx_msgs_[i].msg_hdr, len);
        const net::Endpoint src = from_sockaddr(rx_addrs_[i]);
        if (len > seg) c_gro_.inc();
        std::size_t off = 0;
        do {
          const std::size_t chunk = std::min(seg, len - off);
          ++datagrams;
          if (handler_) handler_(src, BytesView(base + off, chunk));
          off += chunk;
        } while (off < len);
      }
      c_rx_datagrams_.inc(datagrams);
      h_rx_batch_.record(static_cast<double>(datagrams));
      if (n < static_cast<int>(kRxBatch)) return;
    }
  }

  // The datagram size inside a possibly-coalesced receive: the UDP_GRO
  // cmsg's segment size when the kernel glued a run together, otherwise
  // the buffer length itself (one plain datagram).
  std::size_t gro_segment_size(msghdr& hdr, std::size_t len) {
#ifdef UDP_GRO
    if (gro_enabled_) {
      for (cmsghdr* c = CMSG_FIRSTHDR(&hdr); c != nullptr; c = CMSG_NXTHDR(&hdr, c)) {
        if (c->cmsg_level != SOL_UDP || c->cmsg_type != UDP_GRO) continue;
        int seg = 0;
        std::memcpy(&seg, CMSG_DATA(c), sizeof seg);
        if (seg > 0) return static_cast<std::size_t>(seg);
      }
    }
#else
    (void)hdr;
#endif
    return len > 0 ? len : 1;
  }

  // One warning per second per socket; everything in between is counted,
  // not printed, so a dead peer cannot flood the log at line rate.
  void warn_rate_limited(const char* what) {
    const sim::Time t = runtime_->now();
    ++warns_suppressed_;
    if (last_warn_ns_ != 0 && t - last_warn_ns_ < kWarnIntervalNs) return;
    RMC_WARN("udp socket (fd %d): %s (%llu events since last report)", fd_, what,
             static_cast<unsigned long long>(warns_suppressed_));
    last_warn_ns_ = t;
    warns_suppressed_ = 0;
  }

  struct RxCmsgBuf {
    alignas(cmsghdr) char bytes[CMSG_SPACE(sizeof(int))];
  };

  PosixRuntime* runtime_;
  int fd_;
  bool gso_enabled_;
  bool gro_enabled_;
  bool epollout_armed_ = false;
  std::size_t max_datagram_bytes_;
  std::size_t rx_stride_;  // slab slot size: max_datagram_bytes_, or a GRO buffer
  std::size_t tx_ring_capacity_;
  Handler handler_;

  std::deque<TxEntry> tx_ring_;
  std::vector<std::uint8_t> rx_slab_;
  std::vector<mmsghdr> rx_msgs_;
  std::vector<sockaddr_in> rx_addrs_;
  std::vector<RxCmsgBuf> rx_cmsg_;
  std::array<iovec, kRxBatch> rx_iov_scratch_{};
  std::vector<mmsghdr> tx_msgs_;
  std::vector<CmsgBuf> tx_cmsg_;
  std::vector<std::size_t> tx_msg_entries_;
  std::vector<iovec> tx_iovs_;

  sim::Time last_warn_ns_ = 0;
  std::uint64_t warns_suppressed_ = 0;

  // Metric handles resolved once at construction — references into the
  // runtime's Registry are stable (node-based maps), and the TX path
  // must not pay a string lookup per datagram.
  metrics::CounterMetric& c_sendmmsg_;
  metrics::CounterMetric& c_recvmmsg_;
  metrics::CounterMetric& c_tx_datagrams_;
  metrics::CounterMetric& c_rx_datagrams_;
  metrics::CounterMetric& c_gso_;
  metrics::CounterMetric& c_gro_;
  metrics::CounterMetric& c_send_errors_;
  metrics::CounterMetric& c_ring_drops_;
  metrics::CounterMetric& c_backpressure_;
  metrics::CounterMetric& c_rx_truncated_;
  metrics::Gauge& g_ring_hwm_;
  metrics::LatencyHistogram& h_tx_batch_;
  metrics::LatencyHistogram& h_rx_batch_;
};

PosixRuntime::PosixRuntime() {
  epoll_fd_ = ::epoll_create1(0);
  RMC_ENSURE(epoll_fd_ >= 0, "epoll_create1 failed");
}

PosixRuntime::~PosixRuntime() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

sim::Time PosixRuntime::now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

TimerId PosixRuntime::schedule_after(sim::Time delay, std::function<void()> fn) {
  TimerId id = next_timer_id_++;
  timer_heap_.push_back(HeapEntry{now() + delay, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), HeapLater{});
  timer_fns_.emplace(id, std::move(fn));
  return id;
}

void PosixRuntime::cancel(TimerId id) {
  // Lazy cancel: drop the callback; the heap entry dies when it surfaces
  // in fire_due_timers. Generation safety comes from ids never being
  // reused (64-bit monotonic counter).
  if (timer_fns_.erase(id) > 0) metrics_.counter("posix.timers_cancelled").inc();
}

std::unique_ptr<UdpSocket> PosixRuntime::open_socket(const PosixSocketOptions& options) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    RMC_WARN("socket() failed: %s", std::strerror(errno));
    return nullptr;
  }
  auto fail = [&](const char* what) -> std::unique_ptr<UdpSocket> {
    RMC_WARN("%s failed: %s", what, std::strerror(errno));
    ::close(fd);
    return nullptr;
  };

  if (options.reuse_addr) {
    int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
      return fail("SO_REUSEADDR");
    }
  }
  if (options.rcvbuf_bytes > 0) {
    int bytes = options.rcvbuf_bytes;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes) != 0) {
      return fail("SO_RCVBUF");
    }
  }
  if (options.sndbuf_bytes > 0) {
    int bytes = options.sndbuf_bytes;
    if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes) != 0) {
      return fail("SO_SNDBUF");
    }
  }

  sockaddr_in bind_sa = to_sockaddr({options.bind_addr, options.port});
  if (::bind(fd, reinterpret_cast<sockaddr*>(&bind_sa), sizeof bind_sa) != 0) {
    return fail("bind");
  }

  in_addr mcast_if{};
  mcast_if.s_addr = htonl(options.multicast_if.bits());
  for (net::Ipv4Addr group : options.join_groups) {
    ip_mreq mreq{};
    mreq.imr_multiaddr.s_addr = htonl(group.bits());
    mreq.imr_interface = mcast_if;
    if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0) {
      return fail("IP_ADD_MEMBERSHIP");
    }
  }
  if (::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &mcast_if, sizeof mcast_if) != 0) {
    return fail("IP_MULTICAST_IF");
  }
  // This host receives its own multicast transmissions: a sender and its
  // receivers may share one host (every loopback session does).
  unsigned char loop = 1;
  if (::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop) != 0) {
    return fail("IP_MULTICAST_LOOP");
  }

  const bool gso = options.gso && probe_gso(fd);
  const bool gro = options.gso && enable_gro(fd);
  return std::make_unique<PosixUdpSocket>(this, fd, options, gso, gro);
}

void PosixRuntime::register_fd(int fd, std::function<void()> on_readable,
                               std::function<void()> on_writable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  RMC_ENSURE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0, "epoll add failed");
  fd_handlers_.emplace(fd,
                       FdHandlers{std::move(on_readable), std::move(on_writable)});
}

void PosixRuntime::unregister_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_handlers_.erase(fd);
}

void PosixRuntime::request_flush(PosixUdpSocket* socket) {
  if (socket->flush_requested_) return;
  socket->flush_requested_ = true;
  flush_queue_.push_back(socket);
}

void PosixRuntime::forget_socket(PosixUdpSocket* socket) {
  flush_queue_.erase(std::remove(flush_queue_.begin(), flush_queue_.end(), socket),
                     flush_queue_.end());
}

void PosixRuntime::flush_pending() {
  // A flush can enqueue more work (not in this codebase, but cheap to
  // allow): swap the queue out, sockets re-request as needed. A socket
  // whose flush hit EAGAIN does not re-queue — EPOLLOUT resumes it.
  std::vector<PosixUdpSocket*> pending;
  pending.swap(flush_queue_);
  for (PosixUdpSocket* s : pending) {
    s->flush_requested_ = false;
    s->flush();
  }
}

int PosixRuntime::fire_due_timers() {
  // One dispatch round fires only the timers that were due when the round
  // began: the entry timestamp and timer-id cutoff exclude anything a
  // firing callback schedules, even at zero delay. Without the cutoff a
  // self-rescheduling immediate timer (a send pump, say) would keep the
  // round alive forever and starve the socket path — TX rings would only
  // drain through ring-full backpressure and RX not at all.
  const sim::Time entry = now();
  const TimerId cutoff = next_timer_id_;
  for (;;) {
    while (!timer_heap_.empty() &&
           timer_fns_.find(timer_heap_.front().id) == timer_fns_.end()) {
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), HeapLater{});
      timer_heap_.pop_back();
    }
    if (timer_heap_.empty()) return -1;
    if (timer_heap_.front().deadline > entry || timer_heap_.front().id >= cutoff) {
      const sim::Time wait_ns = timer_heap_.front().deadline - now();
      if (wait_ns <= 0) return 0;
      return static_cast<int>(wait_ns / 1'000'000) + 1;
    }
    const TimerId id = timer_heap_.front().id;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), HeapLater{});
    timer_heap_.pop_back();
    auto it = timer_fns_.find(id);
    if (it == timer_fns_.end()) continue;
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    metrics_.counter("posix.timers_fired").inc();
    fn();
  }
}

void PosixRuntime::poll_once(int timeout_ms) {
  epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    auto it = fd_handlers_.find(events[i].data.fd);
    if (it == fd_handlers_.end()) continue;
    if ((events[i].events & EPOLLOUT) != 0 && it->second.on_writable) {
      it->second.on_writable();
      // The writable callback may have closed the socket.
      it = fd_handlers_.find(events[i].data.fd);
      if (it == fd_handlers_.end()) continue;
    }
    if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
        it->second.on_readable) {
      it->second.on_readable();
    }
  }
}

void PosixRuntime::run() {
  stopped_ = false;
  in_loop_ = true;
  while (!stopped_) {
    int timeout_ms = fire_due_timers();
    if (stopped_) break;
    flush_pending();
    poll_once(timeout_ms);
  }
  flush_pending();
  in_loop_ = false;
}

void PosixRuntime::run_for(sim::Time duration) {
  stopped_ = false;
  in_loop_ = true;
  const sim::Time deadline = now() + duration;
  while (!stopped_ && now() < deadline) {
    int timer_ms = fire_due_timers();
    if (stopped_) break;
    flush_pending();
    int budget_ms = static_cast<int>((deadline - now()) / 1'000'000) + 1;
    int timeout_ms = timer_ms < 0 ? budget_ms : std::min(timer_ms, budget_ms);
    poll_once(timeout_ms);
  }
  flush_pending();
  in_loop_ = false;
}

}  // namespace rmc::rt
