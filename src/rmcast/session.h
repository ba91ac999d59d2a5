// Session: one-call wiring for a reliable multicast transfer.
//
// Every sender-plus-receivers group in the codebase is wired here: the
// sender's control socket and MulticastSender, one data socket (joined to
// the group) plus one control socket and a MulticastReceiver per
// receiver, deliveries forwarded with their node index, and metrics and
// tracer attached. A backend supplies only how one endpoint's socket is
// opened and how to run until completion or a limit: on the simulator
// that is Host::open_socket + SimRuntime::wrap and Simulator::step (the
// Session owns the cluster, or sits on a shared one), on real UDP
// multicast sockets in one process it is PosixRuntime::open_socket and
// run_for/stop (PosixSession). The low-level MulticastSender/Receiver
// constructors stay available for single-endpoint tests and for one-role
// processes on a real LAN.
//
// Faults are first-class: SessionParams carries a sim::FaultPlan that is
// applied to the cluster before the transfer, so "send 1 MB while
// receiver 3 crashes at t=50ms" is three lines. The outcome of a send is
// a SendOutcome (per-receiver DeliveryReports), not a bare bool.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "inet/cluster.h"
#include "rmcast/config.h"
#include "rmcast/group.h"
#include "rmcast/receiver.h"
#include "rmcast/report.h"
#include "rmcast/sender.h"
#include "runtime/posix_runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/fault.h"

namespace rmc::rmcast {

struct SessionParams {
  std::size_t n_receivers = 8;
  ProtocolConfig protocol;
  // Cluster topology/link parameters; n_hosts is overridden to
  // n_receivers + 1 (host 0 is the sender).
  inet::ClusterParams cluster;
  // Scripted faults, applied against receiver node ids before traffic
  // starts (receiver i lives on host i + 1; the plan's host_offset
  // handles the mapping).
  sim::FaultPlan faults;
  // Optional metrics sink wired into the sender and every receiver; not
  // owned, must outlive the Session.
  metrics::Registry* metrics = nullptr;
};

// Where a Session lives on a shared fabric. Multi-tenant runs place many
// Sessions on one inet::Cluster: each tenant names its sender host, its
// receiver hosts (which may overlap other tenants' — host sharing is the
// contention experiment), a private multicast data endpoint and a private
// control-port pair, so concurrent groups never collide on the wire. The
// session_base namespaces wire session ids (tenant t uses (t+1) << 16),
// which is how per-tenant trace tags are recovered from frames inside
// shared switches.
struct SessionPlacement {
  std::size_t sender_host = 0;
  std::vector<std::size_t> receiver_hosts;  // distinct; none may equal sender_host
  net::Endpoint group;                      // multicast data endpoint, unique per session
  std::uint16_t sender_control_port = 5001;
  std::uint16_t receiver_control_port = 5002;
  std::uint32_t session_base = 0;
  // Roster indices whose receivers are NOT constructed up front: they are
  // full roster members (the sender allocates for them and will evict
  // them if they stay silent) but only come alive at join_receiver() —
  // the mid-transfer join of a churn script. A joiner that answers a
  // retried ALLOC_REQ before the eviction budget runs out participates
  // normally; a too-late joiner is evicted like any silent node.
  std::vector<std::size_t> deferred;
};

// Socket-backend settings for PosixSession.
struct PosixSessionOptions {
  // Interface used for multicast (loopback by default so single-machine
  // demos work anywhere).
  net::Ipv4Addr multicast_if = net::Ipv4Addr(127, 0, 0, 1);
  // Optional protocol-metrics sink wired into the sender and every
  // receiver (not owned, must outlive the session). The runtime's own
  // `posix.*` I/O metrics live in runtime().metrics() regardless.
  metrics::Registry* metrics = nullptr;
};

class Session {
 public:
  // Delivery callback: `node` is the receiver that completed `message`.
  using MessageHandler =
      std::function<void(std::size_t node, const Buffer& message, std::uint32_t session)>;

  // Simulator backend on an owned cluster built from params.cluster.
  explicit Session(SessionParams params);
  // Simulator backend on a shared fabric: the Session opens its sockets on
  // `fabric`'s hosts per `placement` and owns no cluster. `directory`,
  // when given, is the cross-group collision guard: construction panics
  // if the placement's data endpoint collides with a registered group
  // (the Session unregisters itself on destruction). `metrics` is the
  // tenant's private registry (not owned; may be null).
  Session(inet::Cluster& fabric, SessionPlacement placement, ProtocolConfig protocol,
          metrics::Registry* metrics = nullptr, GroupDirectory* directory = nullptr);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  virtual ~Session();

  // False when the OS refused the sockets (e.g. a sandbox); every other
  // method requires ok(). Always true on the simulator.
  bool ok() const { return ok_; }

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }
  // Attaches a causal tracer (not owned) to every receiver, late joiners
  // included, and to the sender, with tracks "receiver.<i>" and "sender".
  void set_tracer(trace::Tracer* tracer);

  // Asynchronous send: the completion handler fires from within the
  // backend's loop (run_until, or the caller stepping the simulator).
  void send(BytesView message, MulticastSender::CompletionHandler on_complete);

  // Runs the backend until `done` is set or `limit` is reached. On the
  // simulator `limit` is the simulated clock's deadline; on sockets it is
  // the wall time to run for, cut short when a send() completes. (On a
  // shared fabric this steps the one shared simulator, advancing every
  // tenant.)
  void run_until(const bool& done, sim::Time limit);

  // Sends and runs until the transfer completes or `limit` passes (by
  // default 120 s of simulated time, or 10 s of wall time on sockets);
  // nullopt on timeout. This is the one-liner: the returned SendOutcome
  // says per receiver whether the message arrived or the receiver was
  // evicted.
  std::optional<SendOutcome> send_and_wait(BytesView message,
                                           std::optional<sim::Time> limit = std::nullopt);

  // Churn: brings deferred receiver `i` alive (opens its sockets, joins
  // the group). No-op if it is already active.
  void join_receiver(std::size_t i);
  // Churn: receiver `i` departs for good — it goes silent and, on the
  // simulator, drops the group membership (IGMP leave, so snooping
  // switches prune the port); the sender evicts it through the
  // no-progress path and the survivors re-form around it. No-op if the
  // receiver never joined or already left.
  void leave_receiver(std::size_t i);
  // True when receiver `i` was ever constructed (deferred receivers whose
  // join never fired read false; left receivers still read true).
  bool receiver_joined(std::size_t i) const { return receivers_.at(i) != nullptr; }

  std::size_t n_receivers() const { return membership_.n_receivers(); }
  const GroupMembership& membership() const { return membership_; }
  MulticastSender& sender() { return *sender_; }
  MulticastReceiver& receiver(std::size_t i) { return *receivers_.at(i); }
  rt::Runtime& sender_runtime() { return endpoint_runtime(0); }
  // The backend's clock: simulated time, or the monotonic wall clock.
  sim::Time now();
  // Datagrams the simulated sockets of this session dropped for a full
  // receive buffer. Real sockets report 0: the kernel keeps that count.
  std::uint64_t rcvbuf_drops() const;

  // Simulator backend only.
  inet::Cluster& cluster() { return *cluster_; }
  sim::Simulator& simulator() { return cluster_->simulator(); }

 protected:
  // Socket backend: one PosixRuntime shared by every endpoint.
  Session(GroupMembership membership, ProtocolConfig protocol,
          const PosixSessionOptions& options);

  std::unique_ptr<rt::PosixRuntime> posix_;  // socket backend

 private:
  // Simulator backend: derives the membership from the placement and
  // creates one runtime per endpoint's host.
  void place(inet::Cluster& fabric);
  // Opens the sender and every non-deferred receiver; sets ok_.
  void wire();
  // Endpoint 0 is the sender, endpoint i + 1 receiver i.
  rt::Runtime& endpoint_runtime(std::size_t endpoint);
  // Opens a socket for `endpoint` bound to `local`'s port (and, on
  // sockets, its address); a data socket binds the group port and joins
  // the group instead. Null when the OS refuses.
  rt::UdpSocket* open_socket(std::size_t endpoint, const net::Endpoint& local,
                             bool data);
  void trace_receiver(std::size_t i);

  SessionParams params_;
  std::unique_ptr<inet::Cluster> owned_cluster_;
  inet::Cluster* cluster_ = nullptr;  // owned, or the shared fabric
  SessionPlacement placement_;
  GroupDirectory* directory_ = nullptr;
  std::uint64_t directory_id_ = 0;
  GroupMembership membership_;
  net::Ipv4Addr multicast_if_;
  // runtimes_[0] is the sender's, runtimes_[i + 1] receiver i's.
  std::vector<std::unique_ptr<rt::SimRuntime>> runtimes_;
  // Every simulated socket (for rcvbuf_drops), and each receiver's data
  // socket, through which leave_receiver() drops the IGMP membership.
  std::vector<inet::Socket*> raw_sockets_;
  std::vector<inet::Socket*> data_raw_;
  std::vector<std::unique_ptr<rt::UdpSocket>> sockets_;
  std::unique_ptr<MulticastSender> sender_;
  std::vector<std::unique_ptr<MulticastReceiver>> receivers_;
  trace::Tracer* tracer_ = nullptr;
  bool ok_ = false;
  MessageHandler handler_;
};

// The facade over real UDP multicast sockets: sender and all receivers in
// one process (the loopback demo shape; spread membership endpoints
// across machines and run one role per process for a real deployment —
// the low-level constructors accept any subset).
class PosixSession : public Session {
 public:
  PosixSession(GroupMembership membership, ProtocolConfig protocol,
               PosixSessionOptions options = {})
      : Session(std::move(membership), std::move(protocol), options) {}

  rt::PosixRuntime& runtime() { return *posix_; }
};

}  // namespace rmc::rmcast
