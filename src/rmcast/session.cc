#include "rmcast/session.h"

#include "common/panic.h"
#include "common/strings.h"

namespace rmc::rmcast {

namespace {

inet::ClusterParams with_n_hosts(inet::ClusterParams params, std::size_t n_hosts) {
  params.n_hosts = n_hosts;
  return params;
}

}  // namespace

GroupMembership placement_membership(const SessionPlacement& placement) {
  GroupMembership membership;
  membership.group = placement.group;
  membership.sender_control = {inet::Cluster::host_addr(placement.sender_host),
                               placement.sender_control_port};
  for (std::size_t host : placement.receiver_hosts) {
    membership.receiver_control.push_back(
        {inet::Cluster::host_addr(host), placement.receiver_control_port});
  }
  return membership;
}

Session::Session(SessionParams params)
    : params_(std::move(params)),
      owned_cluster_(std::make_unique<inet::Cluster>(
          with_n_hosts(params_.cluster, params_.n_receivers + 1))) {
  // The classic single-tenant placement: host 0 sends, hosts 1..N receive,
  // the default group and control ports.
  for (std::size_t i = 0; i < params_.n_receivers; ++i) {
    placement_.receiver_hosts.push_back(i + 1);
  }

  place(*owned_cluster_);

  // Schedule the scripted faults before any traffic exists; host 0 is the
  // sender, so receiver node i maps to host i + 1.
  if (!params_.faults.empty()) {
    cluster_->apply_fault_plan(params_.faults);
  }
}

Session::Session(inet::Cluster& fabric, SessionPlacement placement,
                 ProtocolConfig protocol, metrics::Registry* metrics,
                 GroupDirectory* directory)
    : directory_(directory) {
  params_.protocol = std::move(protocol);
  params_.metrics = metrics;
  placement_ = std::move(placement);
  place(fabric);
}

Session::Session(GroupMembership membership, ProtocolConfig protocol,
                 const PosixSessionOptions& options)
    : posix_(std::make_unique<rt::PosixRuntime>()),
      membership_(SharedMembership(std::move(membership))),
      multicast_if_(options.multicast_if) {
  params_.protocol = std::move(protocol);
  params_.metrics = options.metrics;
  wire();
}

void Session::place(inet::Cluster& fabric) {
  cluster_ = &fabric;
  const std::size_t n = placement_.receiver_hosts.size();
  RMC_ENSURE(n > 0, "session needs at least one receiver");

  for (std::size_t host : placement_.receiver_hosts) {
    RMC_ENSURE(host < cluster_->size(), "receiver host out of range");
    RMC_ENSURE(host != placement_.sender_host, "receiver host collides with the sender's");
  }
  // Validated once here; the sender and every receiver share the result.
  membership_.emplace(placement_membership(placement_));
  if (directory_ != nullptr) {
    // The data endpoint is unique among registered groups (the directory
    // rejects collisions), so it doubles as the registration key.
    const net::Endpoint& group = placement_.group;
    directory_id_ = (static_cast<std::uint64_t>(group.addr.bits()) << 16) | group.port;
    std::string error = directory_->add(directory_id_, *membership_);
    RMC_ENSURE(error.empty(), error);
  }

  runtimes_.push_back(
      std::make_unique<rt::SimRuntime>(cluster_->host(placement_.sender_host)));
  for (std::size_t i = 0; i < n; ++i) {
    runtimes_.push_back(
        std::make_unique<rt::SimRuntime>(cluster_->host(placement_.receiver_hosts[i])));
  }
  wire();
}

void Session::wire() {
  rt::UdpSocket* control = open_socket(0, membership().sender_control, false);
  if (control == nullptr) return;
  sender_ = std::make_unique<MulticastSender>(endpoint_runtime(0), *control,
                                              *membership_, params_.protocol);
  if (placement_.session_base != 0) sender_->set_session_base(placement_.session_base);
  if (params_.metrics != nullptr) sender_->set_metrics(params_.metrics);

  const std::size_t n = n_receivers();
  receivers_.resize(n);
  data_raw_.resize(n, nullptr);
  std::vector<bool> deferred(n, false);
  for (std::size_t d : placement_.deferred) deferred.at(d) = true;
  ok_ = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (deferred[i]) continue;
    join_receiver(i);
    ok_ = ok_ && receivers_[i] != nullptr;
  }
}

rt::Runtime& Session::endpoint_runtime(std::size_t endpoint) {
  if (posix_ != nullptr) return *posix_;
  return *runtimes_.at(endpoint);
}

rt::UdpSocket* Session::open_socket(std::size_t endpoint, const net::Endpoint& local,
                                    bool data) {
  std::unique_ptr<rt::UdpSocket> socket;
  if (posix_ != nullptr) {
    rt::PosixSocketOptions options;
    options.port = local.port;
    if (data) {
      options.reuse_addr = true;  // all receivers share the group port
      options.join_groups = {local.addr};
    } else {
      options.bind_addr = local.addr;
    }
    options.multicast_if = multicast_if_;
    socket = posix_->open_socket(options);
    if (socket == nullptr) return nullptr;
  } else {
    const std::size_t host = endpoint == 0 ? placement_.sender_host
                                           : placement_.receiver_hosts[endpoint - 1];
    inet::Socket* raw = cluster_->host(host).open_socket();
    raw->bind(local.port);
    if (data) {
      raw->join(local.addr);
      data_raw_[endpoint - 1] = raw;
    }
    raw_sockets_.push_back(raw);
    socket = runtimes_[endpoint]->wrap(raw);
  }
  sockets_.push_back(std::move(socket));
  return sockets_.back().get();
}

void Session::join_receiver(std::size_t i) {
  if (receivers_.at(i) != nullptr) return;
  rt::UdpSocket* data = open_socket(i + 1, membership().group, true);
  rt::UdpSocket* control = open_socket(i + 1, membership().receiver_control[i], false);
  if (data == nullptr || control == nullptr) return;

  receivers_[i] = std::make_unique<MulticastReceiver>(
      endpoint_runtime(i + 1), *data, *control, *membership_, i, params_.protocol,
      assembly_);
  if (params_.metrics != nullptr) receivers_[i]->set_metrics(params_.metrics);
  if (tracer_ != nullptr) trace_receiver(i);
  receivers_[i]->set_message_handler(
      [this, i](const Buffer& message, std::uint32_t session) {
        if (handler_) handler_(i, message, session);
      });
}

void Session::leave_receiver(std::size_t i) {
  if (receivers_.at(i) == nullptr || receivers_[i]->left()) return;
  receivers_[i]->leave();
  // Drop the IGMP membership so snooping switches stop forwarding the
  // group's data stream to this port — the departure is visible to the
  // fabric, not just the protocol.
  if (data_raw_[i] != nullptr) data_raw_[i]->leave(membership().group.addr);
}

Session::~Session() {
  if (directory_ != nullptr) directory_->remove(directory_id_);
}

void Session::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    if (receivers_[i] != nullptr) trace_receiver(i);
  }
  sender_->set_tracer(tracer, tracer->track("sender", trace::TrackTier::kSender));
}

void Session::trace_receiver(std::size_t i) {
  receivers_[i]->set_tracer(
      tracer_, tracer_->track(str_format("receiver.%zu", i), trace::TrackTier::kReceiver));
}

void Session::send(BytesView message, MulticastSender::CompletionHandler on_complete) {
  RMC_ENSURE(ok_, "session failed to open its sockets");
  if (posix_ != nullptr) {
    // Completion ends the socket backend's run_for early.
    on_complete = [this, handler = std::move(on_complete)](const SendOutcome& outcome) {
      handler(outcome);
      posix_->stop();
    };
  }
  sender_->send(message, std::move(on_complete));
}

void Session::run_until(const bool& done, sim::Time limit) {
  if (posix_ != nullptr) {
    if (!done) posix_->run_for(limit);
    return;
  }
  sim::Simulator& simulator = cluster_->simulator();
  while (!done && simulator.now() < limit) {
    if (!simulator.step()) break;
  }
}

std::optional<SendOutcome> Session::send_and_wait(BytesView message,
                                                  std::optional<sim::Time> limit) {
  std::optional<SendOutcome> outcome;
  bool done = false;
  send(message, [&](const SendOutcome& o) {
    outcome = o;
    done = true;
  });
  run_until(done, limit.value_or(posix_ != nullptr ? sim::seconds(10.0)
                                                   : sim::seconds(120.0)));
  return outcome;
}

sim::Time Session::now() {
  return posix_ != nullptr ? posix_->now() : cluster_->simulator().now();
}

std::uint64_t Session::rcvbuf_drops() const {
  std::uint64_t drops = 0;
  for (const inet::Socket* s : raw_sockets_) drops += s->stats().rcvbuf_drops;
  return drops;
}

}  // namespace rmc::rmcast
