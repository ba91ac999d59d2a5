#include "harness/experiment.h"

#include <algorithm>
#include <functional>
#include <string>

#include "baseline/raw_udp.h"
#include "baseline/sim_tcp.h"
#include "common/panic.h"
#include "common/strings.h"
#include "harness/testbed.h"
#include "harness/trace_export.h"

namespace rmc::harness {

namespace {

// Calls `visit` with the stats of every host NIC and switch port.
template <typename Visit>
void for_each_port(inet::Cluster& cluster, Visit visit) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (const net::TxPort* nic = cluster.host_nic(i)) visit(nic->stats());
  }
  for (const auto& sw : cluster.switches()) {
    for (std::size_t p = 0; p < sw->n_ports(); ++p) visit(sw->port_tx(p).stats());
  }
}

std::uint64_t collect_fault_drops(inet::Cluster& cluster) {
  std::uint64_t drops = 0;
  for_each_port(cluster, [&](const net::TxPort::Stats& ps) {
    drops += ps.burst_drops + ps.link_down_drops;
  });
  for (const auto& sw : cluster.switches()) drops += sw->stats().frames_link_down;
  return drops;
}

std::uint64_t collect_link_drops(inet::Cluster& cluster) {
  std::uint64_t drops = 0;
  for_each_port(cluster, [&](const net::TxPort::Stats& ps) {
    drops += ps.queue_drops + ps.error_drops;
  });
  if (const net::SharedBus* bus = cluster.bus()) {
    drops += bus->stats().queue_drops + bus->stats().excessive_collision_drops;
  }
  return drops;
}

// Steps the simulator until `done` is set or the clock passes the limit.
void run_to(sim::Simulator& simulator, const bool& done, sim::Time limit) {
  while (!done && simulator.now() < limit) {
    if (!simulator.step()) break;
  }
}

// Publishes the network-tier portion of a simulated run — the `net.*`
// names — into the registry, on top of the backend-neutral protocol
// metrics. Counters add per-run values (the cluster is fresh each run, so
// every value is a delta); gauges keep the high-water mark across runs.
// The metric names are part of the observability contract — see
// docs/OBSERVABILITY.md before renaming anything.
void export_run_metrics(inet::Cluster& cluster, const RunResult& result, bool done,
                        metrics::Registry& m) {
  export_protocol_metrics(result, done, m);

  m.counter("net.rcvbuf_drops").inc(result.rcvbuf_drops);
  m.counter("net.link_drops").inc(result.link_drops);

  // Fault-injection drops/mutations, aggregated over every port and NIC.
  std::uint64_t burst = 0, dup = 0, reorder = 0, down = 0;
  for_each_port(cluster, [&](const net::TxPort::Stats& ps) {
    burst += ps.burst_drops;
    dup += ps.duplicated_frames;
    reorder += ps.reordered_frames;
    down += ps.link_down_drops;
  });
  m.counter("net.burst_drops").inc(burst);
  m.counter("net.duplicated_frames").inc(dup);
  m.counter("net.reordered_frames").inc(reorder);
  m.counter("net.link_down_drops").inc(down);

  const auto& switches = cluster.switches();
  for (std::size_t i = 0; i < switches.size(); ++i) {
    const net::EthernetSwitch& sw = *switches[i];
    m.counter(str_format("net.switch%zu.frames_forwarded", i))
        .inc(sw.stats().frames_forwarded);
    m.counter(str_format("net.switch%zu.frames_flooded", i)).inc(sw.stats().frames_flooded);
    for (std::size_t p = 0; p < sw.n_ports(); ++p) {
      const net::TxPort::Stats& ps = sw.port_tx(p).stats();
      const std::string prefix = str_format("net.switch%zu.port%zu.", i, p);
      m.gauge(prefix + "queue_hwm_frames")
          .set_max(static_cast<double>(ps.peak_queue_frames));
      m.counter(prefix + "enqueues").inc(ps.frames_enqueued);
      m.counter(prefix + "queue_drops").inc(ps.queue_drops);
      m.counter(prefix + "error_drops").inc(ps.error_drops);
      m.gauge(prefix + "busy_seconds").set_max(sim::to_seconds(ps.busy_time));
    }
  }

  if (const net::TxPort* nic = cluster.host_nic(0)) {
    m.gauge("net.sender_nic.queue_hwm_frames")
        .set_max(static_cast<double>(nic->stats().peak_queue_frames));
    m.counter("net.sender_nic.enqueues").inc(nic->stats().frames_enqueued);
    m.counter("net.sender_nic.queue_drops").inc(nic->stats().queue_drops);
    m.gauge("net.sender_nic.busy_seconds").set_max(sim::to_seconds(nic->stats().busy_time));
  }

  if (const net::SharedBus* bus = cluster.bus()) {
    m.counter("net.bus.frames_delivered").inc(bus->stats().frames_delivered);
    m.counter("net.bus.frames_enqueued").inc(bus->stats().frames_enqueued);
    m.counter("net.bus.collisions").inc(bus->stats().collisions);
    m.counter("net.bus.queue_drops").inc(bus->stats().queue_drops);
    m.counter("net.bus.excessive_collision_drops")
        .inc(bus->stats().excessive_collision_drops);
    m.gauge("net.bus.busy_seconds").set_max(sim::to_seconds(bus->stats().busy_time));
    std::size_t hwm = 0;
    for (std::size_t id = 0; id < cluster.size(); ++id) {
      hwm = std::max(hwm, bus->station_queue_hwm(id));
    }
    m.gauge("net.bus.station_queue_hwm_frames").set_max(static_cast<double>(hwm));
  }
}

}  // namespace

void export_protocol_metrics(const RunResult& result, bool done,
                             metrics::Registry& m) {
  m.counter("harness.runs").inc();
  if (done) m.counter("harness.runs_completed").inc();
  if (done) m.histogram("harness.run_time_us").record_seconds(result.seconds);

  const rmcast::SenderStats& s = result.sender;
  m.counter("sender.data_packets_sent").inc(s.data_packets_sent);
  m.counter("sender.retransmissions").inc(s.retransmissions);
  m.counter("sender.acks_received").inc(s.acks_received);
  m.counter("sender.naks_received").inc(s.naks_received);
  m.counter("sender.rto_fires").inc(s.rto_fires);
  m.counter("sender.suppressed_retransmissions").inc(s.suppressed_retransmissions);
  m.counter("sender.window_stalls").inc(s.window_stalls);
  m.gauge("sender.peak_buffered_bytes").set_max(static_cast<double>(s.peak_buffered_bytes));
  m.counter("sender.receivers_evicted").inc(s.receivers_evicted);
  m.counter("sender.rto_backoffs").inc(s.rto_backoffs);
  m.counter("sender.suspect_reports").inc(s.suspect_reports_received);
  m.counter("sender.parity_packets_sent").inc(s.parity_packets_sent);
  m.counter("sender.group_naks_received").inc(s.group_naks_received);

  std::uint64_t delivered = 0, acks = 0, naks = 0, naks_suppressed = 0;
  std::uint64_t repairs = 0, repairs_suppressed = 0, duplicates = 0, gaps = 0;
  std::uint64_t evict_notices = 0, suspects = 0, reforms = 0;
  std::uint64_t parity_rx = 0, fec_decodes = 0, fec_recovered = 0, group_naks = 0;
  for (const rmcast::ReceiverStats& r : result.receivers) {
    delivered += r.messages_delivered;
    acks += r.acks_sent;
    naks += r.naks_sent;
    naks_suppressed += r.naks_suppressed;
    repairs += r.repairs_sent;
    repairs_suppressed += r.repairs_suppressed;
    duplicates += r.duplicates;
    gaps += r.gaps_detected;
    evict_notices += r.evict_notices_received;
    suspects += r.suspects_sent;
    reforms += r.structure_reforms;
    parity_rx += r.parity_packets_received;
    fec_decodes += r.fec_decodes;
    fec_recovered += r.fec_blocks_recovered;
    group_naks += r.group_naks_sent;
  }
  m.counter("receiver.messages_delivered").inc(delivered);
  m.counter("receiver.acks_sent").inc(acks);
  m.counter("receiver.naks_sent").inc(naks);
  m.counter("receiver.naks_suppressed").inc(naks_suppressed);
  m.counter("receiver.repairs_sent").inc(repairs);
  m.counter("receiver.repairs_suppressed").inc(repairs_suppressed);
  m.counter("receiver.duplicates").inc(duplicates);
  m.counter("receiver.gaps_detected").inc(gaps);
  m.counter("receiver.evict_notices").inc(evict_notices);
  m.counter("receiver.suspects_sent").inc(suspects);
  m.counter("receiver.structure_reforms").inc(reforms);
  m.counter("receiver.parity_packets_received").inc(parity_rx);
  m.counter("receiver.fec_decodes").inc(fec_decodes);
  m.counter("receiver.fec_blocks_recovered").inc(fec_recovered);
  m.counter("receiver.group_naks_sent").inc(group_naks);
}

std::string TrialsOutcome::describe_failure() const {
  if (ok) return "";
  return str_format("seed %llu: %s", static_cast<unsigned long long>(failed_seed),
                    error.c_str());
}

double RunResult::throughput_bps() const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(message_bytes) * 8.0 / seconds;
}

std::uint64_t RunResult::total_acks_sent() const {
  std::uint64_t total = 0;
  for (const auto& r : receivers) total += r.acks_sent;
  return total;
}

std::uint64_t RunResult::total_naks_sent() const {
  std::uint64_t total = 0;
  for (const auto& r : receivers) total += r.naks_sent;
  return total;
}

Buffer make_pattern(std::uint64_t n_bytes, std::uint64_t offset) {
  Buffer data(n_bytes);
  for (std::uint64_t i = 0; i < n_bytes; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7 + offset);
  }
  return data;
}

SessionTransfer::SessionTransfer(rmcast::Session& session, Buffer message,
                                 bool verify_payload)
    : session_(session),
      message_(std::move(message)),
      verify_payload_(verify_payload),
      copies_(session.n_receivers(), 0),
      intact_(session.n_receivers(), false) {
  session_.set_message_handler(
      [this](std::size_t node, const Buffer& received, std::uint32_t /*session*/) {
        ++copies_[node];
        intact_[node] = !verify_payload_ || received == message_;
      });
}

void SessionTransfer::start() {
  started_at_ = session_.now();
  session_.send(BytesView(message_.data(), message_.size()),
                [this](const rmcast::SendOutcome& outcome) {
                  done_ = true;
                  completed_at_ = session_.now();
                  outcome_ = outcome;
                });
}

void SessionTransfer::run(sim::Time limit) {
  limit_ = limit;
  session_.run_until(done_, limit);
}

RunResult SessionTransfer::result() const {
  RunResult result;
  result.message_bytes = message_.size();
  result.sender = session_.sender().stats();
  for (std::size_t i = 0; i < session_.n_receivers(); ++i) {
    result.receivers.push_back(session_.receiver_joined(i) ? session_.receiver(i).stats()
                                                           : rmcast::ReceiverStats{});
  }
  result.outcome = outcome_;
  result.rcvbuf_drops = session_.rcvbuf_drops();
  if (!done_) {
    result.error = str_format("timed out after %.1fs", sim::to_seconds(limit_));
    return result;
  }
  result.seconds = sim::to_seconds(completed_at_ - started_at_);
  for (std::size_t i = 0; i < copies_.size(); ++i) {
    // Receivers the sender gave up on (crashed, partitioned) are exempt
    // from the delivery check — that they did not deliver is the point.
    if (i < outcome_.receivers.size() && !outcome_.receivers[i].delivered()) continue;
    if (copies_[i] > 1) {
      result.error = str_format("receiver %zu delivered %u copies", i, copies_[i]);
      return result;
    }
    if (copies_[i] == 0 || !intact_[i]) {
      result.error = str_format("receiver %zu did not deliver a correct copy", i);
      return result;
    }
  }
  result.completed = true;
  return result;
}

RunResult run_multicast(const MulticastRunSpec& spec) {
  std::string config_error = rmcast::validate(spec.protocol, spec.n_receivers);
  if (!config_error.empty()) {
    RunResult result;
    result.message_bytes = spec.message_bytes;
    result.error = config_error;
    return result;
  }

  rmcast::SessionParams params;
  params.n_receivers = spec.n_receivers;
  params.protocol = spec.protocol;
  params.cluster = spec.cluster;
  params.cluster.seed = spec.seed;
  params.faults = spec.faults;
  params.metrics = spec.metrics;
  rmcast::Session session(std::move(params));
  inet::Cluster& cluster = session.cluster();
  sim::Simulator& simulator = session.simulator();
  rmcast::MulticastSender& sender = session.sender();

  std::unique_ptr<TraceRecorder> trace;
  if (spec.sender_trace != nullptr) {
    trace = std::make_unique<TraceRecorder>(session.sender_runtime());
    sender.set_observer(trace.get());
  }
  if (spec.tracer != nullptr) {
    trace::Tracer& tr = *spec.tracer;
    session.set_tracer(&tr);
    tr.set_packet_tagger(tag_rmcast_packet);
    cluster.attach_tracer(&tr);
    trace_fault_plan(tr, spec.faults);
  }

  SessionTransfer transfer(session, make_pattern(spec.message_bytes), spec.verify_payload);
  transfer.start();

  // Sim-time timeline sampler: a repeating read-only snapshot of queue
  // depths, the outstanding window and the send/retransmit rates. It only
  // observes and reschedules, so protocol behavior (and every other
  // event's relative order) is untouched; it stops rescheduling at
  // completion so the simulation still drains.
  std::function<void()> sample_tick;
  std::uint16_t timeline_track = 0;
  std::uint32_t s_nic_queue = 0, s_switch_queue = 0, s_outstanding = 0;
  std::uint32_t s_tx_rate = 0, s_retx_rate = 0;
  std::uint64_t last_tx = 0, last_retx = 0;
  if (spec.tracer != nullptr && spec.timeline_interval > 0) {
    trace::Tracer& tr = *spec.tracer;
    timeline_track = tr.track("timeline", trace::TrackTier::kTimeline);
    s_nic_queue = tr.series("sender_nic.queue_frames");
    s_switch_queue = tr.series("switch.max_port_queue_frames");
    s_outstanding = tr.series("sender.outstanding_pkts");
    s_tx_rate = tr.series("sender.tx_pkts_per_interval");
    s_retx_rate = tr.series("sender.retx_pkts_per_interval");
    sample_tick = [&] {
      if (transfer.done()) return;
      trace::Tracer& t = *spec.tracer;
      const sim::Time now = simulator.now();
      const net::TxPort* nic = cluster.host_nic(0);
      t.sample(now, timeline_track, s_nic_queue,
               nic != nullptr ? static_cast<double>(nic->queue_length()) : 0.0);
      std::size_t switch_depth = 0;
      for (const auto& sw : cluster.switches()) {
        switch_depth = std::max(switch_depth, sw->max_port_queue_now());
      }
      t.sample(now, timeline_track, s_switch_queue,
               static_cast<double>(switch_depth));
      t.sample(now, timeline_track, s_outstanding,
               static_cast<double>(sender.outstanding_packets()));
      const rmcast::SenderStats& st = sender.stats();
      t.sample(now, timeline_track, s_tx_rate,
               static_cast<double>(st.data_packets_sent - last_tx));
      t.sample(now, timeline_track, s_retx_rate,
               static_cast<double>(st.retransmissions - last_retx));
      last_tx = st.data_packets_sent;
      last_retx = st.retransmissions;
      simulator.schedule_at(now + spec.timeline_interval, sample_tick);
    };
    simulator.schedule_at(spec.timeline_interval, sample_tick);
  }

  transfer.run(spec.time_limit);

  RunResult result = transfer.result();
  result.events_executed = simulator.events_executed();
  if (trace != nullptr) *spec.sender_trace = trace->events();
  result.link_drops = collect_link_drops(cluster);
  result.fault_drops = collect_fault_drops(cluster);
  result.sender_cpu_busy_seconds = sim::to_seconds(cluster.host(0).stats().cpu_busy);
  if (const net::TxPort* nic = cluster.host_nic(0)) {
    result.sender_nic_busy_seconds = sim::to_seconds(nic->stats().busy_time);
  }
  if (spec.metrics != nullptr) {
    // Run provenance for the snapshot's "meta" block. Accumulating
    // registries keep the last run's values; merge() collapses
    // disagreements to "mixed".
    spec.metrics->set_meta("protocol", rmcast::protocol_name(spec.protocol.kind));
    spec.metrics->set_meta("seed", std::to_string(spec.seed));
    // Export even for failed runs: a timeout's counters show where the
    // packets went (or stopped going).
    export_run_metrics(cluster, result, transfer.done(), *spec.metrics);
  }
  return result;
}

RunResult run_tcp_fanout(std::size_t n_receivers, std::uint64_t message_bytes,
                         std::uint64_t seed, inet::ClusterParams cluster_params) {
  RunResult result;
  result.message_bytes = message_bytes;
  cluster_params.seed = seed;
  Testbed bed(n_receivers, cluster_params);

  baseline::TcpBulkSender sender(bed.sender_runtime(), bed.sender_socket());
  std::vector<std::unique_ptr<baseline::TcpBulkReceiver>> receivers;
  for (std::size_t i = 0; i < n_receivers; ++i) {
    receivers.push_back(std::make_unique<baseline::TcpBulkReceiver>(
        bed.receiver_runtime(i), bed.receiver_control_socket(i)));
  }
  baseline::TcpFanout fanout(sender, bed.membership().receiver_control);

  bool done = false;
  sim::Time completed_at = 0;
  fanout.transfer_all(message_bytes, [&] {
    done = true;
    completed_at = bed.simulator().now();
  });

  run_to(bed.simulator(), done, sim::seconds(120.0));
  if (!done) {
    result.error = "tcp fan-out timed out";
    return result;
  }
  for (const auto& r : receivers) {
    if (r->bytes_received() != message_bytes || r->transfers_completed() != 1) {
      result.error = "tcp receiver did not complete";
      return result;
    }
  }
  result.completed = true;
  result.seconds = sim::to_seconds(completed_at);
  return result;
}

RunResult run_raw_udp(std::size_t n_receivers, std::uint64_t message_bytes,
                      std::size_t packet_size, std::uint64_t seed,
                      inet::ClusterParams cluster_params) {
  RunResult result;
  result.message_bytes = message_bytes;
  cluster_params.seed = seed;
  Testbed bed(n_receivers, cluster_params);

  baseline::RawUdpBlastSender sender(bed.sender_runtime(), bed.sender_socket(),
                                     bed.membership().group, n_receivers);
  std::vector<std::unique_ptr<baseline::RawUdpReceiver>> receivers;
  for (std::size_t i = 0; i < n_receivers; ++i) {
    receivers.push_back(std::make_unique<baseline::RawUdpReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.membership().sender_control, static_cast<std::uint16_t>(i)));
  }

  bool done = false;
  sim::Time completed_at = 0;
  sender.blast(message_bytes, packet_size, [&] {
    done = true;
    completed_at = bed.simulator().now();
  });

  run_to(bed.simulator(), done, sim::seconds(120.0));
  if (!done) {
    result.error = "raw udp blast timed out";
    return result;
  }
  result.completed = true;
  result.seconds = sim::to_seconds(completed_at);
  return result;
}

}  // namespace rmc::harness
