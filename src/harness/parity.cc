#include "harness/parity.h"

#include <cstdlib>
#include <set>

#include "common/strings.h"
#include "rmcast/session.h"

namespace rmc::harness {

namespace {

rmcast::GroupMembership loopback_membership(const ParitySpec& spec,
                                            std::uint16_t base_port) {
  rmcast::GroupMembership membership;
  membership.group = {spec.group_addr, base_port};
  membership.sender_control = {net::Ipv4Addr(127, 0, 0, 1),
                               static_cast<std::uint16_t>(base_port + 1)};
  for (std::size_t i = 0; i < spec.n_receivers; ++i) {
    membership.receiver_control.push_back(
        {net::Ipv4Addr(127, 0, 0, 1), static_cast<std::uint16_t>(base_port + 2 + i)});
  }
  return membership;
}

// Shapes the loopback device for the lifetime of the guard. Constructing
// is a capability probe: when tc is missing or CAP_NET_ADMIN is not held
// the replace fails and applied() stays false — the caller skips.
class NetemGuard {
 public:
  explicit NetemGuard(const std::string& netem_spec) {
    const std::string cmd =
        "tc qdisc replace dev lo root netem " + netem_spec + " >/dev/null 2>&1";
    applied_ = std::system(cmd.c_str()) == 0;
  }
  ~NetemGuard() {
    if (applied_) std::system("tc qdisc del dev lo root >/dev/null 2>&1");
  }
  NetemGuard(const NetemGuard&) = delete;
  NetemGuard& operator=(const NetemGuard&) = delete;
  bool applied() const { return applied_; }

 private:
  bool applied_ = false;
};

bool backend_neutral(const std::string& name) {
  return name.rfind("sender.", 0) == 0 || name.rfind("receiver.", 0) == 0 ||
         name.rfind("harness.", 0) == 0;
}

std::set<std::string> neutral_keys(const metrics::Registry& m) {
  std::set<std::string> keys;
  for (const auto& [name, c] : m.counters()) {
    if (backend_neutral(name)) keys.insert("counter:" + name);
  }
  for (const auto& [name, g] : m.gauges()) {
    if (backend_neutral(name)) keys.insert("gauge:" + name);
  }
  for (const auto& [name, h] : m.histograms()) {
    if (backend_neutral(name)) keys.insert("histogram:" + name);
  }
  return keys;
}

// The report's view of one backend's finished run.
void record(const RunResult& result, ParityBackendRun& out) {
  out.completed = result.completed;
  out.seconds = result.seconds;
  out.goodput_bps = result.throughput_bps();
  out.data_packets_sent = result.sender.data_packets_sent;
  out.retransmissions = result.sender.retransmissions;
  for (const auto& r : result.receivers) out.messages_delivered += r.messages_delivered;
}

// Runs the transfer on real loopback sockets. Returns false when the OS
// refused the sockets (the caller records the skip).
bool run_posix_once(const ParitySpec& spec, std::uint16_t base_port,
                    ParityBackendRun& out, std::string* error) {
  rmcast::PosixSessionOptions options;
  options.metrics = &out.metrics;
  rmcast::PosixSession session(loopback_membership(spec, base_port), spec.protocol,
                               options);
  if (!session.ok()) return false;

  SessionTransfer transfer(session, make_pattern(spec.message_bytes));
  transfer.start();
  transfer.run(spec.posix_time_limit);
  const RunResult result = transfer.result();
  export_protocol_metrics(result, transfer.done(), out.metrics);
  // The backend-specific tier: syscall counts, batch sizes, ring depth.
  out.metrics.merge(session.runtime().metrics());
  record(result, out);
  if (!result.completed) *error = "posix run: " + result.error;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void append_string_list(std::string& json, const char* key,
                        const std::vector<std::string>& items) {
  json += str_format("\"%s\": [", key);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + json_escape(items[i]) + "\"";
  }
  json += "]";
}

void append_backend(std::string& json, const char* key, const ParityBackendRun& run) {
  json += str_format(
      "\"%s\": {\"completed\": %s, \"seconds\": %.6f, \"goodput_bps\": %.1f, "
      "\"data_packets_sent\": %llu, \"retransmissions\": %llu, "
      "\"messages_delivered\": %llu, \"metrics\": %s}",
      key, run.completed ? "true" : "false", run.seconds, run.goodput_bps,
      static_cast<unsigned long long>(run.data_packets_sent),
      static_cast<unsigned long long>(run.retransmissions),
      static_cast<unsigned long long>(run.messages_delivered),
      run.metrics.to_json().c_str());
}

}  // namespace

std::string ParityReport::to_json() const {
  std::string json = "{";
  json += str_format("\"ok\": %s, ", ok ? "true" : "false");
  json += str_format("\"posix_ran\": %s, ", posix_ran ? "true" : "false");
  json += str_format("\"netem_requested\": %s, ", netem_requested ? "true" : "false");
  json += str_format("\"netem_applied\": %s, ", netem_applied ? "true" : "false");
  json += str_format("\"netem_delivered\": %s, ", netem_delivered ? "true" : "false");
  append_string_list(json, "missing_in_posix", missing_in_posix);
  json += ", ";
  append_string_list(json, "missing_in_sim", missing_in_sim);
  json += ", ";
  append_string_list(json, "failures", failures);
  json += ", ";
  append_backend(json, "sim", sim);
  json += ", ";
  append_backend(json, "posix", posix);
  json += "}";
  return json;
}

ParityReport run_parity(const ParitySpec& spec) {
  ParityReport report;
  report.netem_requested = spec.try_netem;

  const std::string config_error = rmcast::validate(spec.protocol, spec.n_receivers);
  if (!config_error.empty()) {
    report.failures.push_back("invalid protocol config: " + config_error);
    return report;
  }

  // --- Simulated run ------------------------------------------------
  MulticastRunSpec sim_spec;
  sim_spec.n_receivers = spec.n_receivers;
  sim_spec.protocol = spec.protocol;
  sim_spec.message_bytes = spec.message_bytes;
  sim_spec.seed = spec.seed;
  sim_spec.time_limit = spec.sim_time_limit;
  sim_spec.metrics = &report.sim.metrics;
  RunResult sim_result = run_multicast(sim_spec);
  record(sim_result, report.sim);
  if (!sim_result.completed) {
    report.failures.push_back("sim run failed: " + sim_result.error);
  }

  // --- Real-socket run over loopback --------------------------------
  std::string posix_error;
  report.posix_ran = run_posix_once(spec, spec.base_port, report.posix, &posix_error);
  if (report.posix_ran && !posix_error.empty()) {
    report.failures.push_back(posix_error);
  }

  if (report.posix_ran && report.sim.completed && report.posix.completed) {
    // Shape: the backend-neutral metric key sets must be identical.
    const std::set<std::string> sim_keys = neutral_keys(report.sim.metrics);
    const std::set<std::string> posix_keys = neutral_keys(report.posix.metrics);
    for (const std::string& k : sim_keys) {
      if (posix_keys.find(k) == posix_keys.end()) report.missing_in_posix.push_back(k);
    }
    for (const std::string& k : posix_keys) {
      if (sim_keys.find(k) == sim_keys.end()) report.missing_in_sim.push_back(k);
    }
    if (!report.missing_in_posix.empty() || !report.missing_in_sim.empty()) {
      report.failures.push_back(str_format(
          "metric shape diverged: %zu names missing on posix, %zu on sim",
          report.missing_in_posix.size(), report.missing_in_sim.size()));
    }

    // Deterministic counters must agree exactly: the packetization is a
    // pure function of message size and config on both backends.
    if (report.sim.data_packets_sent != report.posix.data_packets_sent) {
      report.failures.push_back(
          str_format("data_packets_sent diverged: sim %llu vs posix %llu",
                     static_cast<unsigned long long>(report.sim.data_packets_sent),
                     static_cast<unsigned long long>(report.posix.data_packets_sent)));
    }
    if (report.sim.messages_delivered != spec.n_receivers ||
        report.posix.messages_delivered != spec.n_receivers) {
      report.failures.push_back(
          str_format("messages_delivered: sim %llu, posix %llu, want %zu",
                     static_cast<unsigned long long>(report.sim.messages_delivered),
                     static_cast<unsigned long long>(report.posix.messages_delivered),
                     spec.n_receivers));
    }

    // Goodput inside the declared band.
    if (report.sim.goodput_bps > 0.0) {
      const double ratio = report.posix.goodput_bps / report.sim.goodput_bps;
      if (ratio < spec.min_goodput_ratio || ratio > spec.max_goodput_ratio) {
        report.failures.push_back(str_format(
            "goodput ratio posix/sim %.4f outside declared [%.4f, %.1f]", ratio,
            spec.min_goodput_ratio, spec.max_goodput_ratio));
      }
    }
  }

  // --- Optional netem stage -----------------------------------------
  if (spec.try_netem && report.posix_ran) {
    NetemGuard guard(spec.netem_spec);
    report.netem_applied = guard.applied();
    if (guard.applied()) {
      ParityBackendRun shaped;
      std::string shaped_error;
      const auto netem_port = static_cast<std::uint16_t>(spec.base_port + 32);
      if (run_posix_once(spec, netem_port, shaped, &shaped_error)) {
        report.netem_delivered = shaped.completed;
        if (!shaped.completed) {
          report.failures.push_back("netem stage: " + shaped_error);
        }
      }
    }
  }

  report.ok = report.failures.empty();
  return report;
}

}  // namespace rmc::harness
