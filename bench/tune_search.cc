// Parameter-space probe — the paper's Table 3 methodology, automated.
// "The data are obtained by probing the parameter space for each type of
// protocol and selecting the ones that can provide the best performance"
// (§5). This binary runs that probe: a grid over packet size, window and
// protocol-specific knobs for each protocol family, reporting the best
// configuration found and how it compares to the paper's hand-tuned one.
#include <algorithm>

#include "bench_util.h"
#include "rmcast/engine/registry.h"

namespace rmc {
namespace {

struct Best {
  double seconds = 1e18;
  rmcast::ProtocolConfig config;
};

int run(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);

  const std::size_t n_receivers = 30;
  const std::uint64_t message = 2 * 1024 * 1024;
  std::vector<std::size_t> packets = {1000, 2000, 4000, 8000, 16'000, 32'000, 50'000};
  std::vector<std::size_t> windows = {2, 5, 10, 20, 35, 50};
  if (options.quick) {
    packets = {8000, 50'000};
    windows = {5, 35, 50};
  }

  auto probe = [&](const std::vector<rmcast::ProtocolConfig>& variants) {
    // Batch-submit every valid variant, then scan for the best: the grid
    // points probe concurrently across the sweep workers.
    Best best;
    std::vector<const rmcast::ProtocolConfig*> valid;
    std::vector<bench::RunHandle> handles;
    for (const rmcast::ProtocolConfig& config : variants) {
      if (!rmcast::validate(config, n_receivers).empty()) continue;
      harness::MulticastRunSpec spec;
      spec.n_receivers = n_receivers;
      spec.message_bytes = message;
      spec.protocol = config;
      spec.seed = options.seed;
      valid.push_back(&config);
      handles.push_back(bench::run_async(spec, options));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const harness::RunResult& r = handles[i].get();
      if (r.completed && r.seconds < best.seconds) {
        best.seconds = r.seconds;
        best.config = *valid[i];
      }
    }
    std::fprintf(stderr, "  probed %zu configurations\n", handles.size());
    return best;
  };

  auto grid = [&](rmcast::ProtocolKind kind) {
    // The kind-specific knob axes live with the engines: each registry
    // entry expands a (packet, window) point into its own grid points.
    const rmcast::EngineEntry& entry = rmcast::ProtocolRegistry::instance().entry(kind);
    std::vector<rmcast::ProtocolConfig> out;
    for (std::size_t pkt : packets) {
      for (std::size_t win : windows) {
        rmcast::ProtocolConfig c;
        c.kind = kind;
        c.packet_size = pkt;
        c.window_size = win;
        entry.traits.tuning_variants(c, out);
      }
    }
    // A kind's expansion can map distinct grid points onto one config (the
    // EC kinds raise the window to k + m); probe each config once.
    std::vector<rmcast::ProtocolConfig> unique;
    for (const rmcast::ProtocolConfig& c : out) {
      if (std::find(unique.begin(), unique.end(), c) == unique.end()) unique.push_back(c);
    }
    return unique;
  };

  // The probe rows ARE the registry: every protocol kind — name, paper
  // reference throughput, knob axes — comes from its EngineTraits, so a
  // new engine entry (the EC kinds included) shows up here with no edits.
  harness::Table table({"protocol", "best_config_found", "throughput", "paper_tuned"});
  for (const rmcast::EngineEntry& e : rmcast::ProtocolRegistry::instance().entries()) {
    std::fprintf(stderr, "probing %s...\n", e.traits.display_name);
    Best best = probe(grid(e.kind));
    double mbps = best.seconds < 1e17 ? message * 8.0 / best.seconds / 1e6 : 0.0;
    table.add_row({e.traits.display_name,
                   best.seconds < 1e17 ? best.config.describe() : "none found",
                   str_format("%.1fMbps", mbps),
                   e.traits.paper_mbps > 0
                       ? str_format("%.1fMbps", e.traits.paper_mbps)
                       : "n/a"});
  }
  bench::emit(table, options,
              "Parameter-space probe (the paper's Table 3 method): best configuration "
              "per protocol, 2MB to 30 receivers");
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
