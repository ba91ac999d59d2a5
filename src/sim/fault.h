// Scriptable fault injection for the simulated network.
//
// The paper (§3) assumes fault-free receivers on a lightly loaded LAN; the
// interesting failure modes of real deployments — a receiver process that
// dies mid-transfer, a link that flaps, loss that arrives in bursts rather
// than as independent coin flips — are exactly what that assumption hides.
// This header holds the data types those scenarios are scripted with:
//
//   * GilbertElliottParams / GilbertElliottModel — the classic two-state
//     burst-loss channel (a "good" state and a "bad" state with separate
//     loss rates, with per-frame transition probabilities), used by TxPort
//     alongside its uniform frame_error_rate;
//   * LinkFaults — per-link impairments beyond corruption: burst loss,
//     frame duplication and reordering;
//   * FaultPlan — a schedule of crash/pause/resume/link-flap events at
//     simulated times, interpreted by inet::Cluster::apply_fault_plan().
//
// Everything here is plain data plus a tiny state machine: the sim tier
// knows nothing about hosts or switches, so the same plan can be applied
// to any topology (and unit-tested without one).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "sim/time.h"

namespace rmc::sim {

// Two-state Gilbert–Elliott loss channel. Each frame first advances the
// state (good -> bad with p_good_to_bad, bad -> good with p_bad_to_good),
// then is lost with the current state's loss rate. Mean burst length is
// 1 / p_bad_to_good frames.
struct GilbertElliottParams {
  double p_good_to_bad = 0.0;  // per-frame transition probability
  double p_bad_to_good = 0.1;
  double loss_good = 0.0;  // per-frame loss probability in the good state
  double loss_bad = 1.0;   // ... and in the bad state

  bool enabled() const {
    return p_good_to_bad > 0.0 && (loss_bad > 0.0 || loss_good > 0.0);
  }

  // Long-run loss rate: loss averaged over the stationary distribution of
  // the two states. Lets a bursty sweep be matched against a uniform one
  // at equal average loss.
  double stationary_loss() const;
};

class GilbertElliottModel {
 public:
  explicit GilbertElliottModel(GilbertElliottParams params) : params_(params) {}

  // Advances one frame; returns true if the channel loses it.
  bool drop(Rng& rng);

  const GilbertElliottParams& params() const { return params_; }

 private:
  GilbertElliottParams params_;
  bool bad_ = false;
};

// Per-link impairments applied by TxPort on top of the uniform
// frame_error_rate: burst loss, duplication and reordering. All default
// off, so a default LinkFaults is free.
struct LinkFaults {
  GilbertElliottParams burst;
  double duplicate_rate = 0.0;  // P(delivered frame is delivered twice)
  double reorder_rate = 0.0;    // P(delivery held back 500 us)
  // P(a delivered frame has one payload byte flipped) — corruption that
  // slips past the CRC, unlike frame_error_rate which models CRC-detected
  // loss. The tamper mutates only the copy on this link (payloads are
  // shared across flood fan-out and copy-on-write isolates the mutation).
  double tamper_rate = 0.0;

  bool any() const {
    return burst.enabled() || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           tamper_rate > 0.0;
  }
};

// One scheduled fault. `target` is a receiver node id; the applier maps it
// to whatever entity implements the fault (Cluster maps node i to host
// i + 1, the Figure-7 convention with the sender on host 0).
enum class FaultKind : std::uint8_t {
  kCrash,     // fail-stop: the target's host goes permanently silent
  kPause,     // the process stops sending and receiving (descheduled)
  kResume,    // undo a kPause
  kLinkDown,  // the target's access link drops every frame
  kLinkUp,    // undo a kLinkDown
};

struct FaultEvent {
  Time at = 0;
  FaultKind kind = FaultKind::kCrash;
  std::size_t target = 0;
};

const char* fault_kind_name(FaultKind kind);

// A scriptable schedule of fault events. Builder methods return *this so
// plans compose fluently:
//
//   sim::FaultPlan plan;
//   plan.crash(4, sim::milliseconds(30))
//       .flap_link(7, sim::milliseconds(10), sim::milliseconds(90),
//                  sim::milliseconds(20));
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& crash(std::size_t receiver, Time at);
  FaultPlan& pause(std::size_t receiver, Time at);
  FaultPlan& resume(std::size_t receiver, Time at);
  FaultPlan& link_down(std::size_t receiver, Time at);
  FaultPlan& link_up(std::size_t receiver, Time at);
  // Alternating down/up transitions every `period` in [from, until),
  // starting with down; ends with a final link_up so the link recovers.
  FaultPlan& flap_link(std::size_t receiver, Time from, Time until, Time period);

  bool empty() const { return events.empty(); }
};

// Causal tracing: records the plan's schedule onto the "faults" track of
// `tracer` as kFault events (a = FaultKind, b = target node), so an
// exported timeline shows the injected crash/flap alongside the drops it
// caused. The schedule is static, so this records it up front.
void trace_fault_plan(trace::Tracer& tracer, const FaultPlan& plan);

}  // namespace rmc::sim
