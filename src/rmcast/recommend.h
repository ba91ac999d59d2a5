// Configuration recommendation distilled from the paper's conclusions.
//
// The study's end product is advice (§5, §6): which protocol and which
// knob settings are most efficient for a given transfer on a switched
// Ethernet LAN. This encodes that advice so applications get a sensible
// configuration from two numbers:
//
//   * messages that fit one packet — the ACK-based, NAK-based and ring
//     protocols behave identically and beat the trees (user-level ACK
//     relaying only adds delay), so use the simplest: ACK-based, with the
//     window of 2 that Figure 10 shows is already optimal;
//   * large messages — the NAK-based protocol with polling wins
//     (Table 3): mid-size packets keep the pipeline full, a generous
//     window absorbs the poll round trip, and the poll interval sits at
//     80-90% of the window regardless of packet size (Figure 12).
//
// Past the paper's 30 receivers the protocol timers must also grow with
// the group: scale_timers_to_group() derives their floors from N, and
// recommend_config() applies it.
#pragma once

#include <cstdint>
#include <string>

#include "rmcast/config.h"
#include "sim/time.h"

namespace rmc::rmcast {

struct Recommendation {
  ProtocolConfig config;
  std::string rationale;
};

Recommendation recommend_config(std::uint64_t message_bytes, std::size_t n_receivers);

// Sender timer budget per receiver. Every receiver's ACK costs the sender
// about 54 us of modelled CPU (inet/host_params.h: kRecvSyscall 40 +
// kRecvPerFragment 6 + kInterruptPerFrame 8), so one N-wide
// acknowledgment wave takes ~N x 54 us to drain; this is that with about
// 2x margin. It is a literal, not computed from those constants, because the
// ledger's sim_scale workload applies the same N x 100 us by hand and the
// two must match.
inline constexpr sim::Time kTimerPerReceiver = sim::microseconds(100);
// Receiver silence budget per receiver, for receiver-driven timeouts.
inline constexpr sim::Time kSilencePerReceiver = sim::milliseconds(1);

// Group-size-scaled timers. A timer shorter than the acknowledgment wave
// fires into the sender's backlog, and every retransmission provokes
// another N-wide wave: a storm that never converges. Likewise a receiver
// that NAKs on silence while the sender drains O(N) control traffic feeds
// the implosion it waits on. So this raises rto and alloc_rto to at least
// N x kTimerPerReceiver, max_rto to at least rto, and, when
// receiver_driven_timeouts is set, receiver_timeout to at least
// N x kSilencePerReceiver. Nothing moves at the paper's N <= 30 with
// the default timers.
void scale_timers_to_group(ProtocolConfig& config, std::size_t n_receivers);

// Loss-aware variant (beyond the paper, which measures an effectively
// error-free switched LAN): `expected_loss` is the anticipated packet
// loss rate on the path. Clean networks get the paper's advice above;
// once losses are frequent enough that NAK/retransmission traffic and
// its latency dominate (>= ~1%, e.g. wireless links or congested
// uplinks), large messages switch to the Reed-Solomon hybrid-FEC
// protocol, which repairs most losses from parity without any repair
// round trip (see bench/abl_ec_crossover).
Recommendation recommend_config(std::uint64_t message_bytes, std::size_t n_receivers,
                                double expected_loss);

}  // namespace rmc::rmcast
