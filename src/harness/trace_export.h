// Trace export and attribution.
//
// Takes the flat event stream a trace::Tracer collected over one or more
// runs and turns it into:
//
//   * a Chrome/Perfetto trace-event JSON file (load it at ui.perfetto.dev
//     or chrome://tracing) — one process per run, one thread per track,
//     "X" spans for wire serializations, instants for protocol events and
//     drops, counter tracks for the timeline series;
//   * an attribution report decomposing the run's communication time into
//     transmit / queueing / loss-recovery / window-stall components, with
//     every retransmission grouped by the root-cause drop that provoked
//     it (queue overflow, burst loss, frame error, link down, ...).
//
// This header also owns the packet-tag convention: the harness installs
// tag_rmcast_packet as the Tracer's PacketTagger, which parses the rmcast
// wire header and packs (packet type, seq) into the opaque 32-bit tag the
// net tier carries on every frame. Tag 0 means "not a traced packet".
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"

namespace rmc::harness {

// ---- Packet tags -----------------------------------------------------------
// Bit 31 set marks a valid tag (so an untagged frame's 0 is unambiguous);
// bits 30..27 carry the rmcast packet type, bits 26..0 the sequence
// number. The type field is four bits wide because the FEC wire types
// (PARITY=8, GROUP_NAK=9) overflow three — a 3-bit field would alias
// them onto 0/DATA and corrupt attribution. 2^27 packets still bounds a
// traced message at ~1 TB of 8 KB packets — far beyond anything the
// testbed sends.

constexpr std::uint32_t kTagValid = 0x8000'0000u;

constexpr std::uint32_t pack_packet_tag(std::uint8_t type, std::uint32_t seq) {
  return kTagValid | (static_cast<std::uint32_t>(type & 0xFu) << 27) |
         (seq & 0x07FF'FFFFu);
}
constexpr bool tag_valid(std::uint32_t tag) { return (tag & kTagValid) != 0; }
constexpr std::uint8_t tag_type(std::uint32_t tag) {
  return static_cast<std::uint8_t>((tag >> 27) & 0xFu);
}
constexpr std::uint32_t tag_seq(std::uint32_t tag) { return tag & 0x07FF'FFFFu; }

// PacketTagger for trace::Tracer: parses the rmcast wire header out of a
// datagram payload. Returns 0 for payloads that are not rmcast packets.
std::uint32_t tag_rmcast_packet(const std::uint8_t* data, std::size_t size);

// ---- Tenant tags (multi-tenant runs) ---------------------------------------
// Multi-tenant traces need to know WHOSE frame sat in a shared switch
// queue, so the tag trades sequence range for a tenant field:
// valid(1) | tenant(8) | type(4) | seq(19). The tenant is recovered from
// the wire header's session id: TenantMix gives tenant t the session base
// (t + 1) << 16, so session >> 16 is t + 1 (0 = a frame outside any
// tenant namespace; values past 255 saturate). 2^19 packets bounds a
// traced tenant message at 4 GB of 8 KB packets — plenty for workloads
// that run hundreds of transfers at once. A tracer uses ONE tag scheme
// for its whole life: single-tenant traces install tag_rmcast_packet and
// unpack with tag_*(), tenant traces install tag_rmcast_tenant_packet and
// unpack with tenant_tag_*() — the two layouts are never mixed.

constexpr std::uint32_t pack_tenant_tag(std::uint8_t tenant, std::uint8_t type,
                                        std::uint32_t seq) {
  return kTagValid | (static_cast<std::uint32_t>(tenant) << 23) |
         (static_cast<std::uint32_t>(type & 0xFu) << 19) | (seq & 0x0007'FFFFu);
}
constexpr std::uint8_t tenant_tag_tenant(std::uint32_t tag) {
  return static_cast<std::uint8_t>((tag >> 23) & 0xFFu);
}
constexpr std::uint8_t tenant_tag_type(std::uint32_t tag) {
  return static_cast<std::uint8_t>((tag >> 19) & 0xFu);
}
constexpr std::uint32_t tenant_tag_seq(std::uint32_t tag) { return tag & 0x0007'FFFFu; }

// PacketTagger for multi-tenant tracers: like tag_rmcast_packet, plus the
// tenant read out of the session id's high half.
std::uint32_t tag_rmcast_tenant_packet(const std::uint8_t* data, std::size_t size);

// ---- Attribution -----------------------------------------------------------

// Where one run's communication time went. Components are disjoint: each
// instant between the first data transmission and completion is charged
// to exactly one of loss-recovery > window-stall > transmit > queueing
// (highest-priority active state wins); `other` is the time before the
// first data transmission (the buffer-allocation handshake).
struct Attribution {
  static constexpr std::size_t kNumCauses = 7;  // DropCause enumerators

  double total_seconds = 0.0;          // first post-ALLOC event to completion
  double other_seconds = 0.0;          // pre-data handshake
  double transmit_seconds = 0.0;       // sender NIC busy, no stall/recovery
  double queueing_seconds = 0.0;       // data phase remainder
  double loss_recovery_seconds = 0.0;  // NAK/RTO to the next original tx
  double window_stall_seconds = 0.0;   // window full, nothing in flight

  std::uint64_t retransmissions = 0;
  // Retransmissions by the root-cause drop, indexed by trace::DropCause.
  std::array<std::uint64_t, kNumCauses> retransmissions_by_cause{};

  // Hybrid FEC: losses repaired locally from parity (no repair traffic),
  // versus `retransmissions` above, and the decode CPU time spent doing
  // it — summed across all receiver tracks.
  std::uint64_t parity_recoveries = 0;
  double fec_decode_seconds = 0.0;

  // Fraction of total_seconds the four named data-phase components (plus
  // the handshake) explain. The acceptance bar is >= 0.95.
  double accounted_fraction() const {
    if (total_seconds <= 0.0) return 1.0;
    return (other_seconds + transmit_seconds + queueing_seconds +
            loss_recovery_seconds + window_stall_seconds) /
           total_seconds;
  }
};

// Computes the attribution for one run's trace. Works on any tracer the
// harness filled: finds the sender track by tier and the sender-NIC track
// by name ("net.P0.nic", or "net.bus.station0" on the shared bus).
Attribution attribute(const trace::Tracer& tracer);

// ---- Export ----------------------------------------------------------------

// An ordered collection of per-run traces (one Tracer per run/grid point),
// exported as a single Chrome trace-event JSON file: run i becomes pid
// i+1, track t becomes tid t+1, and the per-run attribution reports are
// embedded under a top-level "attribution" key (Perfetto ignores unknown
// top-level keys). Runs keep stable addresses: add() references remain
// valid as later runs are added.
class TraceLog {
 public:
  // Appends an empty run and returns its tracer to fill.
  trace::Tracer& add(std::string label);
  // Appends a copy of an already-filled tracer (how the sweep engine folds
  // per-job traces back into ticket order).
  void append(std::string label, const trace::Tracer& tracer);

  std::size_t size() const { return runs_.size(); }
  const std::string& label(std::size_t i) const { return runs_[i]->label; }
  const trace::Tracer& tracer(std::size_t i) const { return runs_[i]->tracer; }

  void write_json(std::FILE* out) const;
  // Returns false (and reports nothing) if the file cannot be opened.
  bool write_json_file(const std::string& path) const;

 private:
  struct Run {
    std::string label;
    trace::Tracer tracer;
  };
  std::vector<std::unique_ptr<Run>> runs_;
};

}  // namespace rmc::harness
