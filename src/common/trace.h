// Structured causal tracing: the event stream behind Perfetto exports,
// sim-time timelines and the loss/stall attribution report.
//
// The metrics registry (common/metrics.h) answers "how much, how long" at
// the end of a run; a Tracer answers "when, and why" inside one. Three
// coordinated record kinds share one flat event vector:
//
//   * protocol events — sender/receiver lifecycle points (transmit,
//     receive, ACK/NAK in both directions, window advance/stall/resume,
//     RTO, deliver, complete, handshake, suppression, repair, eviction),
//     reported once per site by rmcast::MulticastSender /
//     MulticastReceiver: into the tracer when one is attached, and always
//     into the flight recorder under the same event_kind_name();
//   * network events — per-port enqueue / wire-serialization / drop
//     records from TxPort, EthernetSwitch, SharedBus and the host socket
//     tier, each drop tagged with its cause (DropCause) and each frame
//     tagged with an opaque packet tag so a drop can be traced back to
//     the protocol packet it carried;
//   * timeline samples — periodic snapshots of scalar series (queue
//     depth, goodput, outstanding window, retransmission rate) taken by
//     the harness sampler at a configurable sim-time interval.
//
// The null sink is a null pointer: every instrumented tier holds a
// `trace::Tracer*` defaulting to nullptr and guards each hook with one
// predictable branch, so an untraced run pays a pointer test per event
// and nothing else (bench/smoke.sh gates the overhead at <5% on the
// event-churn microbenchmark).
//
// Events carry integer sim-time nanoseconds and integer operands, so a
// trace is bit-reproducible: the determinism suite compares whole traces
// across repeated same-seed runs and sweep parallelism.
//
// Layering: this header lives in common and knows nothing about rmcast.
// Packet tags are minted by an installable PacketTagger callback — the
// harness installs one that parses the rmcast header; the net tier only
// forwards the opaque tag (net::Frame::trace_tag).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rmc::trace {

// Why a frame or datagram died. Every drop site in the network model maps
// onto exactly one cause, so the attribution report can group
// retransmissions by root cause.
enum class DropCause : std::uint8_t {
  kUnknown = 0,
  kQueueOverflow,   // drop-tail transmit FIFO full
  kFrameError,      // uniform per-frame corruption (CRC loss)
  kBurstLoss,       // Gilbert–Elliott bad-state loss
  kLinkDown,        // carrier down (fault injection)
  kCollision,       // shared bus gave up after excessive collisions
  kRcvbufOverflow,  // host socket receive buffer overflow
};

const char* drop_cause_name(DropCause cause);

enum class EventKind : std::uint8_t {
  // Protocol tier. Operand meanings in the trailing comments.
  kSenderTx = 0,   // a=seq, b=1 if retransmission
  kReceiverRx,     // a=seq, b=1 if duplicate
  kAckTx,          // a=cumulative count acknowledged
  kNakTx,          // a=first missing seq
  kAckRx,          // a=node, b=cumulative count
  kNakRx,          // a=node, b=first missing seq
  kWindowAdvance,  // a=new window base
  kWindowStall,    // a=window base at stall
  kWindowResume,   // a=window base at resume
  kRtoFire,        // a=window base at timeout
  kDeliver,        // a=session, b=message bytes (low 32 bits)
  kComplete,       // a=session
  kFault,          // a=sim::FaultKind value, b=target node
  // Network tier. `a` is the packet tag (0 = untraced payload).
  kEnqueue,  // b=queue depth after the enqueue (queued + transmitting)
  kWireTx,   // b=serialization time in ns (the span duration)
  kDrop,     // b=DropCause
  // Timelines.
  kSample,  // a=series id; `value` holds the sample
  // Hybrid FEC (appended so existing kind values — and every golden
  // trace that embeds them — stay stable).
  kParityTx,    // a=group*m+index (the parity seq space)
  kGroupNakTx,  // a=group id, b=popcount of the missing bitmap
  kGroupNakRx,  // a=node, b=group id
  kFecDecode,   // a=group id, b=decode span duration in ns
  kFecRecover,  // a=seq of a data block rebuilt from parity
  // Handshake, suppression, peer repair, eviction and parity arrival
  // (appended for the same reason).
  kAllocReq,          // a=total packets, b=session (sender)
  kNakSuppressed,     // a=gap seq, b=NakSuppressReason (receiver)
  kRepairTx,          // a=seq multicast as a peer repair (receiver)
  kRepairSuppressed,  // a=seq whose peer repair was withheld (receiver)
  kEvict,             // a=evicted node, b=its last cumulative count (sender)
  kEvictRx,           // a=node named by an EVICT notice (receiver)
  kSuspectTx,         // a=suspected child node (receiver, tree parent)
  kSuspectRx,         // a=reporting node, b=suspected node (sender)
  kParityRx,          // a=group*m+index, b=group (receiver)
};
inline constexpr EventKind kLastEventKind = EventKind::kParityRx;

// Why a receiver withheld a NAK it wanted to send (kNakSuppressed's b).
enum class NakSuppressReason : std::uint8_t {
  kRateLimited,  // within kNakInterval of the previous NAK
  kPeerCovered,  // a peer's multicast NAK already covers the gap
};

const char* event_kind_name(EventKind kind);

// Which lane of the exported trace a track belongs to; the exporter maps
// tiers to thread ordering so sender / receivers / ports group sensibly.
enum class TrackTier : std::uint8_t { kSender, kReceiver, kNet, kFaults, kTimeline };

struct Event {
  std::int64_t at = 0;  // sim-time nanoseconds
  EventKind kind = EventKind::kSenderTx;
  std::uint16_t track = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double value = 0.0;  // kSample only

  bool operator==(const Event&) const = default;
};

struct Track {
  std::string name;
  TrackTier tier = TrackTier::kNet;

  bool operator==(const Track&) const = default;
};

// Maps a datagram payload to a nonzero packet tag (0 = not a traced
// packet). Installed by the harness, which knows the rmcast wire format;
// everything below the harness treats tags as opaque.
using PacketTagger =
    std::function<std::uint32_t(const std::uint8_t* data, std::size_t size)>;

class Tracer {
 public:
  // Returns the id for `name`, creating the track on first use. Track ids
  // are dense and assigned in creation order (deterministic given a
  // deterministic run).
  std::uint16_t track(std::string_view name, TrackTier tier);

  // Returns the id for timeline series `name`, creating it on first use.
  std::uint32_t series(std::string_view name);

  void record(std::int64_t at, EventKind kind, std::uint16_t track,
              std::uint32_t a = 0, std::uint32_t b = 0) {
    if (capacity_ != 0 && events_.size() >= capacity_) {
      ++truncated_;
      return;
    }
    events_.push_back(Event{at, kind, track, a, b, 0.0});
  }

  void drop(std::int64_t at, std::uint16_t track, std::uint32_t tag, DropCause cause) {
    record(at, EventKind::kDrop, track, tag, static_cast<std::uint32_t>(cause));
  }

  void sample(std::int64_t at, std::uint16_t track, std::uint32_t series_id,
              double value) {
    if (capacity_ != 0 && events_.size() >= capacity_) {
      ++truncated_;
      return;
    }
    events_.push_back(
        Event{at, EventKind::kSample, track, series_id, 0, value});
  }

  void set_packet_tagger(PacketTagger tagger) { tagger_ = std::move(tagger); }
  std::uint32_t tag_packet(const std::uint8_t* data, std::size_t size) const {
    return tagger_ ? tagger_(data, size) : 0u;
  }

  // 0 = unbounded. When bounded, events beyond the cap are counted in
  // truncated() instead of stored.
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }
  std::uint64_t truncated() const { return truncated_; }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<std::string>& series_names() const { return series_names_; }
  const std::string& track_name(std::uint16_t id) const { return tracks_[id].name; }

  std::size_t count(EventKind kind) const;

  void clear() {
    events_.clear();
    truncated_ = 0;
  }

  // Structural equality (tracks, series, events) — what the determinism
  // suite compares. The tagger is excluded: it is configuration, not
  // output.
  bool same_as(const Tracer& other) const {
    return events_ == other.events_ && tracks_ == other.tracks_ &&
           series_names_ == other.series_names_;
  }

 private:
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  std::vector<std::string> series_names_;
  PacketTagger tagger_;
  std::size_t capacity_ = 0;
  std::uint64_t truncated_ = 0;
};

}  // namespace rmc::trace
