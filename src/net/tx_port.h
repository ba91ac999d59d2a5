// One transmit direction of a full-duplex Ethernet link.
//
// A TxPort owns a drop-tail FIFO of frames and a model of the wire: frames
// serialize one at a time at the link rate (including preamble/IFG), then
// arrive at the peer after the propagation delay. Hosts and switch egress
// ports are both built from TxPorts; a full-duplex cable is simply two
// TxPorts pointed at each other's devices.
//
// Frame errors are modelled at the receiving end of the wire: a corrupted
// frame consumes its full serialization time but is never delivered, which
// is exactly what a CRC-failing frame costs a real network.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/rng.h"
#include "common/trace.h"
#include "net/frame.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace rmc::net {

struct LinkParams {
  double rate_bps = 100e6;                       // Fast Ethernet
  sim::Time propagation = sim::nanoseconds(500);  // ~100 m of cable
  std::size_t queue_frames = 512;                // drop-tail transmit queue
  double frame_error_rate = 0.0;                 // per-frame corruption probability
  // Injected impairments beyond uniform corruption: Gilbert–Elliott burst
  // loss, duplication, reordering. Default off.
  sim::LinkFaults faults;
};

// Invoked when a frame fully arrives at the receiving device.
using FrameSink = std::function<void(const Frame&)>;

class TxPort {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;  // wire bytes, incl. framing overhead
    std::uint64_t frames_enqueued = 0;  // accepted into the queue
    std::uint64_t queue_drops = 0;
    std::uint64_t error_drops = 0;
    // Fault-injection accounting (LinkFaults / set_link_up).
    std::uint64_t burst_drops = 0;       // Gilbert–Elliott losses
    std::uint64_t duplicated_frames = 0;
    std::uint64_t reordered_frames = 0;
    std::uint64_t tampered_frames = 0;  // payload mutated in flight (COW)
    std::uint64_t link_down_drops = 0;
    // High-water mark of queue depth (queued + transmitting), in frames —
    // how close the port came to drop-tail loss even when nothing dropped.
    std::size_t peak_queue_frames = 0;
    sim::Time busy_time = 0;  // total serialization time (link-busy time)
  };

  // `rng` may be null when frame_error_rate == 0.
  TxPort(sim::Simulator& simulator, LinkParams params, Rng* rng = nullptr);
  TxPort(const TxPort&) = delete;
  TxPort& operator=(const TxPort&) = delete;

  // Sets the receiving device at the far end of the wire.
  void connect(FrameSink sink) { sink_ = std::move(sink); }

  // Invoked with a frame's wire bytes whenever the frame leaves the queue
  // — serialization begins or the frame is dropped. Hosts use this to
  // model SO_SNDBUF: a sendto() blocks until its datagram fits in the
  // transmit backlog, which is how the kernel paced the reproduced
  // implementation's sender.
  void set_dequeue_hook(std::function<void(std::size_t wire_bytes)> hook) {
    dequeue_hook_ = std::move(hook);
  }

  // Enqueues a frame for transmission; drops it if the queue is full.
  void send(Frame frame);

  // Causal tracing: records enqueue / wire-serialization / drop events
  // onto `track` of `tracer`, each carrying the frame's packet tag and
  // (for drops) the cause. Null detaches; an untraced port pays one
  // branch per event.
  void set_tracer(trace::Tracer* tracer, std::uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // Carrier control for fault injection: while the link is down every
  // frame entering or surfacing from the queue is dropped (the queue keeps
  // draining — a downed cable loses frames, it does not preserve them).
  void set_link_up(bool up) { link_up_ = up; }
  bool link_up() const { return link_up_; }
  // Replaces the port's LinkFaults from the next frame on (needs an Rng
  // when any fault is set).
  void set_faults(const sim::LinkFaults& faults);

  std::size_t queue_length() const { return queue_.size() + (transmitting_ ? 1 : 0); }
  // Wire bytes waiting in the queue (excluding the frame on the wire).
  std::size_t queued_wire_bytes() const { return queued_wire_bytes_; }
  bool idle() const { return !transmitting_ && queue_.empty(); }
  const Stats& stats() const { return stats_; }
  const LinkParams& params() const { return params_; }

 private:
  void start_next();
  void deliver_after(sim::Time delay, Frame frame);

  sim::Simulator& sim_;
  LinkParams params_;
  Rng* rng_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t trace_track_ = 0;
  FrameSink sink_;
  std::function<void(std::size_t)> dequeue_hook_;
  std::deque<Frame> queue_;
  std::size_t queued_wire_bytes_ = 0;
  bool transmitting_ = false;
  bool link_up_ = true;
  sim::GilbertElliottModel burst_;
  Stats stats_;
};

}  // namespace rmc::net
