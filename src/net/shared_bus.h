// Shared-media Ethernet segment with CSMA/CD and binary exponential backoff.
//
// The paper (§3) notes that on shared media the MAC layer may fail to
// resolve many simultaneous transmissions efficiently, which motivates the
// tree protocols' limit on concurrent transmissions. This model exists to
// test that claim (bench/abl_bus_vs_switch): stations carrier-sense with a
// 1-persistent policy, collide when they start within one propagation
// delay of each other, jam for one slot time, and back off by a uniformly
// drawn number of slot times doubling per attempt (capped at 2^10), giving
// up after 16 attempts — the classic IEEE 802.3 algorithm.
//
// Every successfully transmitted frame is delivered to all other stations;
// the receiving NIC is responsible for address filtering, exactly as on a
// real bus.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "net/tx_port.h"
#include "sim/simulator.h"

namespace rmc::net {

// End-to-end propagation delay of the segment.
inline constexpr sim::Time kBusPropagation = sim::microseconds(2);

class SharedBus {
 public:
  SharedBus(sim::Simulator& simulator, Rng& rng);

  // Registers a station; `deliver` is invoked for every frame successfully
  // transmitted by any other station. Returns the station id.
  std::size_t add_station(FrameSink deliver);

  // Transmit entry point for station `id` (hook a NIC's output here).
  void send(std::size_t id, Frame frame);
  FrameSink station_tx(std::size_t id) {
    return [this, id](const Frame& frame) { send(id, frame); };
  }

  // Backpressure plumbing, mirroring TxPort: wire bytes queued at a
  // station and a notification when a frame leaves its queue.
  std::size_t station_backlog_bytes(std::size_t id) const;
  void set_dequeue_hook(std::size_t id, std::function<void(std::size_t)> hook);

  // High-water mark of station `id`'s transmit queue, in frames.
  std::size_t station_queue_hwm(std::size_t id) const;

  // Causal tracing: one track per station ("<prefix>.stationS") carrying
  // enqueue / wire / drop events; collision give-ups are drops with cause
  // kCollision. Must be called after all stations are registered.
  void set_tracer(trace::Tracer* tracer, const std::string& prefix);

  struct Stats {
    std::uint64_t frames_delivered = 0;
    std::uint64_t frames_enqueued = 0;  // accepted into a station queue
    std::uint64_t collisions = 0;
    std::uint64_t excessive_collision_drops = 0;
    std::uint64_t queue_drops = 0;
    // Serialization time of successfully delivered frames — how long the
    // medium carried useful signal (collisions and jams excluded).
    sim::Time busy_time = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Station {
    FrameSink deliver;
    std::deque<Frame> queue;
    std::size_t queued_wire_bytes = 0;
    std::size_t queue_hwm = 0;  // deepest the queue has ever been
    std::function<void(std::size_t)> dequeue_hook;
    std::uint16_t trace_track = 0;
    int attempts = 0;
    bool backoff_pending = false;  // an attempt is already scheduled
  };

  struct ActiveTx {
    std::size_t station;
    sim::Time start;
    sim::Time end;  // serialization end (adjusted on collision abort)
    bool collided = false;
    sim::EventId completion = sim::kInvalidEventId;
  };

  void attempt(std::size_t id);
  void complete(std::size_t tx_index_station);
  void collide(ActiveTx& tx, sim::Time detect_time);
  void schedule_backoff(std::size_t id, sim::Time from);
  // Latest instant the medium is sensed busy, or kNever-free (0) if idle.
  sim::Time sensed_busy_until(sim::Time at) const;

  sim::Simulator& sim_;
  Rng& rng_;
  trace::Tracer* tracer_ = nullptr;
  std::vector<Station> stations_;
  std::vector<ActiveTx> active_;
  Stats stats_;
};

}  // namespace rmc::net
