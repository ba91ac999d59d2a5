#include "net/shared_bus.h"

#include <algorithm>

#include "common/panic.h"

namespace rmc::net {

namespace {

// 100 Mbps, like the testbed's switched links.
constexpr double kBusRateBps = 100e6;
// IEEE 802.3: a 512-bit-time slot, 16 attempts per frame, backoff drawn
// from at most 2^10 slots.
constexpr sim::Time kSlotTime = sim::transmission_time(64, kBusRateBps);
constexpr int kMaxAttempts = 16;
constexpr int kBackoffCapExponent = 10;
// Per-station transmit queue, in frames.
constexpr std::size_t kStationQueueFrames = 512;

}  // namespace

SharedBus::SharedBus(sim::Simulator& simulator, Rng& rng) : sim_(simulator), rng_(rng) {}

std::size_t SharedBus::add_station(FrameSink deliver) {
  Station station;
  station.deliver = std::move(deliver);
  stations_.push_back(std::move(station));
  return stations_.size() - 1;
}

std::size_t SharedBus::station_backlog_bytes(std::size_t id) const {
  return stations_.at(id).queued_wire_bytes;
}

void SharedBus::set_dequeue_hook(std::size_t id, std::function<void(std::size_t)> hook) {
  stations_.at(id).dequeue_hook = std::move(hook);
}

std::size_t SharedBus::station_queue_hwm(std::size_t id) const {
  return stations_.at(id).queue_hwm;
}

void SharedBus::set_tracer(trace::Tracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    stations_[i].trace_track =
        tracer == nullptr
            ? 0
            : tracer->track(prefix + ".station" + std::to_string(i),
                            trace::TrackTier::kNet);
  }
}

void SharedBus::send(std::size_t id, Frame frame) {
  RMC_ENSURE(id < stations_.size(), "unknown bus station");
  Station& station = stations_[id];
  if (station.queue.size() >= kStationQueueFrames) {
    ++stats_.queue_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), station.trace_track, frame.trace_tag,
                    trace::DropCause::kQueueOverflow);
    }
    if (station.dequeue_hook) station.dequeue_hook(frame.wire_bytes());
    return;
  }
  station.queued_wire_bytes += frame.wire_bytes();
  station.queue.push_back(std::move(frame));
  ++stats_.frames_enqueued;
  station.queue_hwm = std::max(station.queue_hwm, station.queue.size());
  if (tracer_) {
    tracer_->record(sim_.now(), trace::EventKind::kEnqueue, station.trace_track,
                    station.queue.back().trace_tag,
                    static_cast<std::uint32_t>(station.queue.size()));
  }
  // If the station is already transmitting or waiting out a backoff, the
  // frame just queues behind; otherwise start an attempt now.
  if (!station.backoff_pending && station.queue.size() == 1) attempt(id);
}

sim::Time SharedBus::sensed_busy_until(sim::Time at) const {
  sim::Time busy_until = 0;
  for (const ActiveTx& tx : active_) {
    // A transmission is *sensed* only once its signal has propagated; a
    // station checking within kBusPropagation of the start sees an idle
    // medium — that window is precisely where collisions come from.
    if (tx.start + kBusPropagation <= at) {
      busy_until = std::max(busy_until, tx.end + kBusPropagation);
    }
  }
  return busy_until;
}

void SharedBus::attempt(std::size_t id) {
  Station& station = stations_[id];
  station.backoff_pending = false;
  if (station.queue.empty()) return;

  const sim::Time now = sim_.now();
  if (sim::Time busy_until = sensed_busy_until(now); busy_until > now) {
    // 1-persistent CSMA: wait for the medium and try again immediately.
    station.backoff_pending = true;
    sim_.schedule_at(busy_until, [this, id] { attempt(id); });
    return;
  }

  const Frame& frame = station.queue.front();
  const sim::Time tx_time = sim::transmission_time(frame.wire_bytes(), kBusRateBps);
  ActiveTx tx{id, now, now + tx_time, false, sim::kInvalidEventId};

  // Any transmission already on the wire but not yet sensed collides with
  // this one.
  bool collided_on_start = false;
  for (ActiveTx& other : active_) {
    if (other.start + kBusPropagation > now) {
      collided_on_start = true;
      if (!other.collided) collide(other, now);
    } else if (other.end + kBusPropagation > now) {
      // Sensed-busy was checked above; reaching here would be a model bug.
      RMC_PANIC("started transmission on a sensed-busy medium");
    }
  }

  active_.push_back(tx);
  ActiveTx& self = active_.back();
  if (collided_on_start) {
    collide(self, now);
  } else {
    self.completion = sim_.schedule_at(self.end + kBusPropagation,
                                       [this, id] { complete(id); });
  }
}

void SharedBus::collide(ActiveTx& tx, sim::Time detect_time) {
  ++stats_.collisions;
  tx.collided = true;
  if (tx.completion != sim::kInvalidEventId) {
    sim_.cancel(tx.completion);
    tx.completion = sim::kInvalidEventId;
  }
  // The colliding station jams for one slot time from detection, then the
  // transmission ends.
  const sim::Time abort_time = detect_time + kSlotTime;
  tx.end = std::min(tx.end, abort_time);
  const std::size_t id = tx.station;
  sim_.schedule_at(abort_time, [this, id, abort_time] {
    // Remove this station's active transmission and back off.
    std::erase_if(active_, [id](const ActiveTx& t) { return t.station == id; });
    schedule_backoff(id, abort_time);
  });
}

void SharedBus::schedule_backoff(std::size_t id, sim::Time from) {
  Station& station = stations_[id];
  ++station.attempts;
  if (station.attempts > kMaxAttempts) {
    ++stats_.excessive_collision_drops;
    station.attempts = 0;
    if (!station.queue.empty()) {
      std::size_t bytes = station.queue.front().wire_bytes();
      if (tracer_) {
        tracer_->drop(sim_.now(), station.trace_track,
                      station.queue.front().trace_tag,
                      trace::DropCause::kCollision);
      }
      station.queued_wire_bytes -= bytes;
      station.queue.pop_front();
      if (station.dequeue_hook) station.dequeue_hook(bytes);
    }
    if (!station.queue.empty()) {
      station.backoff_pending = true;
      sim_.schedule_at(from, [this, id] { attempt(id); });
    }
    return;
  }
  const int exponent = std::min(station.attempts, kBackoffCapExponent);
  const std::uint64_t slots = rng_.uniform(1ULL << exponent);
  station.backoff_pending = true;
  sim_.schedule_at(from + static_cast<sim::Time>(slots) * kSlotTime,
                   [this, id] { attempt(id); });
}

void SharedBus::complete(std::size_t id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [id](const ActiveTx& t) { return t.station == id; });
  RMC_ENSURE(it != active_.end(), "completion for unknown transmission");
  RMC_ENSURE(!it->collided, "completion for collided transmission");
  const sim::Time serialization = it->end - it->start;
  active_.erase(it);

  Station& station = stations_[id];
  RMC_ENSURE(!station.queue.empty(), "completion with empty queue");
  Frame frame = std::move(station.queue.front());
  station.queue.pop_front();
  station.queued_wire_bytes -= frame.wire_bytes();
  if (station.dequeue_hook) station.dequeue_hook(frame.wire_bytes());
  station.attempts = 0;
  ++stats_.frames_delivered;
  stats_.busy_time += serialization;
  if (tracer_) {
    tracer_->record(sim_.now() - serialization - kBusPropagation,
                    trace::EventKind::kWireTx, station.trace_track,
                    frame.trace_tag, static_cast<std::uint32_t>(serialization));
  }

  for (std::size_t s = 0; s < stations_.size(); ++s) {
    if (s != id && stations_[s].deliver) stations_[s].deliver(frame);
  }
  if (!station.queue.empty()) attempt(id);
}

}  // namespace rmc::net
