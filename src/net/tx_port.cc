#include "net/tx_port.h"

#include <algorithm>

#include "common/panic.h"

namespace rmc::net {

namespace {

// How long a reordered frame (LinkFaults::reorder_rate) is held back.
constexpr sim::Time kReorderDelay = sim::microseconds(500);

}  // namespace

TxPort::TxPort(sim::Simulator& simulator, LinkParams params, Rng* rng)
    : sim_(simulator), params_(params), rng_(rng), burst_(params.faults.burst) {
  RMC_ENSURE(params_.rate_bps > 0, "link rate must be positive");
  RMC_ENSURE((params_.frame_error_rate == 0.0 && !params_.faults.any()) ||
                 rng_ != nullptr,
             "frame errors and link faults require an Rng");
}

void TxPort::set_faults(const sim::LinkFaults& faults) {
  RMC_ENSURE(!faults.any() || rng_ != nullptr, "link faults require an Rng");
  params_.faults = faults;
  burst_ = sim::GilbertElliottModel(faults.burst);
}

void TxPort::send(Frame frame) {
  if (!link_up_) {
    ++stats_.link_down_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_, frame.trace_tag,
                    trace::DropCause::kLinkDown);
    }
    if (dequeue_hook_) dequeue_hook_(frame.wire_bytes());
    return;
  }
  if (transmitting_ && queue_.size() >= params_.queue_frames) {
    ++stats_.queue_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_, frame.trace_tag,
                    trace::DropCause::kQueueOverflow);
    }
    if (dequeue_hook_) dequeue_hook_(frame.wire_bytes());
    return;
  }
  queued_wire_bytes_ += frame.wire_bytes();
  queue_.push_back(std::move(frame));
  ++stats_.frames_enqueued;
  stats_.peak_queue_frames = std::max(stats_.peak_queue_frames, queue_length());
  if (tracer_) {
    tracer_->record(sim_.now(), trace::EventKind::kEnqueue, trace_track_,
                    queue_.back().trace_tag,
                    static_cast<std::uint32_t>(queue_length()));
  }
  if (!transmitting_) start_next();
}

void TxPort::start_next() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  Frame frame = std::move(queue_.front());
  queue_.pop_front();
  queued_wire_bytes_ -= frame.wire_bytes();
  if (dequeue_hook_) dequeue_hook_(frame.wire_bytes());

  const sim::Time tx_time = sim::transmission_time(frame.wire_bytes(), params_.rate_bps);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.wire_bytes();
  stats_.busy_time += tx_time;
  if (tracer_) {
    tracer_->record(sim_.now(), trace::EventKind::kWireTx, trace_track_,
                    frame.trace_tag, static_cast<std::uint32_t>(tx_time));
  }

  const bool corrupted = params_.frame_error_rate > 0.0 && rng_ != nullptr &&
                         rng_->chance(params_.frame_error_rate);
  const bool burst_lost =
      params_.faults.burst.enabled() && rng_ != nullptr && burst_.drop(*rng_);
  if (!link_up_) {
    // The carrier dropped while this frame was queued: it serializes into
    // a dead wire.
    ++stats_.link_down_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_, frame.trace_tag,
                    trace::DropCause::kLinkDown);
    }
  } else if (corrupted) {
    ++stats_.error_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_, frame.trace_tag,
                    trace::DropCause::kFrameError);
    }
  } else if (burst_lost) {
    ++stats_.burst_drops;
    if (tracer_) {
      tracer_->drop(sim_.now(), trace_track_, frame.trace_tag,
                    trace::DropCause::kBurstLoss);
    }
  } else {
    // Store-and-forward: the frame is delivered once fully serialized plus
    // the wire propagation delay. Injected reordering holds the delivery
    // back so a later frame overtakes it; injected duplication delivers a
    // second copy one propagation later (a duplicated frame on a real LAN
    // arrives back-to-back).
    sim::Time delay = tx_time + params_.propagation;
    if (params_.faults.tamper_rate > 0.0 && rng_ != nullptr &&
        frame.payload_size() > 0 && rng_->chance(params_.faults.tamper_rate)) {
      // Undetected corruption: flip one payload byte. mutable_data() is
      // copy-on-write, so other ports flooding the same payload block
      // still carry pristine bytes; only this link's copy is dirtied.
      ++stats_.tampered_frames;
      const std::size_t pos = rng_->uniform(frame.payload_size());
      frame.payload.mutable_data()[pos] ^= 0x80;
    }
    if (params_.faults.reorder_rate > 0.0 && rng_ != nullptr &&
        rng_->chance(params_.faults.reorder_rate)) {
      ++stats_.reordered_frames;
      delay += kReorderDelay;
    }
    if (params_.faults.duplicate_rate > 0.0 && rng_ != nullptr &&
        rng_->chance(params_.faults.duplicate_rate)) {
      ++stats_.duplicated_frames;
      deliver_after(delay + params_.propagation, frame);
    }
    deliver_after(delay, std::move(frame));
  }
  // The transmitter is busy for the serialization time regardless of
  // whether the frame survives the wire.
  sim_.schedule_after(tx_time, [this] { start_next(); });
}

void TxPort::deliver_after(sim::Time delay, Frame frame) {
  sim_.schedule_after(delay, [this, frame = std::move(frame)] {
    if (sink_) sink_(frame);
  });
}

}  // namespace rmc::net
