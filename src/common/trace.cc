#include "common/trace.h"

#include <algorithm>

namespace rmc::trace {

const char* drop_cause_name(DropCause cause) {
  switch (cause) {
    case DropCause::kUnknown: return "unknown";
    case DropCause::kQueueOverflow: return "queue_overflow";
    case DropCause::kFrameError: return "frame_error";
    case DropCause::kBurstLoss: return "burst_loss";
    case DropCause::kLinkDown: return "link_down";
    case DropCause::kCollision: return "collision";
    case DropCause::kRcvbufOverflow: return "rcvbuf_overflow";
  }
  return "unknown";
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSenderTx: return "sender_tx";
    case EventKind::kReceiverRx: return "receiver_rx";
    case EventKind::kAckTx: return "ack_tx";
    case EventKind::kNakTx: return "nak_tx";
    case EventKind::kAckRx: return "ack_rx";
    case EventKind::kNakRx: return "nak_rx";
    case EventKind::kWindowAdvance: return "window_advance";
    case EventKind::kWindowStall: return "window_stall";
    case EventKind::kWindowResume: return "window_resume";
    case EventKind::kRtoFire: return "rto_fire";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kComplete: return "complete";
    case EventKind::kFault: return "fault";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kWireTx: return "wire_tx";
    case EventKind::kDrop: return "drop";
    case EventKind::kSample: return "sample";
    case EventKind::kParityTx: return "parity_tx";
    case EventKind::kGroupNakTx: return "group_nak_tx";
    case EventKind::kGroupNakRx: return "group_nak_rx";
    case EventKind::kFecDecode: return "fec_decode";
    case EventKind::kFecRecover: return "fec_recover";
    case EventKind::kAllocReq: return "alloc_req";
    case EventKind::kNakSuppressed: return "nak_suppressed";
    case EventKind::kRepairTx: return "repair_tx";
    case EventKind::kRepairSuppressed: return "repair_suppressed";
    case EventKind::kEvict: return "evict";
    case EventKind::kEvictRx: return "evict_rx";
    case EventKind::kSuspectTx: return "suspect_tx";
    case EventKind::kSuspectRx: return "suspect_rx";
    case EventKind::kParityRx: return "parity_rx";
  }
  return "unknown";
}

std::uint16_t Tracer::track(std::string_view name, TrackTier tier) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].name == name) return static_cast<std::uint16_t>(i);
  }
  tracks_.push_back(Track{std::string(name), tier});
  return static_cast<std::uint16_t>(tracks_.size() - 1);
}

std::uint32_t Tracer::series(std::string_view name) {
  for (std::size_t i = 0; i < series_names_.size(); ++i) {
    if (series_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  series_names_.emplace_back(name);
  return static_cast<std::uint32_t>(series_names_.size() - 1);
}

std::size_t Tracer::count(EventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const Event& e) { return e.kind == kind; }));
}

}  // namespace rmc::trace
