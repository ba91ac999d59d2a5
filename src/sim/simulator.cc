#include "sim/simulator.h"

namespace rmc::sim {

void Simulator::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1u;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (!pool_.valid_index(idx)) return;
  EventRecord& rec = pool_.at(idx);
  if (rec.gen != gen || !rec.armed) return;  // stale id, or already fired
  rec.armed = false;
  rec.fn.reset();  // free captured resources now; the link is reaped lazily
  --live_;
}

bool Simulator::step() {
  const std::uint32_t idx = wheel_.find_next();
  if (idx == kNilIndex) return false;
  wheel_.extract_front(idx);
  EventRecord& rec = pool_.at(idx);
  now_ = rec.at;
  ++executed_;
  --live_;
  // Disarm before invoking: a callback cancelling its own id is a no-op,
  // and anything it schedules allocates a different record.
  rec.armed = false;
  rec.fn.invoke();
  rec.fn.reset();
  pool_.release(idx);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time deadline) {
  while (wheel_.find_next(deadline) != kNilIndex) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace rmc::sim
