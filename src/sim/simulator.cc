#include "sim/simulator.h"

#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rmc::sim {

namespace {
EventCoreKind g_default_core = EventCoreKind::kPooledWheel;
}  // namespace

const char* event_core_name(EventCoreKind kind) {
  switch (kind) {
    case EventCoreKind::kPooledWheel: return "pooled_wheel";
    case EventCoreKind::kLegacyHeap: return "legacy_heap";
  }
  return "unknown";
}

EventCoreKind default_event_core() { return g_default_core; }
void set_default_event_core(EventCoreKind kind) { g_default_core = kind; }

// The pre-overhaul event core, verbatim: a binary heap of (time, id)
// entries with callbacks in a hash map and lazy cancellation through a
// hash set. Kept as the reference implementation the pooled wheel is
// pinned against (determinism tests) and benchmarked against (smoke.sh's
// sim-core gate).
struct Simulator::LegacyCore {
  struct Entry {
    Time at;
    EventId id;
    // Ordered as a max-heap by default; invert for earliest-first, with id
    // as the tiebreaker so same-time events run FIFO.
    bool operator<(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return id > other.id;
    }
  };

  EventId next_id = 1;
  std::priority_queue<Entry> queue;
  // Callbacks stored separately so the heap entries stay trivially copyable.
  std::unordered_map<EventId, std::function<void()>> callbacks;
  std::unordered_set<EventId> cancelled;
};

Simulator::Simulator(EventCoreKind core) : core_(core) {
  if (core_ == EventCoreKind::kLegacyHeap) legacy_ = std::make_unique<LegacyCore>();
}

Simulator::~Simulator() = default;

EventId Simulator::legacy_schedule(Time at, std::function<void()> fn) {
  EventId id = legacy_->next_id++;
  legacy_->queue.push(LegacyCore::Entry{at, id});
  legacy_->callbacks.emplace(id, std::move(fn));
  return id;
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  if (legacy_) {
    auto it = legacy_->callbacks.find(id);
    if (it == legacy_->callbacks.end()) return;  // already ran or never existed
    legacy_->callbacks.erase(it);
    legacy_->cancelled.insert(id);
    return;
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1u;
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (!pool_.valid_index(idx)) return;
  EventRecord& rec = pool_.at(idx);
  if (rec.gen != gen || !rec.armed) return;  // stale id, or already fired
  rec.armed = false;
  rec.fn.reset();  // free captured resources now; the link is reaped lazily
  --live_;
}

bool Simulator::legacy_step() {
  while (!legacy_->queue.empty()) {
    LegacyCore::Entry entry = legacy_->queue.top();
    legacy_->queue.pop();
    if (auto c = legacy_->cancelled.find(entry.id); c != legacy_->cancelled.end()) {
      legacy_->cancelled.erase(c);
      continue;
    }
    auto it = legacy_->callbacks.find(entry.id);
    RMC_ENSURE(it != legacy_->callbacks.end(), "live event with no callback");
    std::function<void()> fn = std::move(it->second);
    legacy_->callbacks.erase(it);
    now_ = entry.at;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

bool Simulator::step() {
  if (legacy_) return legacy_step();
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

void Simulator::legacy_run_until(Time deadline) {
  while (!legacy_->queue.empty()) {
    LegacyCore::Entry entry = legacy_->queue.top();
    if (auto c = legacy_->cancelled.find(entry.id); c != legacy_->cancelled.end()) {
      legacy_->queue.pop();
      legacy_->cancelled.erase(c);
      continue;
    }
    if (entry.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_until(Time deadline) {
  if (legacy_) {
    legacy_run_until(deadline);
    return;
  }
  while (wheel_.find_next(deadline) != kNilIndex) step();
  if (now_ < deadline) now_ = deadline;
}

std::size_t Simulator::live_events() const {
  if (legacy_) return legacy_->queue.size() - legacy_->cancelled.size();
  return live_;
}

}  // namespace rmc::sim
