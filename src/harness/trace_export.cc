#include "harness/trace_export.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "rmcast/wire.h"

namespace rmc::harness {

std::uint32_t tag_rmcast_packet(const std::uint8_t* data, std::size_t size) {
  if (data == nullptr || size < rmcast::kHeaderBytes) return 0;
  const std::uint8_t type = data[0];
  if (type < static_cast<std::uint8_t>(rmcast::PacketType::kData) ||
      type > static_cast<std::uint8_t>(rmcast::PacketType::kGroupNak)) {
    return 0;
  }
  // seq: bytes 8..11, big-endian (see rmcast/wire.h).
  const std::uint32_t seq = (static_cast<std::uint32_t>(data[8]) << 24) |
                            (static_cast<std::uint32_t>(data[9]) << 16) |
                            (static_cast<std::uint32_t>(data[10]) << 8) |
                            static_cast<std::uint32_t>(data[11]);
  return pack_packet_tag(type, seq);
}

std::uint32_t tag_rmcast_tenant_packet(const std::uint8_t* data, std::size_t size) {
  if (data == nullptr || size < rmcast::kHeaderBytes) return 0;
  const std::uint8_t type = data[0];
  if (type < static_cast<std::uint8_t>(rmcast::PacketType::kData) ||
      type > static_cast<std::uint8_t>(rmcast::PacketType::kGroupNak)) {
    return 0;
  }
  // session: bytes 4..7, big-endian; its high half is tenant + 1 under the
  // TenantMix session-base convention (saturated into the 8-bit field).
  const std::uint32_t session_hi = (static_cast<std::uint32_t>(data[4]) << 8) |
                                   static_cast<std::uint32_t>(data[5]);
  const std::uint8_t tenant =
      static_cast<std::uint8_t>(session_hi > 0xFF ? 0xFF : session_hi);
  const std::uint32_t seq = (static_cast<std::uint32_t>(data[8]) << 24) |
                            (static_cast<std::uint32_t>(data[9]) << 16) |
                            (static_cast<std::uint32_t>(data[10]) << 8) |
                            static_cast<std::uint32_t>(data[11]);
  return pack_tenant_tag(tenant, type, seq);
}

namespace {

// Time-ordered view of the event stream. The shared bus backdates its
// wire-serialization spans to the transmission start, so the stored order
// is not strictly chronological; the stable sort keeps equal-time events
// in recording order (deterministic).
std::vector<const trace::Event*> time_ordered(const trace::Tracer& tracer) {
  std::vector<const trace::Event*> ordered;
  ordered.reserve(tracer.events().size());
  for (const trace::Event& e : tracer.events()) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const trace::Event* a, const trace::Event* b) {
                     return a->at < b->at;
                   });
  return ordered;
}

int find_track(const trace::Tracer& tracer, std::string_view name) {
  for (std::size_t i = 0; i < tracer.tracks().size(); ++i) {
    if (tracer.tracks()[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

struct Interval {
  std::int64_t lo;
  std::int64_t hi;
};

}  // namespace

Attribution attribute(const trace::Tracer& tracer) {
  Attribution out;
  if (tracer.events().empty()) return out;
  const auto ordered = time_ordered(tracer);

  int sender_track = -1;
  for (std::size_t i = 0; i < tracer.tracks().size(); ++i) {
    if (tracer.tracks()[i].tier == trace::TrackTier::kSender) {
      sender_track = static_cast<int>(i);
      break;
    }
  }
  int nic_track = find_track(tracer, "net.P0.nic");
  if (nic_track < 0) nic_track = find_track(tracer, "net.bus.station0");

  // The span opens at the first event after the sender's ALLOC request
  // (normally the request's enqueue on the wire): the host-side send path
  // ahead of it is charged to no component.
  const auto first =
      std::find_if(ordered.begin(), ordered.end(), [](const trace::Event* e) {
        return e->kind != trace::EventKind::kAllocReq;
      });
  const std::int64_t t0 = (first != ordered.end() ? *first : ordered.front())->at;
  std::int64_t t_end = ordered.back()->at;
  for (const trace::Event* e : ordered) {
    if (e->kind == trace::EventKind::kComplete && e->track == sender_track) {
      t_end = e->at;
      break;
    }
  }
  std::int64_t first_tx = t_end;
  for (const trace::Event* e : ordered) {
    if (e->kind == trace::EventKind::kSenderTx && e->track == sender_track) {
      first_tx = e->at;
      break;
    }
  }
  out.total_seconds = static_cast<double>(t_end - t0) * 1e-9;
  out.other_seconds = static_cast<double>(first_tx - t0) * 1e-9;

  // Component intervals. Recovery runs from the first NAK/RTO of an
  // episode to the next original (non-retransmission) data send; a stall
  // runs from the stall transition to the matching resume.
  std::vector<Interval> by_class[3];  // 0=recovery, 1=stall, 2=transmit
  bool in_stall = false, in_recovery = false;
  std::int64_t stall_start = 0, rec_start = 0;
  for (const trace::Event* e : ordered) {
    if (e->at > t_end) break;
    if (static_cast<int>(e->track) == sender_track) {
      switch (e->kind) {
        case trace::EventKind::kWindowStall:
          if (!in_stall) {
            in_stall = true;
            stall_start = e->at;
          }
          break;
        case trace::EventKind::kWindowResume:
          if (in_stall) {
            by_class[1].push_back({stall_start, e->at});
            in_stall = false;
          }
          break;
        case trace::EventKind::kNakRx:
        case trace::EventKind::kRtoFire:
          if (!in_recovery) {
            in_recovery = true;
            rec_start = e->at;
          }
          break;
        case trace::EventKind::kSenderTx:
          if (in_recovery && e->b == 0) {
            by_class[0].push_back({rec_start, e->at});
            in_recovery = false;
          }
          break;
        default:
          break;
      }
    }
    if (e->kind == trace::EventKind::kWireTx &&
        static_cast<int>(e->track) == nic_track) {
      by_class[2].push_back({e->at, e->at + static_cast<std::int64_t>(e->b)});
    }
  }
  if (in_stall) by_class[1].push_back({stall_start, t_end});
  if (in_recovery) by_class[0].push_back({rec_start, t_end});

  // Boundary sweep over the data phase [first_tx, t_end]: each segment is
  // charged to the highest-priority active class, or to queueing when
  // nothing else claims it.
  struct Boundary {
    std::int64_t t;
    int cls;
    int delta;
  };
  std::vector<Boundary> boundaries;
  for (int cls = 0; cls < 3; ++cls) {
    for (Interval iv : by_class[cls]) {
      iv.lo = std::max(iv.lo, first_tx);
      iv.hi = std::min(iv.hi, t_end);
      if (iv.lo >= iv.hi) continue;
      boundaries.push_back({iv.lo, cls, +1});
      boundaries.push_back({iv.hi, cls, -1});
    }
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.t < b.t; });
  std::int64_t comp[4] = {0, 0, 0, 0};  // recovery, stall, transmit, queueing
  int active[3] = {0, 0, 0};
  std::int64_t prev = first_tx;
  auto charge = [&](std::int64_t until) {
    if (until <= prev) return;
    const int cls = active[0] > 0 ? 0 : active[1] > 0 ? 1 : active[2] > 0 ? 2 : 3;
    comp[cls] += until - prev;
    prev = until;
  };
  for (const Boundary& b : boundaries) {
    charge(b.t);
    active[b.cls] += b.delta;
  }
  charge(t_end);
  out.loss_recovery_seconds = static_cast<double>(comp[0]) * 1e-9;
  out.window_stall_seconds = static_cast<double>(comp[1]) * 1e-9;
  out.transmit_seconds = static_cast<double>(comp[2]) * 1e-9;
  out.queueing_seconds = static_cast<double>(comp[3]) * 1e-9;

  // Retransmission root causes: a drop of a tagged DATA frame records its
  // cause against that seq; a retransmission of the seq claims it. A
  // retransmission with no per-seq record (e.g. provoked by a lost ACK)
  // falls back to the most recent drop of any kind; kUnknown only appears
  // when the trace holds no drop at all.
  std::map<std::uint32_t, trace::DropCause> pending;
  bool saw_drop = false;
  trace::DropCause last_cause = trace::DropCause::kUnknown;
  for (const trace::Event* e : ordered) {
    if (e->kind == trace::EventKind::kDrop) {
      const auto cause = static_cast<trace::DropCause>(e->b);
      saw_drop = true;
      last_cause = cause;
      if (tag_valid(e->a) &&
          tag_type(e->a) == static_cast<std::uint8_t>(rmcast::PacketType::kData)) {
        pending[tag_seq(e->a)] = cause;
      }
    } else if (e->kind == trace::EventKind::kSenderTx && e->b == 1 &&
               static_cast<int>(e->track) == sender_track) {
      ++out.retransmissions;
      trace::DropCause cause = trace::DropCause::kUnknown;
      if (auto it = pending.find(e->a); it != pending.end()) {
        cause = it->second;
      } else if (saw_drop) {
        cause = last_cause;
      }
      ++out.retransmissions_by_cause[static_cast<std::size_t>(cause)];
    } else if (e->kind == trace::EventKind::kFecRecover) {
      ++out.parity_recoveries;
    } else if (e->kind == trace::EventKind::kFecDecode) {
      out.fec_decode_seconds += static_cast<double>(e->b) * 1e-9;
    }
  }
  return out;
}

// ---- JSON writer -----------------------------------------------------------

namespace {

void write_escaped(std::FILE* out, std::string_view s) {
  std::string quoted;
  append_json_string(quoted, s);
  std::fwrite(quoted.data(), 1, quoted.size(), out);
}

// Trace-event timestamps are microseconds; events carry nanoseconds.
// Integer math keeps the text deterministic across platforms.
void write_ts(std::FILE* out, std::int64_t ns) {
  std::fprintf(out, "%lld.%03lld", static_cast<long long>(ns / 1000),
               static_cast<long long>(ns % 1000));
}

void write_tag_args(std::FILE* out, std::uint32_t tag) {
  if (!tag_valid(tag)) {
    std::fprintf(out, "\"tag\":0");
    return;
  }
  std::fprintf(out, "\"pkt_type\":%u,\"pkt_seq\":%u",
               static_cast<unsigned>(tag_type(tag)), tag_seq(tag));
}

}  // namespace

trace::Tracer& TraceLog::add(std::string label) {
  runs_.push_back(std::make_unique<Run>());
  runs_.back()->label = std::move(label);
  return runs_.back()->tracer;
}

void TraceLog::append(std::string label, const trace::Tracer& tracer) {
  runs_.push_back(std::make_unique<Run>());
  runs_.back()->label = std::move(label);
  runs_.back()->tracer = tracer;
}

void TraceLog::write_json(std::FILE* out) const {
  std::fputs("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [", out);
  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "\n" : ",\n", out);
    first = false;
  };
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& run = *runs_[i];
    const int pid = static_cast<int>(i) + 1;
    sep();
    std::fprintf(out, "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":", pid);
    write_escaped(out, run.label);
    std::fputs("}}", out);
    const auto& tracks = run.tracer.tracks();
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      const int tid = static_cast<int>(t) + 1;
      sep();
      std::fprintf(out, "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":", pid, tid);
      write_escaped(out, tracks[t].name);
      std::fputs("}}", out);
      sep();
      std::fprintf(out,
                   "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_sort_index\","
                   "\"args\":{\"sort_index\":%d}}",
                   pid, tid, static_cast<int>(tracks[t].tier));
    }
    for (const trace::Event& e : run.tracer.events()) {
      const int tid = static_cast<int>(e.track) + 1;
      sep();
      switch (e.kind) {
        case trace::EventKind::kFecDecode:
          std::fprintf(out, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":", pid, tid);
          write_ts(out, e.at);
          std::fputs(",\"dur\":", out);
          write_ts(out, static_cast<std::int64_t>(e.b));
          std::fprintf(out, ",\"name\":\"fec_decode\",\"args\":{\"group\":%u}}", e.a);
          break;
        case trace::EventKind::kWireTx:
          std::fprintf(out, "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":", pid, tid);
          write_ts(out, e.at);
          std::fputs(",\"dur\":", out);
          write_ts(out, static_cast<std::int64_t>(e.b));
          std::fputs(",\"name\":\"wire_tx\",\"args\":{", out);
          write_tag_args(out, e.a);
          std::fputs("}}", out);
          break;
        case trace::EventKind::kSample:
          std::fprintf(out, "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":", pid, tid);
          write_ts(out, e.at);
          std::fputs(",\"name\":", out);
          write_escaped(out, run.tracer.series_names()[e.a]);
          std::fprintf(out, ",\"args\":{\"value\":%.9g}}", e.value);
          break;
        case trace::EventKind::kDrop:
          std::fprintf(out, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"ts\":",
                       pid, tid);
          write_ts(out, e.at);
          std::fprintf(out, ",\"name\":\"drop: %s\",\"args\":{",
                       trace::drop_cause_name(static_cast<trace::DropCause>(e.b)));
          write_tag_args(out, e.a);
          std::fputs("}}", out);
          break;
        case trace::EventKind::kEnqueue:
          std::fprintf(out, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"ts\":",
                       pid, tid);
          write_ts(out, e.at);
          std::fprintf(out, ",\"name\":\"enqueue\",\"args\":{\"depth\":%u,", e.b);
          write_tag_args(out, e.a);
          std::fputs("}}", out);
          break;
        default:
          std::fprintf(out, "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"s\":\"t\",\"ts\":",
                       pid, tid);
          write_ts(out, e.at);
          std::fprintf(out, ",\"name\":\"%s\",\"args\":{\"a\":%u,\"b\":%u}}",
                       trace::event_kind_name(e.kind), e.a, e.b);
      }
    }
  }
  std::fputs("\n],\n\"attribution\": [", out);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& run = *runs_[i];
    const Attribution a = attribute(run.tracer);
    std::fputs(i == 0 ? "\n" : ",\n", out);
    std::fputs("{\"label\":", out);
    write_escaped(out, run.label);
    std::fprintf(out,
                 ",\"total_seconds\":%.9f,\"other_seconds\":%.9f,"
                 "\"transmit_seconds\":%.9f,\"queueing_seconds\":%.9f,"
                 "\"loss_recovery_seconds\":%.9f,\"window_stall_seconds\":%.9f,"
                 "\"accounted_fraction\":%.6f,\"retransmissions\":%llu,"
                 "\"parity_recoveries\":%llu,\"fec_decode_seconds\":%.9f,"
                 "\"retransmissions_by_cause\":{",
                 a.total_seconds, a.other_seconds, a.transmit_seconds,
                 a.queueing_seconds, a.loss_recovery_seconds, a.window_stall_seconds,
                 a.accounted_fraction(),
                 static_cast<unsigned long long>(a.retransmissions),
                 static_cast<unsigned long long>(a.parity_recoveries),
                 a.fec_decode_seconds);
    for (std::size_t c = 0; c < Attribution::kNumCauses; ++c) {
      std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                   trace::drop_cause_name(static_cast<trace::DropCause>(c)),
                   static_cast<unsigned long long>(a.retransmissions_by_cause[c]));
    }
    std::fputs("}}", out);
  }
  std::fputs("\n]\n}\n", out);
}

bool TraceLog::write_json_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_json(f);
  std::fclose(f);
  return true;
}

}  // namespace rmc::harness
