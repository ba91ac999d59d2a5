// Causal packet tracing: the event vocabulary and its single emission
// path, span lifecycle, drop-cause tagging, timeline sampling,
// attribution, Perfetto export shape, and trace determinism across sweep
// parallelism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/serial.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "harness/trace_export.h"
#include "rmcast/session.h"
#include "rmcast/wire.h"
#include "sim/simulator.h"

namespace rmc::harness {
namespace {

MulticastRunSpec small_spec(double frame_error_rate, std::uint64_t seed) {
  MulticastRunSpec spec;
  spec.n_receivers = 8;
  spec.message_bytes = 120'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 8;
  spec.seed = seed;
  spec.cluster.link.frame_error_rate = frame_error_rate;
  return spec;
}

RunResult traced_run(const MulticastRunSpec& base, trace::Tracer& tracer) {
  MulticastRunSpec spec = base;
  spec.tracer = &tracer;
  return run_multicast(spec);
}

TEST(PacketTag, PackUnpackRoundTrip) {
  // Types run to 9 (GROUP_NAK): the tag's type field is four bits wide so
  // the FEC types survive the round trip instead of aliasing onto
  // DATA/ACK (a 3-bit field would fold 8 -> 0 and 9 -> 1).
  for (std::uint8_t type = 1; type <= 9; ++type) {
    for (std::uint32_t seq : {0u, 1u, 12345u, 0x07FF'FFFFu}) {
      const std::uint32_t tag = pack_packet_tag(type, seq);
      EXPECT_TRUE(tag_valid(tag));
      EXPECT_EQ(tag_type(tag), type);
      EXPECT_EQ(tag_seq(tag), seq);
    }
  }
  EXPECT_FALSE(tag_valid(0));
}

TEST(PacketTag, FecWireTypesTagAsThemselves) {
  for (rmcast::PacketType t :
       {rmcast::PacketType::kParity, rmcast::PacketType::kGroupNak}) {
    rmcast::Header h;
    h.type = t;
    h.seq = 321;
    Writer w(rmcast::kHeaderBytes);
    rmcast::write_header(w, h);
    const std::uint32_t tag = tag_rmcast_packet(w.buffer().data(), w.buffer().size());
    ASSERT_TRUE(tag_valid(tag));
    EXPECT_EQ(tag_type(tag), static_cast<std::uint8_t>(t));
    EXPECT_EQ(tag_seq(tag), 321u);
  }
}

TEST(PacketTag, ParsesRmcastWireHeader) {
  rmcast::Header h;
  h.type = rmcast::PacketType::kData;
  h.flags = 0;
  h.node_id = 3;
  h.session = 42;
  h.seq = 77;
  Writer w(rmcast::kHeaderBytes);
  rmcast::write_header(w, h);
  const std::uint32_t tag = tag_rmcast_packet(w.buffer().data(), w.buffer().size());
  ASSERT_TRUE(tag_valid(tag));
  EXPECT_EQ(tag_type(tag), static_cast<std::uint8_t>(rmcast::PacketType::kData));
  EXPECT_EQ(tag_seq(tag), 77u);

  // Too short or nonsense type: not a traced packet.
  EXPECT_EQ(tag_rmcast_packet(w.buffer().data(), 4), 0u);
  Buffer junk(rmcast::kHeaderBytes, 0xEE);
  EXPECT_EQ(tag_rmcast_packet(junk.data(), junk.size()), 0u);
}

TEST(Tracer, TracksAndSeriesAreDenseAndDeduplicated) {
  trace::Tracer t;
  const std::uint16_t a = t.track("sender", trace::TrackTier::kSender);
  const std::uint16_t b = t.track("net.P0.nic", trace::TrackTier::kNet);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(t.track("sender", trace::TrackTier::kSender), a);
  EXPECT_EQ(t.track_name(b), "net.P0.nic");

  EXPECT_EQ(t.series("queue"), 0u);
  EXPECT_EQ(t.series("rate"), 1u);
  EXPECT_EQ(t.series("queue"), 0u);
}

TEST(Tracer, CapacityCapCountsTruncatedEvents) {
  trace::Tracer t;
  const std::uint16_t track = t.track("x", trace::TrackTier::kNet);
  t.set_capacity(2);
  t.record(1, trace::EventKind::kSenderTx, track);
  t.record(2, trace::EventKind::kSenderTx, track);
  t.record(3, trace::EventKind::kSenderTx, track);
  t.sample(4, track, t.series("s"), 1.0);
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.truncated(), 2u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.truncated(), 0u);
}

TEST(EventKind, EveryKindHasADistinctName) {
  std::set<std::string> names;
  const auto last = static_cast<unsigned>(trace::kLastEventKind);
  for (unsigned k = 0; k <= last; ++k) {
    const std::string name = trace::event_kind_name(static_cast<trace::EventKind>(k));
    EXPECT_NE(name, "unknown") << "kind " << k;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), last + 1);
}

// Every protocol event is reported once: the flight recorder (always on)
// and an attached tracer see the same (name, a, b) sequence.
TEST(EventPath, FlightRecorderMirrorsTheTracer) {
  FlightRecorder& recorder = flight_recorder();
  struct Restore {
    FlightRecorder& recorder;
    std::size_t capacity;
    ~Restore() { recorder.set_capacity(capacity); }
  } restore{recorder, recorder.capacity()};
  recorder.set_capacity(1 << 16);  // also clears the ring

  rmcast::SessionParams params;
  params.n_receivers = 3;
  params.protocol.kind = rmcast::ProtocolKind::kAck;
  params.protocol.packet_size = 8000;
  params.protocol.window_size = 8;
  rmcast::Session session(params);
  trace::Tracer tracer;
  session.set_tracer(&tracer);
  const Buffer message(20'000, 0x33);
  ASSERT_TRUE(
      session.send_and_wait(BytesView(message.data(), message.size())).has_value());

  using Record = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  std::vector<Record> traced, recorded;
  for (const trace::Event& e : tracer.events()) {
    const trace::TrackTier tier = tracer.tracks()[e.track].tier;
    if (tier == trace::TrackTier::kSender || tier == trace::TrackTier::kReceiver) {
      traced.emplace_back(trace::event_kind_name(e.kind), e.a, e.b);
    }
  }
  ASSERT_LT(recorder.total_recorded(), recorder.capacity());  // nothing overwritten
  for (const FlightRecorder::Event& e : recorder.snapshot()) {
    recorded.emplace_back(e.name, e.a, e.b);
  }
  EXPECT_FALSE(traced.empty());
  EXPECT_EQ(recorded, traced);
}

TEST(TracedRun, ErrorFreeSpanLifecycle) {
  trace::Tracer tracer;
  const RunResult result = traced_run(small_spec(/*fer=*/0.0, /*seed=*/3), tracer);
  ASSERT_TRUE(result.completed) << result.error;

  // Every data transmission, reception and completion leaves a span event.
  EXPECT_EQ(tracer.count(trace::EventKind::kSenderTx),
            result.sender.data_packets_sent);
  EXPECT_GT(tracer.count(trace::EventKind::kReceiverRx), 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::kComplete), 1u);
  EXPECT_EQ(tracer.count(trace::EventKind::kDeliver), 8u);
  EXPECT_EQ(tracer.count(trace::EventKind::kDrop), 0u);
  // The wire got exercised: the NIC serialized at least one frame per data
  // packet, each enqueue recorded with its queue depth.
  EXPECT_GT(tracer.count(trace::EventKind::kWireTx),
            result.sender.data_packets_sent);
  EXPECT_GT(tracer.count(trace::EventKind::kEnqueue), 0u);

  // Timestamps never run backwards past the recording order per track and
  // sit inside the run.
  const std::int64_t horizon = sim::seconds(result.seconds) + 1;
  for (const auto& e : tracer.events()) {
    EXPECT_GE(e.at, 0);
    EXPECT_LE(e.at, horizon);
  }

  // The attribution horizon is the sender's completion instant, a hair
  // before the simulator's final drain.
  const Attribution attr = attribute(tracer);
  EXPECT_LE(attr.total_seconds, result.seconds);
  EXPECT_GE(attr.total_seconds, 0.95 * result.seconds);
  EXPECT_GE(attr.accounted_fraction(), 0.95);
  EXPECT_EQ(attr.retransmissions, 0u);
  EXPECT_GT(attr.transmit_seconds, 0.0);
}

TEST(TracedRun, LossyRunTagsEveryDropAndAttributesRetransmissions) {
  MulticastRunSpec spec = small_spec(/*fer=*/0.01, /*seed=*/7);
  trace::Tracer tracer;
  const RunResult result = traced_run(spec, tracer);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_GT(result.sender.retransmissions, 0u);

  // Every drop the net tier recorded carries a concrete cause.
  std::size_t drops = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::EventKind::kDrop) continue;
    ++drops;
    EXPECT_NE(e.b, static_cast<std::uint32_t>(trace::DropCause::kUnknown));
    EXPECT_LT(e.b, Attribution::kNumCauses);
  }
  EXPECT_GT(drops, 0u);

  const Attribution attr = attribute(tracer);
  EXPECT_EQ(attr.retransmissions, result.sender.retransmissions);
  // With drops on record, no retransmission is attributed to "unknown".
  EXPECT_EQ(attr.retransmissions_by_cause[0], 0u);
  std::uint64_t by_cause = 0;
  for (std::uint64_t n : attr.retransmissions_by_cause) by_cause += n;
  EXPECT_EQ(by_cause, attr.retransmissions);
  EXPECT_GT(attr.retransmissions_by_cause[static_cast<std::size_t>(
                trace::DropCause::kFrameError)],
            0u);
  EXPECT_GT(attr.loss_recovery_seconds, 0.0);
  EXPECT_GE(attr.accounted_fraction(), 0.95);
}

TEST(TracedRun, TimelineSamplesArriveOnTheConfiguredInterval) {
  MulticastRunSpec spec = small_spec(/*fer=*/0.0, /*seed=*/3);
  spec.timeline_interval = sim::microseconds(500);
  trace::Tracer tracer;
  const RunResult result = traced_run(spec, tracer);
  ASSERT_TRUE(result.completed) << result.error;

  std::size_t samples = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::EventKind::kSample) continue;
    ++samples;
    EXPECT_EQ(e.at % sim::microseconds(500), 0) << "sample off the grid";
    EXPECT_LT(e.a, tracer.series_names().size());
  }
  // One batch of series per elapsed interval (the run lasts well past one).
  EXPECT_GE(samples, tracer.series_names().size());
  EXPECT_GE(tracer.series_names().size(), 5u);

  // Disabled timelines record no samples.
  MulticastRunSpec off = small_spec(/*fer=*/0.0, /*seed=*/3);
  off.timeline_interval = 0;
  trace::Tracer no_samples;
  ASSERT_TRUE(traced_run(off, no_samples).completed);
  EXPECT_EQ(no_samples.count(trace::EventKind::kSample), 0u);
}

TEST(TracedRun, TracingDoesNotPerturbTheRun) {
  const MulticastRunSpec spec = small_spec(/*fer=*/0.005, /*seed=*/11);

  metrics::Registry plain_metrics;
  MulticastRunSpec plain = spec;
  plain.metrics = &plain_metrics;
  const RunResult bare = run_multicast(plain);

  // Tracing hooks alone: byte-identical everything, including the event
  // count (the timeline sampler is off, so no extra sim events exist).
  metrics::Registry traced_metrics;
  MulticastRunSpec traced = spec;
  traced.metrics = &traced_metrics;
  traced.timeline_interval = 0;
  trace::Tracer tracer;
  traced.tracer = &tracer;
  const RunResult observed = run_multicast(traced);

  ASSERT_TRUE(bare.completed && observed.completed);
  EXPECT_EQ(bare.seconds, observed.seconds);
  EXPECT_EQ(bare.events_executed, observed.events_executed);
  EXPECT_EQ(bare.sender.retransmissions, observed.sender.retransmissions);
  EXPECT_EQ(plain_metrics.to_json(), traced_metrics.to_json());

  // With the sampler on, its read-only ticks add sim events but change
  // nothing the protocol can observe.
  metrics::Registry sampled_metrics;
  MulticastRunSpec sampled = spec;
  sampled.metrics = &sampled_metrics;
  trace::Tracer sampled_tracer;
  sampled.tracer = &sampled_tracer;
  const RunResult with_sampler = run_multicast(sampled);
  ASSERT_TRUE(with_sampler.completed);
  EXPECT_EQ(bare.seconds, with_sampler.seconds);
  EXPECT_EQ(bare.sender.retransmissions, with_sampler.sender.retransmissions);
  EXPECT_EQ(plain_metrics.to_json(), sampled_metrics.to_json());
}

TEST(SweepTrace, FoldedTraceLogIsIdenticalAcrossJobCounts) {
  auto collect = [](std::size_t jobs) {
    auto log = std::make_unique<TraceLog>();
    SweepRunner::Options options;
    options.jobs = jobs;
    options.trace = log.get();
    SweepRunner runner(options);
    for (std::uint64_t seed : {3u, 5u, 7u, 3u}) {  // seed 3 runs twice
      runner.submit(small_spec(/*fer=*/0.004, seed),
                    "seed" + std::to_string(seed));
    }
    runner.wait_all();
    return log;
  };

  auto serial = collect(1);
  auto parallel = collect(4);
  ASSERT_EQ(serial->size(), 4u);
  ASSERT_EQ(parallel->size(), 4u);
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(serial->label(i), parallel->label(i));
    EXPECT_TRUE(serial->tracer(i).same_as(parallel->tracer(i))) << i;
    EXPECT_FALSE(serial->tracer(i).events().empty()) << i;
  }
  // Both runs of seed 3 traced the same events.
  EXPECT_TRUE(serial->tracer(0).same_as(serial->tracer(3)));
}

TEST(TraceExport, JsonCarriesEventsAndAttribution) {
  TraceLog log;
  trace::Tracer& tracer = log.add("lossy_point");
  const RunResult result =
      traced_run(small_spec(/*fer=*/0.01, /*seed=*/7), tracer);
  ASSERT_TRUE(result.completed);

  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  log.write_json(mem);
  std::fclose(mem);
  std::string json(data, size);
  free(data);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // wire spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("lossy_point"), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"accounted_fraction\""), std::string::npos);
  EXPECT_NE(json.find("frame_error"), std::string::npos);
  EXPECT_NE(json.find("drop:"), std::string::npos);
}

}  // namespace
}  // namespace rmc::harness
