// Tests for the experiment harness: testbed wiring, runners, trial
// averaging, and table output.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "common/buffer_recycler.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "harness/trace.h"
#include "net/frame_arena.h"
#include "rmcast/session.h"

namespace rmc::harness {
namespace {

TEST(Testbed, WiresSocketsAndMembership) {
  Testbed bed(4);
  EXPECT_EQ(bed.n_receivers(), 4u);
  EXPECT_EQ(bed.cluster().size(), 5u);  // sender + 4
  const auto& m = bed.membership();
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(m.n_receivers(), 4u);
  EXPECT_EQ(m.sender_control.addr, inet::Cluster::host_addr(0));
  EXPECT_EQ(m.receiver_control[3].addr, inet::Cluster::host_addr(4));
  EXPECT_EQ(bed.sender_socket().local_endpoint(), m.sender_control);
  EXPECT_EQ(bed.receiver_control_socket(2).local_endpoint(), m.receiver_control[2]);
  EXPECT_EQ(bed.total_rcvbuf_drops(), 0u);
}

TEST(RunMulticast, ReportsStatsAndTiming) {
  MulticastRunSpec spec;
  spec.n_receivers = 4;
  spec.message_bytes = 50'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 8;
  RunResult r = run_multicast(spec);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.throughput_bps(), 0.0);
  EXPECT_EQ(r.sender.data_packets_sent, 7u);  // ceil(50000/8000)
  EXPECT_EQ(r.receivers.size(), 4u);
  EXPECT_EQ(r.total_acks_sent(), 28u);
  EXPECT_GT(r.sender_nic_busy_seconds, 0.0);
  EXPECT_GT(r.sender_cpu_busy_seconds, 0.0);
}

TEST(RunMulticast, InvalidConfigFailsFast) {
  MulticastRunSpec spec;
  spec.n_receivers = 30;
  spec.protocol.kind = rmcast::ProtocolKind::kRing;
  spec.protocol.window_size = 10;  // <= receivers: rejected
  RunResult r = run_multicast(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("ring"), std::string::npos);
}

TEST(RunMulticast, TimeLimitProducesTimeoutError) {
  MulticastRunSpec spec;
  spec.n_receivers = 4;
  spec.message_bytes = 1'000'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.time_limit = sim::microseconds(100);  // absurdly tight
  RunResult r = run_multicast(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("timed out"), std::string::npos);
}

TEST(RunMulticast, DeterministicForSeed) {
  MulticastRunSpec spec;
  spec.n_receivers = 6;
  spec.message_bytes = 100'000;
  spec.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  spec.protocol.window_size = 16;
  spec.protocol.poll_interval = 12;
  spec.seed = 42;
  RunResult a = run_multicast(spec);
  RunResult b = run_multicast(spec);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.sender.data_packets_sent, b.sender.data_packets_sent);
}

TEST(RunMulticast, RepeatedTransferAllocatesNoPayloadMemory) {
  // Steady state: a second identical transfer on this thread is served
  // entirely by the frame arena's free lists and the buffer recycler.
  MulticastRunSpec spec;
  spec.n_receivers = 8;
  spec.message_bytes = 200'000;
  spec.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 16;
  spec.protocol.poll_interval = 12;
  const net::FrameArena& arena = net::FrameArena::instance();
  const BufferRecycler& recycler = BufferRecycler::instance();
  ASSERT_TRUE(run_multicast(spec).completed);
  const std::uint64_t created = arena.stats().blocks_created;
  RunResult r = run_multicast(spec);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(arena.stats().blocks_created, created);
  EXPECT_EQ(arena.outstanding_blocks(), 0u);
  // Eight receivers' messages and the sender's snapshot, nothing more.
  EXPECT_EQ(recycler.outstanding(), 0u);
  EXPECT_EQ(recycler.pooled(), 9u);
  // A smaller transfer afterwards leaves only what it held.
  spec.n_receivers = 3;
  ASSERT_TRUE(run_multicast(spec).completed);
  EXPECT_EQ(recycler.pooled(), 4u);
}

TEST(RunMulticast, CountsReceiveBufferDrops) {
  // A receive buffer smaller than one datagram drops every data packet,
  // so the transfer cannot finish; the drops must show in the result.
  MulticastRunSpec spec;
  spec.n_receivers = 4;
  spec.message_bytes = 200'000;
  spec.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  spec.protocol.packet_size = 8000;
  spec.cluster.host.default_rcvbuf_bytes = 4096;
  spec.time_limit = sim::seconds(1.0);
  RunResult r = run_multicast(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.rcvbuf_drops, 0u);
}

TEST(RunTrials, AveragesTrials) {
  int calls = 0;
  TrialsOutcome outcome = run_trials(
      [&](std::uint64_t seed) {
        ++calls;
        RunResult r;
        r.completed = true;
        r.seconds = static_cast<double>(seed);
        return r;
      },
      3, 10);
  EXPECT_EQ(calls, 3);
  EXPECT_TRUE(outcome.ok);
  EXPECT_DOUBLE_EQ(outcome.mean_seconds, 11.0);  // seeds 10, 11, 12
}

TEST(RunTrials, FailureReportsNegativeMean) {
  TrialsOutcome outcome = run_trials(
      [&](std::uint64_t) {
        RunResult r;
        r.completed = false;
        return r;
      },
      3, 1);
  EXPECT_FALSE(outcome.ok);
  EXPECT_LT(outcome.mean_seconds, 0.0);
}

std::string capture(const Table& table, bool csv) {
  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  if (csv) {
    table.print_csv(mem);
  } else {
    table.print(mem);
  }
  std::fclose(mem);
  std::string out(data, size);
  free(data);
  return out;
}

TEST(TablePrinter, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  std::string out = capture(t, false);
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("longer-name  2"), std::string::npos);
  EXPECT_EQ(t.n_rows(), 2u);
}

TEST(TablePrinter, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "line"});
  std::string out = capture(t, true);
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\",line\n"), std::string::npos);
}

TEST(TablePrinterDeath, RowWidthMustMatch) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Trace, RecordsOrderedProtocolEvents) {
  rmcast::SessionParams params;
  params.n_receivers = 3;
  params.protocol.kind = rmcast::ProtocolKind::kAck;
  params.protocol.packet_size = 8000;
  params.protocol.window_size = 8;
  rmcast::Session session(params);
  TraceRecorder trace(session.sender_runtime());
  session.sender().set_observer(&trace);
  for (std::size_t i = 0; i < 3; ++i) {
    session.receiver(i).set_observer(trace.receiver_tap(i));
  }

  Buffer message(20'000, 0x33);  // 3 packets
  ASSERT_TRUE(session.send_and_wait(BytesView(message.data(), message.size())).has_value());

  using Kind = TraceRecorder::Kind;
  EXPECT_EQ(trace.count(Kind::kAllocRequest), 1u);
  EXPECT_EQ(trace.count(Kind::kTransmit), 3u);
  EXPECT_EQ(trace.count(Kind::kRetransmit), 0u);
  EXPECT_EQ(trace.count(Kind::kAck), 9u);  // 3 receivers x 3 packets
  EXPECT_EQ(trace.count(Kind::kComplete), 1u);
  // Receiver taps land in the same stream: each of the 3 receivers accepts
  // every data packet (no loss), acks it, and delivers once.
  EXPECT_EQ(trace.count(Kind::kData), 9u);
  EXPECT_EQ(trace.count(Kind::kDuplicate), 0u);
  EXPECT_EQ(trace.count(Kind::kAckSent), 9u);
  EXPECT_EQ(trace.count(Kind::kDeliver), 3u);
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(trace.count_node(node), 7u);  // 3 data + 3 acks + 1 deliver
  }
  EXPECT_EQ(trace.count_node(TraceRecorder::kSenderNode),
            trace.events().size() - 3 * 7u);

  // Chronology: alloc first, completion last, timestamps non-decreasing.
  const auto& events = trace.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, Kind::kAllocRequest);
  EXPECT_EQ(events.back().kind, Kind::kComplete);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].seconds, events[i - 1].seconds);
  }

  // CSV export round-trips through a memstream.
  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  trace.write_csv(mem);
  std::fclose(mem);
  std::string csv(data, size);
  free(data);
  EXPECT_NE(csv.find("seconds,kind,node,session,a,b"), std::string::npos);
  EXPECT_NE(csv.find("alloc_request"), std::string::npos);
  EXPECT_NE(csv.find("complete"), std::string::npos);
  EXPECT_NE(csv.find("deliver"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            events.size() + 1);
}

TEST(Trace, RetransmissionsVisibleUnderLoss) {
  rmcast::SessionParams params;
  params.n_receivers = 3;
  params.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  params.protocol.packet_size = 4000;
  params.protocol.window_size = 10;
  params.protocol.poll_interval = 8;
  params.cluster.link.frame_error_rate = 0.03;
  params.cluster.seed = 5;
  rmcast::Session session(params);
  TraceRecorder trace(session.sender_runtime());
  session.sender().set_observer(&trace);

  Buffer message(200'000, 0x44);
  ASSERT_TRUE(session.send_and_wait(BytesView(message.data(), message.size()),
                                    sim::seconds(60.0))
                  .has_value());
  const rmcast::SenderStats& stats = session.sender().stats();
  EXPECT_GT(trace.count(TraceRecorder::Kind::kRetransmit), 0u);
  EXPECT_EQ(trace.count(TraceRecorder::Kind::kRetransmit), stats.retransmissions);
  EXPECT_EQ(trace.count(TraceRecorder::Kind::kNak), stats.naks_received);
}

TEST(Trace, KindNameRoundTrip) {
  using Kind = TraceRecorder::Kind;
  const std::pair<Kind, const char*> expected[] = {
      {Kind::kAllocRequest, "alloc_request"},
      {Kind::kTransmit, "transmit"},
      {Kind::kRetransmit, "retransmit"},
      {Kind::kAck, "ack"},
      {Kind::kNak, "nak"},
      {Kind::kTimeout, "timeout"},
      {Kind::kComplete, "complete"},
      {Kind::kData, "data"},
      {Kind::kDuplicate, "duplicate"},
      {Kind::kAckSent, "ack_sent"},
      {Kind::kNakSent, "nak_sent"},
      {Kind::kNakSuppressed, "nak_suppressed"},
      {Kind::kRepairSent, "repair_sent"},
      {Kind::kRepairSuppressed, "repair_suppressed"},
      {Kind::kDeliver, "deliver"}};
  std::set<std::string> names;
  for (const auto& [kind, name] : expected) {
    EXPECT_STREQ(TraceRecorder::kind_name(kind), name);
    names.insert(name);
  }
  // Names are distinct, so the CSV kind column identifies the event.
  EXPECT_EQ(names.size(), sizeof(expected) / sizeof(expected[0]));
}

TEST(Trace, WriteCsvRowFormat) {
  Testbed bed(1);
  TraceRecorder trace(bed.sender_runtime());
  trace.on_transmit(7, 3, 2, false);
  trace.on_transmit(7, 3, 2, true);
  trace.on_ack(7, 1, 4);
  trace.receiver_tap(1)->on_data(7, 3, 2, false);

  using Kind = TraceRecorder::Kind;
  EXPECT_EQ(trace.count(Kind::kTransmit), 1u);
  EXPECT_EQ(trace.count(Kind::kRetransmit), 1u);
  EXPECT_EQ(trace.count(Kind::kAck), 1u);
  EXPECT_EQ(trace.count(Kind::kNak), 0u);
  EXPECT_EQ(trace.count(Kind::kData), 1u);
  EXPECT_EQ(trace.count_node(1), 1u);

  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  trace.write_csv(mem);
  std::fclose(mem);
  std::string csv(data, size);
  free(data);
  // Header plus one row per event, fields in declared order; the clock
  // has not advanced, so every timestamp is zero.
  EXPECT_EQ(csv,
            "seconds,kind,node,session,a,b\n"
            "0.000000000,transmit,65535,7,3,2\n"
            "0.000000000,retransmit,65535,7,3,2\n"
            "0.000000000,ack,65535,7,1,4\n"
            "0.000000000,data,1,7,3,2\n");

  trace.clear();
  EXPECT_EQ(trace.count(Kind::kTransmit), 0u);
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace rmc::harness
