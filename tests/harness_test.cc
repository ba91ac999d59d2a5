// Tests for the experiment harness: testbed wiring, runners, trial
// averaging, and table output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/buffer_recycler.h"
#include "common/strings.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "harness/testbed.h"
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
}

// A Testbed and a Session over the same N name the same roster, so a
// transfer rebuilt on a Testbed (the ledger's traced replica) runs the
// Session's wire traffic.
TEST(Testbed, MembershipMatchesTheSessions) {
  for (std::size_t n : {1u, 4u, 30u}) {
    Testbed bed(n);
    rmcast::SessionParams params;
    params.n_receivers = n;
    rmcast::Session session(params);
    const rmcast::GroupMembership& a = bed.membership();
    const rmcast::GroupMembership& b = session.membership();
    EXPECT_EQ(a.group, b.group) << "N = " << n;
    EXPECT_EQ(a.sender_control, b.sender_control) << "N = " << n;
    EXPECT_EQ(a.receiver_control, b.receiver_control) << "N = " << n;
  }
}

// One validated roster per group: the sender and every receiver of a
// Session read the Session's own membership object, not a copy each.
TEST(Session, EveryEndpointSharesOneRoster) {
  rmcast::SessionParams params;
  params.n_receivers = 5;
  rmcast::Session session(params);
  const rmcast::GroupMembership* roster = &session.membership();
  EXPECT_EQ(&session.sender().membership(), roster);
  for (std::size_t i = 0; i < session.n_receivers(); ++i) {
    EXPECT_EQ(&session.receiver(i).membership(), roster) << "receiver " << i;
  }
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
  // The eight receivers' one shared message and the sender's snapshot,
  // nothing more.
  EXPECT_EQ(recycler.outstanding(), 0u);
  EXPECT_EQ(recycler.pooled(), 2u);
  // A smaller group afterwards holds the same two: the message is stored
  // once per group, not once per receiver.
  spec.n_receivers = 3;
  ASSERT_TRUE(run_multicast(spec).completed);
  EXPECT_EQ(recycler.outstanding(), 0u);
  EXPECT_EQ(recycler.pooled(), 2u);
}

TEST(MakePattern, EveryByteFollowsTheFormula) {
  const std::uint64_t offset = 17;
  for (std::uint64_t n : {0ull, 1ull, 255ull, 256ull, 257ull, 2'000'000ull}) {
    const Buffer data = make_pattern(n, offset);
    ASSERT_EQ(data.size(), n);
    std::uint64_t wrong = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (data[i] != static_cast<std::uint8_t>(i * 131 + 7 + offset)) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << "size " << n;
  }
}

// A 200 KB NAK-polling transfer to four receivers. With a victim, the
// switch port facing that receiver flips one payload byte in about one
// frame in 50; every other receiver gets intact frames.
RunResult run_with_tampered_link(std::optional<std::size_t> victim) {
  rmcast::SessionParams params;
  params.n_receivers = 4;
  params.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  params.protocol.window_size = 16;
  params.protocol.poll_interval = 12;
  rmcast::Session session(std::move(params));
  inet::Cluster& cluster = session.cluster();
  if (victim) {
    sim::LinkFaults faults;
    faults.tamper_rate = 0.02;
    cluster.set_host_link_faults(*victim + 1, faults);
  }
  SessionTransfer transfer(session, make_pattern(200'000));
  transfer.start();
  transfer.run(sim::seconds(10.0));
  EXPECT_TRUE(transfer.done());
  if (victim) {
    const net::HostAttachment& at = cluster.wiring().hosts.at(*victim + 1);
    EXPECT_GT(cluster.switches()[at.sw]->port_tx(at.port).stats().tampered_frames, 0u);
  }
  return transfer.result();
}

TEST(SessionTransfer, ATamperedLinkFailsTheDeliveryCheckOfItsReceiverOnly) {
  EXPECT_TRUE(run_with_tampered_link(std::nullopt).completed);
  // The check names the first receiver that fails, so every receiver
  // before the victim passed it; the last receiver as victim shows that
  // all the others did.
  for (std::size_t victim : {std::size_t{1}, std::size_t{3}}) {
    RunResult r = run_with_tampered_link(victim);
    EXPECT_FALSE(r.completed) << "victim " << victim;
    EXPECT_EQ(r.error, str_format("receiver %zu did not deliver a correct copy", victim));
  }
}

TEST(Session, ReceiversOfAGroupDeliverOneSharedMessage) {
  rmcast::SessionParams params;
  params.n_receivers = 6;
  rmcast::Session session(std::move(params));
  const Buffer message = make_pattern(100'000, 3);
  std::vector<const Buffer*> delivered;
  session.set_message_handler(
      [&](std::size_t, const Buffer& received, std::uint32_t) {
        EXPECT_EQ(received, message);
        delivered.push_back(&received);
      });
  ASSERT_TRUE(session.send_and_wait(BytesView(message.data(), message.size())));
  ASSERT_EQ(delivered.size(), 6u);
  for (const Buffer* d : delivered) EXPECT_EQ(d, delivered[0]);
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

// Events of `kind` on the track named `track`; a non-negative `b` also
// requires that operand (kSenderTx: 0 = first transmission, 1 = repeat).
std::size_t count_on(const trace::Tracer& tracer, std::string_view track,
                     trace::EventKind kind, int b = -1) {
  return static_cast<std::size_t>(std::count_if(
      tracer.events().begin(), tracer.events().end(), [&](const trace::Event& e) {
        return e.kind == kind && tracer.track_name(e.track) == track &&
               (b < 0 || e.b == static_cast<std::uint32_t>(b));
      }));
}

TEST(Trace, RecordsOrderedProtocolEvents) {
  rmcast::SessionParams params;
  params.n_receivers = 3;
  params.protocol.kind = rmcast::ProtocolKind::kAck;
  params.protocol.packet_size = 8000;
  params.protocol.window_size = 8;
  rmcast::Session session(params);
  trace::Tracer tracer;
  session.set_tracer(&tracer);

  Buffer message(20'000, 0x33);  // 3 packets
  ASSERT_TRUE(session.send_and_wait(BytesView(message.data(), message.size())).has_value());

  using trace::EventKind;
  EXPECT_EQ(count_on(tracer, "sender", EventKind::kAllocReq), 1u);
  EXPECT_EQ(count_on(tracer, "sender", EventKind::kSenderTx, 0), 3u);
  EXPECT_EQ(count_on(tracer, "sender", EventKind::kSenderTx, 1), 0u);
  EXPECT_EQ(count_on(tracer, "sender", EventKind::kAckRx), 9u);  // 3 receivers x 3
  EXPECT_EQ(count_on(tracer, "sender", EventKind::kComplete), 1u);
  // Receiver tracks land in the same stream: each of the 3 receivers
  // accepts every data packet (no loss), acks it, and delivers once.
  std::size_t receiver_events = 0;
  for (std::size_t node = 0; node < 3; ++node) {
    const std::string track = "receiver." + std::to_string(node);
    EXPECT_EQ(count_on(tracer, track, EventKind::kReceiverRx, 0), 3u) << track;
    EXPECT_EQ(count_on(tracer, track, EventKind::kReceiverRx, 1), 0u) << track;
    EXPECT_EQ(count_on(tracer, track, EventKind::kAckTx), 3u) << track;
    EXPECT_EQ(count_on(tracer, track, EventKind::kDeliver), 1u) << track;
    for (const trace::Event& e : tracer.events()) {
      if (tracer.track_name(e.track) == track) ++receiver_events;
    }
  }
  EXPECT_EQ(receiver_events, 3 * 7u);  // 3 data + 3 acks + 1 deliver each

  // Chronology: alloc first, completion last, timestamps non-decreasing.
  const auto& events = tracer.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::kAllocReq);
  EXPECT_EQ(events.back().kind, EventKind::kComplete);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
  }
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
  trace::Tracer tracer;
  session.set_tracer(&tracer);

  Buffer message(200'000, 0x44);
  ASSERT_TRUE(session.send_and_wait(BytesView(message.data(), message.size()),
                                    sim::seconds(60.0))
                  .has_value());
  const rmcast::SenderStats& stats = session.sender().stats();
  const std::size_t retransmissions =
      count_on(tracer, "sender", trace::EventKind::kSenderTx, 1);
  EXPECT_GT(retransmissions, 0u);
  EXPECT_EQ(retransmissions, stats.retransmissions);
  EXPECT_EQ(count_on(tracer, "sender", trace::EventKind::kNakRx), stats.naks_received);
  // Each receiver reports every NAK it sent and every one it withheld.
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string track = "receiver." + std::to_string(i);
    const rmcast::ReceiverStats& rx = session.receiver(i).stats();
    EXPECT_EQ(count_on(tracer, track, trace::EventKind::kNakTx), rx.naks_sent) << track;
    EXPECT_EQ(count_on(tracer, track, trace::EventKind::kNakSuppressed),
              rx.naks_suppressed)
        << track;
  }
}

}  // namespace
}  // namespace rmc::harness
