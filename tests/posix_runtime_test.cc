// Unit tests for the Posix runtime's timer heap and batched socket path:
// firing order and cancel safety under schedule/cancel churn, TX-ring
// batching and backpressure (no silent loss), GSO/GRO round-trips,
// truncation accounting, and the I/O-starvation regression (a timer
// rescheduling itself at zero delay must not stall socket traffic).
// Socket-dependent tests skip cleanly where the OS forbids sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/posix_runtime.h"

namespace rmc {
namespace {

// Port plan: this file owns 48800..48899 on loopback (the parity tests
// use 48300/48400, the posix_loopback bench 48600/48700).
constexpr std::uint16_t kBasePort = 48800;

std::uint64_t counter_value(rt::PosixRuntime& runtime, const char* name) {
  return runtime.metrics().counter(name).value();
}

// Loopback unicast socket pair on `port`; null sockets mean "skip".
struct Pair {
  std::unique_ptr<rt::UdpSocket> rx;
  std::unique_ptr<rt::UdpSocket> tx;
  net::Endpoint dst;

  bool open(rt::PosixRuntime& runtime, std::uint16_t port,
            rt::PosixSocketOptions rx_extra = {}, rt::PosixSocketOptions tx_extra = {}) {
    rx_extra.bind_addr = net::Ipv4Addr(127, 0, 0, 1);
    rx_extra.port = port;
    rx = runtime.open_socket(rx_extra);
    tx_extra.bind_addr = net::Ipv4Addr(127, 0, 0, 1);
    tx = runtime.open_socket(tx_extra);
    dst = {net::Ipv4Addr(127, 0, 0, 1), port};
    return rx != nullptr && tx != nullptr;
  }
};

TEST(PosixTimerTest, InterleavedScheduleCancelFiresInDeadlineOrder) {
  rt::PosixRuntime runtime;

  // 1000 schedule/cancel pairs: every timer lands in one of 10 delay
  // buckets, every odd-indexed timer is cancelled right after its
  // schedule. Scheduling takes microseconds against millisecond-spaced
  // buckets, so the expected fire order is bucket-ascending and, within
  // a bucket, schedule-ascending (the id tie-break).
  constexpr int kPairs = 1000;
  std::vector<int> fired;  // sequence numbers in fire order
  std::vector<rt::TimerId> ids(kPairs);
  for (int k = 0; k < kPairs; ++k) {
    const int bucket = (k * 7) % 10;
    const sim::Time delay = sim::Time(2'000'000) * (bucket + 1);  // 2ms..20ms
    ids[k] = runtime.schedule_after(delay, [k, &fired] { fired.push_back(k); });
    if (k % 2 == 1) runtime.cancel(ids[k]);
  }
  runtime.run_for(sim::seconds(0.2));

  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kPairs / 2));
  auto key = [](int k) {
    // (bucket, schedule order): the order the heap must reproduce.
    return std::pair<int, int>((k * 7) % 10, k);
  };
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(key(fired[i - 1]), key(fired[i]))
        << "timers " << fired[i - 1] << " and " << fired[i] << " fired out of order";
  }
  for (int k : fired) EXPECT_EQ(k % 2, 0) << "cancelled timer " << k << " fired";

  EXPECT_EQ(counter_value(runtime, "posix.timers_fired"), kPairs / 2);
  EXPECT_EQ(counter_value(runtime, "posix.timers_cancelled"), kPairs / 2);

  // Cancelling an already-fired timer is a harmless no-op.
  runtime.cancel(ids[0]);
  EXPECT_EQ(counter_value(runtime, "posix.timers_cancelled"), kPairs / 2);
}

TEST(PosixTimerTest, CancelFromCallbackSuppressesPendingTimer) {
  rt::PosixRuntime runtime;
  bool victim_fired = false;
  const rt::TimerId victim = runtime.schedule_after(
      sim::Time(10'000'000), [&victim_fired] { victim_fired = true; });
  runtime.schedule_after(sim::Time(1'000'000),
                         [&runtime, victim] { runtime.cancel(victim); });
  runtime.run_for(sim::seconds(0.05));
  EXPECT_FALSE(victim_fired);
}

TEST(PosixSocketTest, BurstLargerThanOneBatchDeliversEverything) {
  rt::PosixRuntime runtime;
  Pair pair;
  if (!pair.open(runtime, kBasePort)) GTEST_SKIP() << "sockets unavailable";

  constexpr int kDatagrams = 300;  // > one sendmmsg batch and > one RX drain
  int received = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView payload) {
    ASSERT_EQ(payload.size(), 100u);
    EXPECT_EQ(payload.data()[0], 0xab);
    ++received;
  });
  const Buffer payload(100, 0xab);
  runtime.schedule_after(sim::Time(0), [&] {
    for (int i = 0; i < kDatagrams; ++i) {
      pair.tx->send_to(pair.dst, BytesView(payload.data(), payload.size()));
    }
  });
  for (int spin = 0; spin < 50 && received < kDatagrams; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  EXPECT_EQ(received, kDatagrams);
  EXPECT_EQ(counter_value(runtime, "posix.datagrams_sent"),
            static_cast<std::uint64_t>(kDatagrams));
  EXPECT_EQ(counter_value(runtime, "posix.datagrams_received"),
            static_cast<std::uint64_t>(kDatagrams));
  // The burst was enqueued inside the loop, so it left in batched
  // syscalls — far fewer than one per datagram.
  EXPECT_LT(counter_value(runtime, "posix.sendmmsg_calls"),
            static_cast<std::uint64_t>(kDatagrams) / 4);
  EXPECT_EQ(counter_value(runtime, "posix.send_errors"), 0u);
  EXPECT_EQ(counter_value(runtime, "posix.tx_ring_drops"), 0u);
}

TEST(PosixSocketTest, ZeroDelayTimerPumpDoesNotStarveIo) {
  // Regression: fire_due_timers once looped until no timer was due, so a
  // self-rescheduling zero-delay timer kept the dispatch round alive
  // forever and the sockets never drained.
  rt::PosixRuntime runtime;
  Pair pair;
  if (!pair.open(runtime, kBasePort + 1)) GTEST_SKIP() << "sockets unavailable";

  int received = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView) { ++received; });
  const Buffer payload(64, 0x11);
  bool done = false;
  std::function<void()> pump = [&] {
    if (done) return;
    pair.tx->send_to(pair.dst, BytesView(payload.data(), payload.size()));
    runtime.schedule_after(sim::Time(0), pump);
  };
  runtime.schedule_after(sim::Time(0), pump);
  runtime.schedule_after(sim::Time(50'000'000), [&] {
    done = true;
    runtime.stop();
  });
  runtime.run();
  runtime.run_for(sim::Time(20'000'000));  // drain what is in flight
  EXPECT_GT(received, 100) << "socket RX starved by timer traffic";
}

TEST(PosixSocketTest, TinyRingBackpressuresWithoutLoss) {
  rt::PosixRuntime runtime;
  Pair pair;
  rt::PosixSocketOptions tx_extra;
  tx_extra.tx_ring_capacity = 8;
  if (!pair.open(runtime, kBasePort + 2, {}, tx_extra)) {
    GTEST_SKIP() << "sockets unavailable";
  }

  constexpr int kDatagrams = 500;
  int received = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView) { ++received; });
  const Buffer payload(200, 0x77);
  runtime.schedule_after(sim::Time(0), [&] {
    for (int i = 0; i < kDatagrams; ++i) {
      pair.tx->send_to(pair.dst, BytesView(payload.data(), payload.size()));
    }
  });
  for (int spin = 0; spin < 50 && received < kDatagrams; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  // The ring was 8 deep for a 500-datagram burst: the sender had to
  // flush mid-enqueue (backpressure), but nothing may be dropped.
  EXPECT_EQ(received, kDatagrams);
  EXPECT_EQ(counter_value(runtime, "posix.tx_ring_drops"), 0u);
  EXPECT_EQ(counter_value(runtime, "posix.datagrams_sent"),
            static_cast<std::uint64_t>(kDatagrams));
}

TEST(PosixSocketTest, MulticastLoopbackRoundTrip) {
  rt::PosixRuntime runtime;
  rt::PosixSocketOptions rx_options;
  rx_options.port = kBasePort + 3;
  rx_options.reuse_addr = true;
  rx_options.join_groups = {net::Ipv4Addr(239, 77, 9, 1)};
  auto rx = runtime.open_socket(rx_options);
  rt::PosixSocketOptions tx_options;
  auto tx = runtime.open_socket(tx_options);
  if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";

  int received = 0;
  rx->set_handler([&](const net::Endpoint&, BytesView payload) {
    EXPECT_EQ(payload.size(), 48u);
    ++received;
  });
  const Buffer payload(48, 0x3c);
  const net::Endpoint group = {net::Ipv4Addr(239, 77, 9, 1),
                               static_cast<std::uint16_t>(kBasePort + 3)};
  runtime.schedule_after(sim::Time(0), [&] {
    for (int i = 0; i < 10; ++i) {
      tx->send_to(group, BytesView(payload.data(), payload.size()));
    }
  });
  for (int spin = 0; spin < 50 && received < 10; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  EXPECT_EQ(received, 10);
}

TEST(PosixSocketTest, OversizeDatagramCountsTruncation) {
  rt::PosixRuntime runtime;
  Pair pair;
  rt::PosixSocketOptions rx_extra;
  rx_extra.max_datagram_bytes = 512;
  // GSO/GRO off: a GRO receive buffer is always big enough, and this
  // test needs the slab slot to actually be the 512-byte cap.
  rx_extra.gso = false;
  if (!pair.open(runtime, kBasePort + 4, rx_extra)) {
    GTEST_SKIP() << "sockets unavailable";
  }

  int received = 0;
  std::size_t received_bytes = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView payload) {
    ++received;
    received_bytes = payload.size();
  });
  const Buffer payload(2000, 0x42);
  runtime.schedule_after(sim::Time(0), [&] {
    pair.tx->send_to(pair.dst, BytesView(payload.data(), payload.size()));
  });
  for (int spin = 0; spin < 50 && received < 1; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  EXPECT_EQ(received, 1);
  EXPECT_EQ(received_bytes, 512u);  // truncated to the slab slot
  EXPECT_EQ(counter_value(runtime, "posix.rx_truncated"), 1u);
}

TEST(PosixSocketTest, SendRefSharesOneArenaBlockAcrossTheBurst) {
  rt::PosixRuntime runtime;
  Pair pair;
  if (!pair.open(runtime, kBasePort + 5)) GTEST_SKIP() << "sockets unavailable";

  int received = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView payload) {
    ASSERT_EQ(payload.size(), 256u);
    EXPECT_EQ(payload.data()[17], static_cast<std::uint8_t>(17 * 131 + 7));
    ++received;
  });
  net::PayloadRef block = net::PayloadRef::allocate(256);
  for (std::size_t i = 0; i < 256; ++i) {
    block.mutable_data()[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  runtime.schedule_after(sim::Time(0), [&] {
    for (int i = 0; i < 50; ++i) pair.tx->send_ref(pair.dst, block);
  });
  for (int spin = 0; spin < 50 && received < 50; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  EXPECT_EQ(received, 50);
}

TEST(PosixSocketTest, BatchSizeHistogramsAreRecorded) {
  rt::PosixRuntime runtime;
  Pair pair;
  if (!pair.open(runtime, kBasePort + 6)) GTEST_SKIP() << "sockets unavailable";

  int received = 0;
  pair.rx->set_handler([&](const net::Endpoint&, BytesView) { ++received; });
  const Buffer payload(128, 0x01);
  runtime.schedule_after(sim::Time(0), [&] {
    for (int i = 0; i < 100; ++i) {
      pair.tx->send_to(pair.dst, BytesView(payload.data(), payload.size()));
    }
  });
  for (int spin = 0; spin < 50 && received < 100; ++spin) {
    runtime.run_for(sim::Time(10'000'000));
  }
  ASSERT_EQ(received, 100);
  metrics::Registry& m = runtime.metrics();
  const metrics::LatencyHistogram* tx = m.find_histogram("posix.tx_batch_datagrams");
  const metrics::LatencyHistogram* rx = m.find_histogram("posix.rx_batch_datagrams");
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rx, nullptr);
  EXPECT_GT(tx->count(), 0u);
  EXPECT_GT(rx->count(), 0u);
  EXPECT_GT(m.gauge("posix.tx_ring_depth_hwm").value(), 0.0);
}

}  // namespace
}  // namespace rmc
