// Unit tests for rmc_common: serialization, RNG, statistics, strings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>

#include "common/buffer_recycler.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/stats.h"
#include "common/strings.h"

namespace rmc {
namespace {

TEST(Serial, RoundTripsAllWidths) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  Buffer raw{1, 2, 3};
  w.bytes(BytesView(raw.data(), raw.size()));

  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  BytesView tail = r.bytes(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[2], 3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serial, BigEndianOnTheWire) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x01);
  EXPECT_EQ(w.buffer()[3], 0x04);
}

TEST(Serial, UnderrunClearsOkAndReturnsZero) {
  Buffer two{0xFF, 0xFF};
  Reader r(BytesView(two.data(), two.size()));
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Every subsequent read stays failed.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_TRUE(r.bytes(1).empty());
}

TEST(Serial, BytesUnderrunReturnsEmpty) {
  Buffer three{1, 2, 3};
  Reader r(BytesView(three.data(), three.size()));
  EXPECT_TRUE(r.bytes(4).empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serial, EmptyReaderIsOkUntilRead) {
  Reader r(BytesView{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  r.u8();
  EXPECT_FALSE(r.ok());
}

TEST(BufferRecycler, ReusesBuffersWithoutRefilling) {
  BufferRecycler recycler;
  Buffer a = recycler.acquire(4096);
  ASSERT_EQ(a.size(), 4096u);
  a[100] = 0xAB;
  const std::uint8_t* storage = a.data();
  recycler.release(std::move(a));
  EXPECT_EQ(recycler.outstanding(), 0u);
  EXPECT_EQ(recycler.pooled(), 1u);
  // The same storage comes back, contents as left: nothing was zeroed.
  Buffer b = recycler.acquire(1000);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b[100], 0xAB);
  recycler.release(std::move(b));
}

TEST(BufferRecycler, PrefersTheTightestFit) {
  BufferRecycler recycler;
  Buffer big = recycler.acquire(10'000);
  Buffer small = recycler.acquire(2'000);
  const std::uint8_t* small_storage = small.data();
  recycler.release(std::move(big));
  recycler.release(std::move(small));
  Buffer got = recycler.acquire(1'500);
  EXPECT_EQ(got.data(), small_storage);
  recycler.release(std::move(got));
}

TEST(BufferRecycler, KeepsNoMoreThanTheLastTransferHeld) {
  BufferRecycler recycler;
  std::vector<Buffer> held;
  for (int i = 0; i < 5; ++i) held.push_back(recycler.acquire(1000));
  for (Buffer& b : held) recycler.release(std::move(b));
  EXPECT_EQ(recycler.pooled(), 5u);
  // A transfer holding two buffers at once: when it ends, the pool
  // shrinks to those two.
  Buffer x = recycler.acquire(1000);
  Buffer y = recycler.acquire(1000);
  recycler.release(std::move(x));
  EXPECT_EQ(recycler.pooled(), 4u);  // y still out: no trim mid-transfer
  recycler.release(std::move(y));
  EXPECT_EQ(recycler.pooled(), 2u);
  EXPECT_EQ(recycler.outstanding(), 0u);
}

TEST(BufferRecycler, EmptyBuffersAreNotTracked) {
  BufferRecycler recycler;
  Buffer empty = recycler.acquire(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(recycler.outstanding(), 0u);
  recycler.release(std::move(empty));
  recycler.release(Buffer{});
  EXPECT_EQ(recycler.pooled(), 0u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_differs_from_c = false;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t va = a.next();
    if (va != b.next()) all_equal = false;
    if (va != c.next()) any_differs_from_c = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs_from_c);
}

TEST(Rng, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRangeRoughlyEvenly) {
  Rng rng(11);
  std::map<std::uint64_t, int> histogram;
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++histogram[rng.uniform(8)];
  ASSERT_EQ(histogram.size(), 8u);
  for (const auto& [value, count] : histogram) {
    EXPECT_NEAR(count, n / 8, n / 40) << "bucket " << value;
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, n / 4, n / 100);
}

TEST(RunningStat, MatchesDirectComputation) {
  RunningStat stat;
  const double values[] = {4.0, 7.0, 13.0, 16.0};
  for (double v : values) stat.add(v);
  EXPECT_EQ(stat.count(), 4u);
  EXPECT_DOUBLE_EQ(stat.mean(), 10.0);
  EXPECT_DOUBLE_EQ(stat.min(), 4.0);
  EXPECT_DOUBLE_EQ(stat.max(), 16.0);
  EXPECT_NEAR(stat.variance(), 30.0, 1e-9);  // sample variance
  EXPECT_NEAR(stat.stddev(), std::sqrt(30.0), 1e-9);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat stat;
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
  stat.add(5.0);
  EXPECT_EQ(stat.mean(), 5.0);
  EXPECT_EQ(stat.variance(), 0.0);
  EXPECT_EQ(stat.min(), 5.0);
  EXPECT_EQ(stat.max(), 5.0);
}

TEST(Counter, SaturatesAtMax) {
  Counter c;
  c.inc();
  EXPECT_EQ(c.value, 1u);
  c.inc(5);
  EXPECT_EQ(c.value, 6u);

  c.value = UINT64_MAX - 1;
  c.inc();
  EXPECT_EQ(c.value, UINT64_MAX);
  c.inc();  // pegged: sticks at the ceiling instead of wrapping to 0
  EXPECT_EQ(c.value, UINT64_MAX);
  c.inc(12345);
  EXPECT_EQ(c.value, UINT64_MAX);

  Counter big;
  big.inc(UINT64_MAX);
  EXPECT_EQ(big.value, UINT64_MAX);
  big.value = 10;
  big.inc(UINT64_MAX - 5);  // overflowing increment also saturates
  EXPECT_EQ(big.value, UINT64_MAX);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(500), "500B");
  EXPECT_EQ(format_bytes(1536), "1.5KB");
  EXPECT_EQ(format_bytes(2 * 1024 * 1024), "2.0MB");
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.000123), "123.0us");
  EXPECT_EQ(format_seconds(0.05), "50.00ms");
  EXPECT_EQ(format_seconds(1.5), "1.500s");
}

TEST(Strings, FormatRate) {
  EXPECT_EQ(format_rate(89.7e6), "89.7Mbps");
  EXPECT_EQ(format_rate(500), "500bps");
  EXPECT_EQ(format_rate(2.5e9), "2.50Gbps");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%s", ""), "");
}

TEST(Strings, AppendJsonStringEscapes) {
  std::string out = "x";
  append_json_string(out, "a\tb\x01" "c\"d\\e\nf\x1f");
  EXPECT_EQ(out, R"(x"a\tb\u0001c\"d\\e\nf\u001f")");
  out.clear();
  append_json_string(out, "");
  EXPECT_EQ(out, R"("")");
}

}  // namespace
}  // namespace rmc
