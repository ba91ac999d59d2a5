// Unit tests for the GF(2^8) kernel and the systematic erasure codec:
// field identities, scalar/wide backend equivalence, and decode round
// trips over every erasure pattern the MDS bound admits.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rmcast/fec/codec.h"
#include "rmcast/fec/gf256.h"

namespace rmc::rmcast::fec {
namespace {

TEST(Gf256, MultiplicationIsAFieldOperation) {
  // Zero annihilates, one is the identity.
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf_mul(0, static_cast<std::uint8_t>(a)), 0);
    EXPECT_EQ(gf_mul(static_cast<std::uint8_t>(a), 1), a);
  }
  // Commutative, and associative on a sampled triple grid.
  for (unsigned a = 1; a < 256; a += 7) {
    for (unsigned b = 1; b < 256; b += 11) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(gf_mul(ua, ub), gf_mul(ub, ua));
      for (unsigned c = 1; c < 256; c += 29) {
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(gf_mul(gf_mul(ua, ub), uc), gf_mul(ua, gf_mul(ub, uc)));
      }
    }
  }
}

TEST(Gf256, EveryNonzeroElementHasAnInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf_mul(ua, gf_inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf_div(ua, ua), 1) << "a=" << a;
    // div is mul by the inverse.
    EXPECT_EQ(gf_div(0x5A, ua), gf_mul(0x5A, gf_inv(ua))) << "a=" << a;
  }
}

TEST(Gf256, ExpAndLogAreInverseBijections) {
  // 2 generates the multiplicative group: 255 distinct powers.
  std::array<bool, 256> seen{};
  for (unsigned i = 0; i < 255; ++i) {
    const std::uint8_t v = gf_exp(i);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "power " << i << " repeats";
    seen[v] = true;
    EXPECT_EQ(gf_log(v), i);
  }
  // The doubled exp table: indices past 254 wrap mod 255 so the mul
  // kernel can skip a reduction.
  EXPECT_EQ(gf_exp(255), gf_exp(0));
  EXPECT_EQ(gf_exp(300), gf_exp(300 - 255));
}

TEST(Gf256, MulMatchesShiftAndReduceReference) {
  // Carryless multiply reduced by 0x11D, bit by bit — the definitional
  // product the table path must reproduce for every pair.
  auto reference = [](std::uint8_t a, std::uint8_t b) {
    std::uint32_t acc = 0;
    std::uint32_t aa = a;
    for (unsigned bit = 0; bit < 8; ++bit) {
      if ((b >> bit) & 1u) acc ^= aa << bit;
    }
    for (int bit = 15; bit >= 8; --bit) {
      if ((acc >> bit) & 1u) acc ^= kGfPoly << (bit - 8);
    }
    return static_cast<std::uint8_t>(acc);
  };
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(gf_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                reference(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)))
          << a << "*" << b;
    }
  }
}

// The wide slice-by-64 path must be byte-identical to scalar for every
// constant, including awkward lengths that exercise the scalar tail.
TEST(Gf256, WideRegionOpsMatchScalar) {
  Rng rng(0xFEC);
  for (std::size_t len : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{1000}, std::size_t{4096}}) {
    std::vector<std::uint8_t> src(len), dst_scalar(len), dst_wide(len);
    for (std::size_t i = 0; i < len; ++i) {
      src[i] = static_cast<std::uint8_t>(rng.uniform(256));
      dst_scalar[i] = static_cast<std::uint8_t>(rng.uniform(256));
    }
    dst_wide = dst_scalar;
    xor_region(dst_scalar.data(), src.data(), len, Backend::kScalar);
    xor_region(dst_wide.data(), src.data(), len, Backend::kWide);
    ASSERT_EQ(dst_scalar, dst_wide) << "xor len=" << len;
    for (unsigned c = 0; c < 256; ++c) {
      mul_add_region(dst_scalar.data(), src.data(), static_cast<std::uint8_t>(c),
                     len, Backend::kScalar);
      mul_add_region(dst_wide.data(), src.data(), static_cast<std::uint8_t>(c),
                     len, Backend::kWide);
      ASSERT_EQ(dst_scalar, dst_wide) << "mul_add c=" << c << " len=" << len;
    }
  }
}

// --- Codec -------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> random_blocks(Rng& rng, std::size_t k,
                                                     std::size_t len) {
  std::vector<std::vector<std::uint8_t>> blocks(k, std::vector<std::uint8_t>(len));
  for (auto& b : blocks) {
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return blocks;
}

// Encodes `original`, erases the data blocks and withholds the parity
// blocks that `erased`/`parity_lost` bitmaps name, decodes, and checks
// every data block round-trips. Returns decode's verdict.
bool erasure_round_trip(const Codec& codec,
                        const std::vector<std::vector<std::uint8_t>>& original,
                        std::uint64_t erased, std::uint64_t parity_lost,
                        std::size_t len, Backend backend) {
  const std::size_t k = codec.k();
  const std::size_t m = codec.m();
  std::vector<std::vector<std::uint8_t>> parity(m, std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t*> parity_ptrs(m);
  for (std::size_t j = 0; j < m; ++j) parity_ptrs[j] = parity[j].data();
  std::vector<const std::uint8_t*> data_in(k);
  for (std::size_t i = 0; i < k; ++i) data_in[i] = original[i].data();
  codec.encode(data_in.data(), parity_ptrs.data(), len, backend);

  std::vector<std::vector<std::uint8_t>> work = original;
  std::vector<std::uint8_t*> data_ptrs(k);
  bool data_present[kMaxK];
  bool parity_present[kMaxM];
  for (std::size_t i = 0; i < k; ++i) {
    data_ptrs[i] = work[i].data();
    data_present[i] = ((erased >> i) & 1u) == 0;
    if (!data_present[i]) std::fill(work[i].begin(), work[i].end(), 0xAB);
  }
  std::vector<const std::uint8_t*> parity_in(m);
  for (std::size_t j = 0; j < m; ++j) {
    parity_present[j] = ((parity_lost >> j) & 1u) == 0;
    parity_in[j] = parity_present[j] ? parity[j].data() : nullptr;
  }
  const bool ok = codec.decode(data_ptrs.data(), data_present, parity_in.data(),
                               parity_present, len, backend);
  if (!ok) return false;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(work[i], original[i]) << "block " << i << " erased=" << erased;
  }
  return true;
}

TEST(Codec, XorParityRepairsAnySingleErasure) {
  Rng rng(7);
  const Codec codec(8, 1);
  const auto original = random_blocks(rng, 8, 200);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(erasure_round_trip(codec, original, 1ull << i, 0, 200,
                                   Backend::kScalar));
  }
  // Two erasures exceed one parity: decode must refuse, not corrupt.
  EXPECT_FALSE(erasure_round_trip(codec, original, 0b11, 0, 200, Backend::kScalar));
  // Parity lost too: nothing to repair with.
  EXPECT_FALSE(erasure_round_trip(codec, original, 0b1, 0b1, 200, Backend::kScalar));
}

TEST(Codec, XorCoefficientsAreAllOnes) {
  const Codec codec(16, 1);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(codec.coefficient(0, i), 1);
}

// Exhaustive MDS check at k=5, m=3: every erasure pattern with at most m
// lost data blocks decodes from every sufficient parity subset.
TEST(Codec, EveryErasurePatternUpToMDecodes) {
  Rng rng(41);
  const std::size_t k = 5, m = 3;
  const Codec codec(k, m);
  const auto original = random_blocks(rng, k, 96);
  for (std::uint64_t erased = 0; erased < (1u << k); ++erased) {
    const auto n_erased =
        static_cast<std::size_t>(__builtin_popcountll(erased));
    for (std::uint64_t plost = 0; plost < (1u << m); ++plost) {
      const std::size_t held =
          m - static_cast<std::size_t>(__builtin_popcountll(plost));
      const bool expect_ok = n_erased <= held;
      EXPECT_EQ(erasure_round_trip(codec, original, erased, plost, 96,
                                   Backend::kScalar),
                expect_ok)
          << "erased=" << erased << " plost=" << plost;
    }
  }
}

// The protocol-default shape: k=32, m=8, wide backend, sampled patterns
// including a full 8-long burst (the pattern XOR interleaving cannot fix
// but RS must).
TEST(Codec, DefaultRsShapeSurvivesBurstsWideBackend) {
  Rng rng(97);
  const std::size_t k = 32, m = 8;
  const Codec codec(k, m);
  const auto original = random_blocks(rng, k, 1500);
  // An aligned burst of 8, a straddling burst, scattered losses, and the
  // identity (nothing lost).
  const std::uint64_t patterns[] = {0xFFull << 8, 0xFFull << 21,
                                    0x8421'0842'1084ull & ((1ull << 32) - 1), 0};
  for (std::uint64_t erased : patterns) {
    if (__builtin_popcountll(erased) > static_cast<int>(m)) continue;
    EXPECT_TRUE(
        erasure_round_trip(codec, original, erased, 0, 1500, Backend::kWide))
        << "erased=" << std::hex << erased;
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t erased = 0;
    const std::size_t n = 1 + rng.uniform(m);
    while (static_cast<std::size_t>(__builtin_popcountll(erased)) < n) {
      erased |= 1ull << rng.uniform(k);
    }
    EXPECT_TRUE(
        erasure_round_trip(codec, original, erased, 0, 1500, Backend::kWide))
        << "trial " << trial << " erased=" << std::hex << erased;
  }
  // 9 erasures break the MDS bound.
  EXPECT_FALSE(erasure_round_trip(codec, original, (1ull << 9) - 1, 0, 1500,
                                  Backend::kWide));
}

// Incremental encode (the sender's path: fold one block at a time as it
// transmits) must equal the one-shot encode.
TEST(Codec, IncrementalEncodeAddMatchesOneShot) {
  Rng rng(13);
  const std::size_t k = 6, m = 3, len = 333;
  const Codec codec(k, m);
  const auto original = random_blocks(rng, k, len);

  std::vector<std::vector<std::uint8_t>> one_shot(m, std::vector<std::uint8_t>(len));
  std::vector<std::uint8_t*> one_ptrs(m);
  for (std::size_t j = 0; j < m; ++j) one_ptrs[j] = one_shot[j].data();
  std::vector<const std::uint8_t*> data_in(k);
  for (std::size_t i = 0; i < k; ++i) data_in[i] = original[i].data();
  codec.encode(data_in.data(), one_ptrs.data(), len, Backend::kScalar);

  std::vector<std::vector<std::uint8_t>> incr(m, std::vector<std::uint8_t>(len, 0));
  std::vector<std::uint8_t*> incr_ptrs(m);
  for (std::size_t j = 0; j < m; ++j) incr_ptrs[j] = incr[j].data();
  for (std::size_t i = 0; i < k; ++i) {
    codec.encode_add(i, original[i].data(), incr_ptrs.data(), len, Backend::kWide);
  }
  EXPECT_EQ(incr, one_shot);
}

// Rizzo's normalized-Vandermonde construction promises every square
// submatrix of P is invertible — decode for ANY erasure pattern depends
// on it. Check all 2x2 minors at the default shape (a naive power matrix
// fails this check).
TEST(Codec, ParityMatrixMinorsAreNonsingular) {
  const std::size_t k = 32, m = 8;
  const Codec codec(k, m);
  for (std::size_t r0 = 0; r0 < m; ++r0) {
    for (std::size_t r1 = r0 + 1; r1 < m; ++r1) {
      for (std::size_t c0 = 0; c0 < k; ++c0) {
        for (std::size_t c1 = c0 + 1; c1 < k; ++c1) {
          const std::uint8_t det =
              gf_mul(codec.coefficient(r0, c0), codec.coefficient(r1, c1)) ^
              gf_mul(codec.coefficient(r0, c1), codec.coefficient(r1, c0));
          ASSERT_NE(det, 0) << "singular 2x2 minor at rows " << r0 << "," << r1
                            << " cols " << c0 << "," << c1;
        }
      }
    }
  }
}

TEST(SharedCodec, RepeatedShapeReturnsTheSameCodec) {
  const Codec& first = shared_codec(32, 8);
  EXPECT_EQ(&shared_codec(32, 8), &first);
  EXPECT_NE(&shared_codec(32, 4), &first);
  EXPECT_EQ(first.k(), 32u);
  EXPECT_EQ(first.m(), 8u);
}

TEST(SharedCodec, CoefficientsMatchAFreshCodec) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{16, 1}, {32, 8}, {64, 64}};
  for (const auto& [k, m] : shapes) {
    const Codec fresh(k, m);
    const Codec& shared = shared_codec(k, m);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(shared.coefficient(r, c), fresh.coefficient(r, c))
            << "k=" << k << " m=" << m << " P[" << r << "][" << c << "]";
      }
    }
  }
}

// Concurrent first use (sweep workers starting EC transfers at once)
// builds one codec, and every caller gets it.
TEST(SharedCodec, ConcurrentFirstUseBuildsOneCodec) {
  constexpr std::size_t kThreads = 4;
  std::array<const Codec*, kThreads> got{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&got, t] { got[t] = &shared_codec(23, 5); });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(got[t], got[0]) << "thread " << t;
}

}  // namespace
}  // namespace rmc::rmcast::fec
