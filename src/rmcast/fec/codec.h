// Systematic erasure codec over GF(2^8) for the hybrid-FEC protocols.
//
// A Codec(k, m) turns k data blocks into m parity blocks such that any k
// of the k+m survive a loss of up to m blocks (an MDS code). The parity
// matrix follows Rizzo's construction: take the full (k+m) x k
// Vandermonde matrix V over distinct field points, normalize by the
// inverse of its top k x k square so the generator is systematic
// (identity over the data rows), and keep the bottom m x k block P.
// Because the normalized generator is itself Vandermonde-derived, every
// square submatrix of P is invertible — which is exactly the property
// decode needs to solve for any erasure pattern. (A naive "parity row j
// is [alpha^(j*i)]" matrix does NOT have this property over GF(2^8);
// some survivor subsets are singular.)
//
// m == 1 is special-cased to the all-ones row: plain XOR parity, the
// EC-XOR protocol's code, trivially MDS for one erasure.
//
// Decode is syndrome-based: for each usable parity row j,
//   syndrome_j = parity_j XOR sum_i(P[j][i] * data_i)   over held data i
// leaves an e x e linear system in the erased blocks (e <= m), solved by
// Gauss-Jordan on the e x e submatrix of P and applied to the syndromes
// with region multiply-accumulate. Costs O(e^2) region ops on blocks,
// plus an O(e^3) byte-matrix inversion (e <= m <= 64, negligible).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rmcast/fec/gf256.h"

namespace rmc::rmcast::fec {

// The group-NAK wire bitmap is a u64, so a group never exceeds 64 data
// blocks; k + m <= 255 keeps the Vandermonde points distinct.
inline constexpr std::size_t kMaxK = 64;
inline constexpr std::size_t kMaxM = 64;

class Codec {
 public:
  // Requires 1 <= k <= kMaxK, 1 <= m <= kMaxM, k + m <= 255.
  Codec(std::size_t k, std::size_t m);

  std::size_t k() const { return k_; }
  std::size_t m() const { return m_; }

  // Parity coefficient P[row][col]; exposed for tests.
  std::uint8_t coefficient(std::size_t row, std::size_t col) const {
    return p_[row * k_ + col];
  }

  // Folds data block `index` (0 <= index < k) into every parity buffer:
  // parity[j] ^= P[j][index] * data. All buffers are `len` bytes. The
  // sender calls this incrementally as it transmits each block; parity
  // buffers must start zeroed.
  void encode_add(std::size_t index, const std::uint8_t* data,
                  std::uint8_t* const* parity, std::size_t len,
                  Backend backend) const;

  // One-shot encode of all k blocks (zeroes parity first).
  void encode(const std::uint8_t* const* data, std::uint8_t* const* parity,
              std::size_t len, Backend backend) const;

  // Reconstructs the erased data blocks in place. data[i] points at the
  // block's `len`-byte buffer for all i: held blocks are inputs, erased
  // blocks (data_present[i] == false) are outputs and may hold garbage.
  // parity[j] may be null when parity_present[j] is false. Returns false
  // (touching nothing) when more data blocks are erased than parity
  // blocks are held.
  bool decode(std::uint8_t* const* data, const bool* data_present,
              const std::uint8_t* const* parity, const bool* parity_present,
              std::size_t len, Backend backend) const;

 private:
  std::size_t k_;
  std::size_t m_;
  std::vector<std::uint8_t> p_;  // m x k, row-major
};

// The process-wide Codec(k, m): built on first use (thread-safe), never
// evicted, and shared by every sender and receiver that codes with
// (k, m), so a group of N receivers pays the Vandermonde inversion once
// instead of N + 1 times. (k, m) is a codec's entire input and a built
// codec is immutable, so sharing it cannot leak one configuration's
// state into another. Same preconditions as the constructor.
const Codec& shared_codec(std::size_t k, std::size_t m);

}  // namespace rmc::rmcast::fec
