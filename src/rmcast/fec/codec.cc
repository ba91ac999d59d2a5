#include "rmcast/fec/codec.h"

#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/panic.h"

namespace rmc::rmcast::fec {
namespace {

// Gauss-Jordan inversion of an n x n matrix over GF(2^8), row-major.
// Returns false if singular (never happens for the submatrices decode
// builds, but the solver checks anyway).
bool invert_matrix(std::vector<std::uint8_t>& a, std::size_t n) {
  std::vector<std::uint8_t> inv(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) inv[i * n + i] = 1;
  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot at or below the diagonal.
    std::size_t pivot = col;
    while (pivot < n && a[pivot * n + col] == 0) ++pivot;
    if (pivot == n) return false;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[pivot * n + j], a[col * n + j]);
        std::swap(inv[pivot * n + j], inv[col * n + j]);
      }
    }
    const std::uint8_t scale = gf_inv(a[col * n + col]);
    for (std::size_t j = 0; j < n; ++j) {
      a[col * n + j] = gf_mul(a[col * n + j], scale);
      inv[col * n + j] = gf_mul(inv[col * n + j], scale);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col) continue;
      const std::uint8_t f = a[row * n + col];
      if (f == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a[row * n + j] ^= gf_mul(f, a[col * n + j]);
        inv[row * n + j] ^= gf_mul(f, inv[col * n + j]);
      }
    }
  }
  a = std::move(inv);
  return true;
}

}  // namespace

Codec::Codec(std::size_t k, std::size_t m) : k_(k), m_(m), p_(m * k, 0) {
  RMC_ENSURE(k >= 1 && k <= kMaxK, "FEC k out of range");
  RMC_ENSURE(m >= 1 && m <= kMaxM, "FEC m out of range");
  RMC_ENSURE(k + m <= 255, "FEC k+m exceeds the field");

  if (m_ == 1) {
    // Plain XOR parity: the EC-XOR code.
    for (std::size_t c = 0; c < k_; ++c) p_[c] = 1;
    return;
  }

  // Rizzo construction: P = V_bottom * inverse(V_top), where V is the
  // (k+m) x k Vandermonde matrix over points 0, 1, ..., k+m-1.
  const std::size_t n = k_ + m_;
  std::vector<std::uint8_t> v(n * k_, 0);
  for (std::size_t r = 0; r < n; ++r) {
    std::uint8_t pw = 1;
    for (std::size_t c = 0; c < k_; ++c) {
      v[r * k_ + c] = pw;
      pw = gf_mul(pw, static_cast<std::uint8_t>(r));
    }
  }
  std::vector<std::uint8_t> top(v.begin(), v.begin() + k_ * k_);
  const bool ok = invert_matrix(top, k_);  // top is now V_top^-1
  RMC_ENSURE(ok, "Vandermonde top square must be invertible");
  for (std::size_t r = 0; r < m_; ++r) {
    for (std::size_t c = 0; c < k_; ++c) {
      std::uint8_t acc = 0;
      for (std::size_t t = 0; t < k_; ++t) {
        acc ^= gf_mul(v[(k_ + r) * k_ + t], top[t * k_ + c]);
      }
      p_[r * k_ + c] = acc;
    }
  }
}

void Codec::encode_add(std::size_t index, const std::uint8_t* data,
                       std::uint8_t* const* parity, std::size_t len,
                       Backend backend) const {
  RMC_ENSURE(index < k_, "encode_add index out of range");
  for (std::size_t j = 0; j < m_; ++j) {
    mul_add_region(parity[j], data, p_[j * k_ + index], len, backend);
  }
}

void Codec::encode(const std::uint8_t* const* data, std::uint8_t* const* parity,
                   std::size_t len, Backend backend) const {
  for (std::size_t j = 0; j < m_; ++j) std::memset(parity[j], 0, len);
  for (std::size_t i = 0; i < k_; ++i) {
    encode_add(i, data[i], parity, len, backend);
  }
}

bool Codec::decode(std::uint8_t* const* data, const bool* data_present,
                   const std::uint8_t* const* parity,
                   const bool* parity_present, std::size_t len,
                   Backend backend) const {
  std::vector<std::size_t> erased;
  for (std::size_t i = 0; i < k_; ++i) {
    if (!data_present[i]) erased.push_back(i);
  }
  if (erased.empty()) return true;

  std::vector<std::size_t> rows;  // parity rows we will consume
  for (std::size_t j = 0; j < m_ && rows.size() < erased.size(); ++j) {
    if (parity_present[j]) rows.push_back(j);
  }
  const std::size_t e = erased.size();
  if (rows.size() < e) return false;

  // Syndromes: what each chosen parity row still owes after the held
  // data blocks are folded back out.
  std::vector<std::vector<std::uint8_t>> synd(e);
  for (std::size_t r = 0; r < e; ++r) {
    const std::size_t j = rows[r];
    synd[r].assign(parity[j], parity[j] + len);
    for (std::size_t i = 0; i < k_; ++i) {
      if (data_present[i]) {
        mul_add_region(synd[r].data(), data[i], p_[j * k_ + i], len, backend);
      }
    }
  }

  // Solve the e x e system over the erased columns.
  std::vector<std::uint8_t> a(e * e, 0);
  for (std::size_t r = 0; r < e; ++r) {
    for (std::size_t c = 0; c < e; ++c) {
      a[r * e + c] = p_[rows[r] * k_ + erased[c]];
    }
  }
  const bool ok = invert_matrix(a, e);
  RMC_ENSURE(ok, "MDS submatrix must be invertible");

  for (std::size_t c = 0; c < e; ++c) {
    std::uint8_t* out = data[erased[c]];
    std::memset(out, 0, len);
    for (std::size_t r = 0; r < e; ++r) {
      mul_add_region(out, synd[r].data(), a[c * e + r], len, backend);
    }
  }
  return true;
}

const Codec& shared_codec(std::size_t k, std::size_t m) {
  // Map nodes never move, so handed-out references stay valid as the
  // map grows.
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::size_t>, Codec> codecs;
  std::lock_guard<std::mutex> lock(mu);
  return codecs.try_emplace({k, m}, k, m).first->second;
}

}  // namespace rmc::rmcast::fec
