// Simulated time.
//
// Time is a signed 64-bit nanosecond count from simulation start. At the
// 100 Mbps rates modelled here one byte is 80 ns, so nanosecond resolution
// loses nothing, and 2^63 ns ≈ 292 years bounds no experiment.
#pragma once

#include <cstdint>

namespace rmc::sim {

using Time = std::int64_t;  // nanoseconds

constexpr Time kNever = INT64_MAX;

constexpr Time nanoseconds(std::int64_t n) { return n; }
constexpr Time microseconds(std::int64_t us) { return us * 1'000; }
constexpr Time milliseconds(std::int64_t ms) { return ms * 1'000'000; }
constexpr Time seconds(double s) { return static_cast<Time>(s * 1e9); }

constexpr double to_seconds(Time t) { return static_cast<double>(t) / 1e9; }

// Time to serialize `bytes` at `bits_per_second`, rounded to the nearest
// whole ns (halves round up).
constexpr Time transmission_time(std::uint64_t bytes, double bits_per_second) {
  return static_cast<Time>(static_cast<double>(bytes) * 8.0 / bits_per_second * 1e9 + 0.5);
}

}  // namespace rmc::sim
