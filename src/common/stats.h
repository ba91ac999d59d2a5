// Running statistics and saturating counters for the experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rmc {

// Welford online mean/variance plus min/max. Numerically stable for the
// long accumulation runs the harness performs.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  // Folds another stat into this one (Chan et al.'s parallel combination
  // of Welford states). Count, min and max are exact; mean and m2 agree
  // with sequential accumulation up to floating-point rounding. The sweep
  // engine merges per-worker statistics with this.
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Saturating event counter used by protocol statistics: once the count
// reaches UINT64_MAX it sticks there instead of wrapping, so a pegged
// counter reads as "a lot", never as a small number again.
struct Counter {
  std::uint64_t value = 0;
  void inc(std::uint64_t by = 1) {
    value = by > UINT64_MAX - value ? UINT64_MAX : value + by;
  }
};

}  // namespace rmc
