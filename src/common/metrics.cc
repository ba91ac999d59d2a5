#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace rmc::metrics {

double LatencyHistogram::bucket_bound_us(std::size_t i) {
  return kFirstBoundUs * std::pow(2.0, static_cast<double>(i) / 2.0);
}

void LatencyHistogram::record(double value_us) {
  if (!(value_us >= 0.0)) value_us = 0.0;  // clamp negatives and NaN
  stat_.add(value_us);
  // Geometric bucket index: smallest i with value < bound(i). Solving
  // bound(i) > v gives i > 2*log2(v / first_bound).
  std::size_t index = 0;
  if (value_us >= kFirstBoundUs) {
    index = static_cast<std::size_t>(
                std::floor(2.0 * std::log2(value_us / kFirstBoundUs))) +
            1;
  }
  buckets_[std::min(index, kBuckets - 1)] += 1;
}

double LatencyHistogram::percentile_us(double p) const {
  const std::size_t n = stat_.count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[i];
    if (static_cast<double>(seen) < rank) continue;
    // Rank lands in bucket i: interpolate between its bounds.
    const double lo = i == 0 ? 0.0 : bucket_bound_us(i - 1);
    const double hi = bucket_bound_us(i);
    const double frac =
        std::clamp((rank - before) / static_cast<double>(buckets_[i]), 0.0, 1.0);
    const double estimate = lo + frac * (hi - lo);
    // The exact extremes are known; never report beyond them.
    return std::clamp(estimate, stat_.min(), stat_.max());
  }
  return stat_.max();
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  stat_.merge(other.stat_);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].inc(c.value());
  for (const auto& [name, g] : other.gauges_) gauges_[name].set_max(g.value());
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  // Metadata folds as a union; a key whose value differs across folded
  // registries (a sweep over several protocols, say) collapses to "mixed"
  // — deterministically, whatever the fold order.
  for (const auto& [key, value] : other.meta_) {
    auto it = meta_.find(key);
    if (it == meta_.end()) {
      meta_.emplace(key, value);
    } else if (it->second != value) {
      it->second = "mixed";
    }
  }
}

const CounterMetric* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const LatencyHistogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const std::string* Registry::find_meta(const std::string& key) const {
  auto it = meta_.find(key);
  return it == meta_.end() ? nullptr : &it->second;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  meta_.clear();
}

namespace {

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";  // JSON has no Inf/NaN; observability must not break runs
    return;
  }
  out += str_format("%.9g", v);
}

}  // namespace

std::string Registry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  if (!meta_.empty()) {
    out += "  \"meta\": {";
    for (const auto& [key, value] : meta_) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      append_json_string(out, key);
      out += ": ";
      append_json_string(out, value);
    }
    out += "\n  },\n";
  }
  out += "  \"counters\": {";
  first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += str_format(": %llu", static_cast<unsigned long long>(c.value()));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_json_double(out, g.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += str_format(": {\"count\": %llu, \"min_us\": ",
                      static_cast<unsigned long long>(h.count()));
    append_json_double(out, h.min_us());
    out += ", \"max_us\": ";
    append_json_double(out, h.max_us());
    out += ", \"mean_us\": ";
    append_json_double(out, h.mean_us());
    out += ", \"p50_us\": ";
    append_json_double(out, h.p50_us());
    out += ", \"p95_us\": ";
    append_json_double(out, h.p95_us());
    out += ", \"p99_us\": ";
    append_json_double(out, h.p99_us());
    if (h.count() > 0) {
      out += ", \"buckets\": [";
      for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (i > 0) out += ",";
        out += str_format("%llu", static_cast<unsigned long long>(h.bucket_count(i)));
      }
      out += "]";
    }
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void Registry::write_json(std::FILE* out) const {
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), out);
}

}  // namespace rmc::metrics
