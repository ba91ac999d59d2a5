// Small string formatting helpers shared by the harness and benches.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rmc {

// printf-style into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// 1536 -> "1.5KB", 2097152 -> "2.0MB"; exact small values stay plain ("500B").
std::string format_bytes(std::uint64_t bytes);

// Seconds with sensible unit: 0.000123 -> "123.0us", 0.05 -> "50.0ms".
std::string format_seconds(double seconds);

// Bits/second: 89700000 -> "89.7Mbps".
std::string format_rate(double bits_per_second);

// Appends `s` to `out` as a quoted JSON string: quote, backslash, newline
// and tab get their two-character escapes, every other control character
// \u00XX; everything else is copied as is.
void append_json_string(std::string& out, std::string_view s);

}  // namespace rmc
