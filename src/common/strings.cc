#include "common/strings.h"

#include <cstdarg>
#include <cstdio>

namespace rmc {

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes < 1024) return str_format("%lluB", static_cast<unsigned long long>(bytes));
  if (bytes < 1024ULL * 1024) {
    return str_format("%.1fKB", static_cast<double>(bytes) / 1024.0);
  }
  if (bytes < 1024ULL * 1024 * 1024) {
    return str_format("%.1fMB", static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return str_format("%.1fGB", static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
}

std::string format_seconds(double seconds) {
  if (seconds < 1e-3) return str_format("%.1fus", seconds * 1e6);
  if (seconds < 1.0) return str_format("%.2fms", seconds * 1e3);
  return str_format("%.3fs", seconds);
}

std::string format_rate(double bits_per_second) {
  if (bits_per_second < 1e3) return str_format("%.0fbps", bits_per_second);
  if (bits_per_second < 1e6) return str_format("%.1fKbps", bits_per_second / 1e3);
  if (bits_per_second < 1e9) return str_format("%.1fMbps", bits_per_second / 1e6);
  return str_format("%.2fGbps", bits_per_second / 1e9);
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += str_format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace rmc
