#include "common/strings.h"

#include <cstdint>
#include <cstdio>

namespace predict {

std::vector<std::string> SplitString(std::string_view input, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= input.size()) {
    size_t end = input.find(delimiter, start);
    if (end == std::string_view::npos) end = input.size();
    if (end > start) out.emplace_back(input.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  const char* ws = " \t\r\n";
  const size_t begin = s.find_first_not_of(ws);
  if (begin == std::string_view::npos) return {};
  const size_t end = s.find_last_not_of(ws);
  return s.substr(begin, end - begin + 1);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  }
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  } else if (b < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
  } else if (b < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

std::string PadLeft(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace predict
