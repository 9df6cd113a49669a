// Machine-readable gate output: BENCH_<name>.json next to the binary.
//
// The bench gates print human tables, but CI wants numbers it can track
// across commits without scraping stdout. Each gate calls BenchJson to
// mirror its key metrics and verdict into a flat JSON object written to
// BENCH_<name>.json in the working directory (override the directory
// with PREDICT_BENCH_JSON_DIR), led by the host it ran on: `cores`,
// `build_type` and `compiler`, so numbers from two hosts can be told
// apart. Writing is best-effort: a read-only working directory must not
// fail a gate whose measurements passed.

#ifndef PREDICT_BENCH_BENCH_JSON_H_
#define PREDICT_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace predict::benchutil {

/// Collects flat key/value metrics and writes them as one JSON object.
class BenchJson {
 public:
  /// `name` becomes the file name: BENCH_<name>.json.
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, int value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, size_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }
  void AddString(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    entries_.emplace_back(key, quoted);
  }

  /// Writes BENCH_<name>.json; returns false (after a warning to stderr)
  /// when the file cannot be written. Never aborts.
  bool Write() const {
    const char* dir = std::getenv("PREDICT_BENCH_JSON_DIR");
    std::string path = dir != nullptr && dir[0] != '\0'
                           ? std::string(dir) + "/BENCH_" + name_ + ".json"
                           : "BENCH_" + name_ + ".json";
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out,
                 "{\n  \"cores\": %u,\n  \"build_type\": \"%s\",\n"
                 "  \"compiler\": \"%s\"%s\n",
                 std::thread::hardware_concurrency(), PREDICT_BENCH_BUILD_TYPE,
                 PREDICT_BENCH_COMPILER, entries_.empty() ? "" : ",");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "  \"%s\": %s%s\n", entries_[i].first.c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace predict::benchutil

#endif  // PREDICT_BENCH_BENCH_JSON_H_
