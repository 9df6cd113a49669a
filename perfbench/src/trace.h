// In-memory spans for the benchmark's traced runs.
//
// A span is a named, timed call into one layer of the predictor, made
// from the benchmark's own code: name, start, end, the span open around
// it (its parent) and the request it belongs to. Spans nest like the
// calls that open them; nothing is recorded inside the program.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
  uint64_t request = 0;
  double children_seconds = 0.0;  ///< summed durations of direct children

  double seconds() const { return end - start; }
  /// The span's duration minus the part its children cover (children run
  /// inside it, one after another).
  double self_seconds() const { return seconds() - children_seconds; }
};

class Tracer {
 public:
  /// Opens a span under the innermost open one.
  int Begin(const char* name, uint64_t request);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds of every closed span, grouped by name.
  std::map<std::string, std::vector<double>> SelfSecondsByName() const;

  /// Writes one JSON object per span and line. Returns false on an I/O
  /// error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call: opens a span on construction, closes it on
/// destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
