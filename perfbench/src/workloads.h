// The benchmark's workloads. Each runs one closed loop with a single
// client, in one thread, through the public PredictionService and
// pipeline API:
//
//   cold_paper    every request misses both caches (the paper's own use)
//   warm_whatif   every request is served from warm caches
//   churn_stream  every request mutates the graph and re-predicts
//
// See perfbench/README.md for why each exists and what each metric means.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Minimum length of the timed phase.
  double seconds = 10.0;
  /// false: end-to-end metrics from an untraced run. true: per-layer
  /// metrics from a traced replay of the same requests.
  bool trace = false;
  /// Where a traced run writes its spans, one JSON object per line;
  /// empty = not written.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  /// False when a served report differed from the uncached reference.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run metadata: key and JSON value text.
  std::vector<std::pair<std::string, std::string>> meta;
};

predict::Result<WorkloadResult> RunColdPaper(const RunConfig& config);
predict::Result<WorkloadResult> RunWarmWhatif(const RunConfig& config);
predict::Result<WorkloadResult> RunChurnStream(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
