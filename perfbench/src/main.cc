// perfbench: runs one workload of the repository benchmark and prints
// its metrics.
//
//   perfbench --workload cold_paper|warm_whatif|churn_stream --seed N
//             --seconds S --trace 0|1 [--trace-out spans.jsonl]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced replay (--trace 1). Lines before it give the run metadata.
// Exit status: 0 when every served report matched the uncached
// reference, 1 on a mismatch or a failed run, 2 on a usage error.

#include <charconv>
#include <cstdio>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::WorkloadResult;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_paper|warm_whatif|churn_stream --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               message);
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, *value);
  return error == std::errc() && ptr == end && !text.empty();
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &config.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        return Usage("bad --seconds");
      }
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  predict::Result<WorkloadResult> result =
      workload == "cold_paper"     ? perfbench::RunColdPaper(config)
      : workload == "warm_whatif"  ? perfbench::RunWarmWhatif(config)
      : workload == "churn_stream" ? perfbench::RunChurnStream(config)
                                   : predict::Status::InvalidArgument(
                                         "unknown workload '" + workload + "'");
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("requests: attempted=%llu succeeded=%llu failed=%llu\n",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->attempted -
                                              result->failed),
              static_cast<unsigned long long>(result->failed));
  std::string meta = "{\"workload\": \"" + workload + "\", \"seed\": " +
                     std::to_string(config.seed) + ", \"seconds\": " +
                     Number(config.seconds) + ", \"trace\": " +
                     (config.trace ? "1" : "0") + ", \"cores\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  for (const auto& [key, value] : result->meta) {
    meta += ", \"" + key + "\": " + value;
  }
  std::printf("meta %s}\n", meta.c_str());

  std::string metrics;
  for (const Metric& m : result->metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result->correct ? "true" : "false",
      static_cast<unsigned long long>(result->attempted),
      static_cast<unsigned long long>(result->failed), metrics.c_str());
  std::fflush(stdout);
  return result->correct && result->failed == 0 ? 0 : 1;
}
