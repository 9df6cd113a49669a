// Key input features (Table 1 of the paper) and run profiles.
//
// A RunProfile is the bridge between the execution substrate and the
// prediction machinery: per-iteration feature vectors taken from the
// critical-path worker (§3.4, "Modeling the Critical Path") plus the
// observed per-iteration runtime. Profiles come from sample runs and
// from historical actual runs; the cost model trains on both.

#ifndef PREDICT_CORE_FEATURES_H_
#define PREDICT_CORE_FEATURES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bsp/counters.h"

namespace predict {

/// The candidate feature pool (Table 1). NumIter is not a per-iteration
/// feature: the transform function preserves it instead (§3.3).
enum class Feature : int {
  kActVert = 0,     ///< active vertices
  kTotVert = 1,     ///< total vertices on the worker
  kLocMsg = 2,      ///< local messages sent
  kRemMsg = 3,      ///< remote messages sent
  kLocMsgSize = 4,  ///< local message bytes
  kRemMsgSize = 5,  ///< remote message bytes
  kAvgMsgSize = 6,  ///< average message size (not extrapolated)
};

inline constexpr int kNumFeatures = 7;

const char* FeatureName(Feature feature);

/// One row of Table-1 features.
using FeatureVector = std::array<double, kNumFeatures>;

/// Extracts the feature vector of one worker's counters.
FeatureVector FeaturesFromCounters(const bsp::WorkerCounters& counters);

/// Features and observed runtime of one iteration.
struct IterationProfile {
  int iteration = 0;
  /// Features of the critical-path worker (max outbound edges).
  FeatureVector critical_features{};
  /// Observed runtime of the superstep (simulated seconds).
  double runtime_seconds = 0.0;
};

/// Profile of one complete run of an algorithm on one dataset.
struct RunProfile {
  std::string algorithm;
  std::string dataset;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  /// Worker count of the cluster the run executed on (0 = unknown, for
  /// profiles recorded before the configuration was tracked).
  uint32_t num_workers = 0;
  std::vector<IterationProfile> iterations;

  int num_iterations() const { return static_cast<int>(iterations.size()); }
  double total_superstep_seconds() const;
};

/// Builds a RunProfile from engine output, selecting the static critical
/// worker's counters for each superstep.
RunProfile ProfileFromRunStats(const std::string& algorithm,
                               const std::string& dataset,
                               uint64_t num_vertices, uint64_t num_edges,
                               const bsp::RunStats& stats);

/// One (features -> runtime) training observation for the cost model.
struct TrainingRow {
  FeatureVector features{};
  double runtime_seconds = 0.0;
};

/// Flattens a profile into training rows (one per iteration).
std::vector<TrainingRow> TrainingRowsFromProfile(const RunProfile& profile);

}  // namespace predict

#endif  // PREDICT_CORE_FEATURES_H_
