#include "core/features.h"

namespace predict {

const char* FeatureName(Feature feature) {
  switch (feature) {
    case Feature::kActVert:
      return "ActVert";
    case Feature::kTotVert:
      return "TotVert";
    case Feature::kLocMsg:
      return "LocMsg";
    case Feature::kRemMsg:
      return "RemMsg";
    case Feature::kLocMsgSize:
      return "LocMsgSize";
    case Feature::kRemMsgSize:
      return "RemMsgSize";
    case Feature::kAvgMsgSize:
      return "AvgMsgSize";
  }
  return "unknown";
}

FeatureVector FeaturesFromCounters(const bsp::WorkerCounters& counters) {
  FeatureVector features{};
  features[static_cast<int>(Feature::kActVert)] =
      static_cast<double>(counters.active_vertices);
  features[static_cast<int>(Feature::kTotVert)] =
      static_cast<double>(counters.total_vertices);
  features[static_cast<int>(Feature::kLocMsg)] =
      static_cast<double>(counters.local_messages);
  features[static_cast<int>(Feature::kRemMsg)] =
      static_cast<double>(counters.remote_messages);
  features[static_cast<int>(Feature::kLocMsgSize)] =
      static_cast<double>(counters.local_message_bytes);
  features[static_cast<int>(Feature::kRemMsgSize)] =
      static_cast<double>(counters.remote_message_bytes);
  features[static_cast<int>(Feature::kAvgMsgSize)] =
      counters.average_message_size();
  return features;
}

double RunProfile::total_superstep_seconds() const {
  double total = 0.0;
  for (const IterationProfile& it : iterations) total += it.runtime_seconds;
  return total;
}

RunProfile ProfileFromRunStats(const std::string& algorithm,
                               const std::string& dataset,
                               uint64_t num_vertices, uint64_t num_edges,
                               const bsp::RunStats& stats) {
  RunProfile profile;
  profile.algorithm = algorithm;
  profile.dataset = dataset;
  profile.num_vertices = num_vertices;
  profile.num_edges = num_edges;
  if (!stats.supersteps.empty()) {
    profile.num_workers =
        static_cast<uint32_t>(stats.supersteps.front().per_worker.size());
  }
  profile.iterations.reserve(stats.supersteps.size());
  const bsp::WorkerId critical = stats.static_critical_worker;
  for (const bsp::SuperstepStats& step : stats.supersteps) {
    IterationProfile iteration;
    iteration.iteration = step.superstep;
    iteration.critical_features =
        FeaturesFromCounters(step.per_worker[critical]);
    iteration.runtime_seconds = step.simulated_seconds;
    profile.iterations.push_back(iteration);
  }
  return profile;
}

std::vector<TrainingRow> TrainingRowsFromProfile(const RunProfile& profile) {
  std::vector<TrainingRow> rows;
  rows.reserve(profile.iterations.size());
  for (const IterationProfile& it : profile.iterations) {
    rows.push_back({it.critical_features, it.runtime_seconds});
  }
  return rows;
}

}  // namespace predict
