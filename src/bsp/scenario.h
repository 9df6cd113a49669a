// Named cluster deployments ("what-if scenarios").
//
// PREDIcT's §5 evaluates prediction quality across cluster
// configurations, and its cost model is re-trained per cluster. A
// ClusterScenario bundles everything that defines one deployment for the
// simulator — worker count, the generative cost factors (network tier,
// barrier overhead), per-worker speed multipliers for heterogeneous /
// straggler clusters, the memory budget, and the vertex partitioning
// strategy — so the prediction stack can answer "how would this job run
// over there?" for deployments it has never executed on.
//
// Scenarios flow end to end: ToEngineOptions() configures a run,
// pipeline::ProfileStage stamps its artifact with the scenario's
// canonical key, PredictionService keys its profile cache on it (a
// profile measured under one scenario never answers for another),
// pipeline::FitStage merges history only into a fit whose profile
// carries the configured deployment's key, and
// PredictionService::PredictScenarios sweeps one (algorithm, dataset)
// over many scenarios while reusing the sampled subgraph.

#ifndef PREDICT_BSP_SCENARIO_H_
#define PREDICT_BSP_SCENARIO_H_

#include <string>
#include <vector>

#include "bsp/engine.h"
#include "common/result.h"

namespace predict::bsp {

/// One named cluster deployment the simulator can model.
struct ClusterScenario {
  /// Registry key, e.g. "giraph-29". Purely descriptive: cache identity
  /// comes from ScenarioKey(), never from the name.
  std::string name;
  std::string description;

  uint32_t num_workers = 29;
  int max_supersteps = 500;
  /// Total simulated cluster memory; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  PartitionStrategy partition = PartitionStrategy::kHashModulo;
  /// Cost factors, including the network tier (local/remote costs),
  /// barrier overhead and per-worker speed multipliers.
  CostProfile cost_profile;

  /// Engine configuration for a run on this scenario. `num_threads` is
  /// host-side only (it never affects simulated output) and so is not
  /// part of the scenario.
  EngineOptions ToEngineOptions(int num_threads = -1) const;
};

/// The built-in scenario registry:
///   giraph-29        the paper's cluster (30 tasks = 29 workers + master)
///   giraph-10        a 10-worker slice of the same hardware
///   hetero-straggler giraph-29 with slow workers (runtime-variation case)
///   fast-network-64  64 workers on a 10x network fabric
///   edge-balanced-29 giraph-29 with greedy edge-balanced partitioning
const std::vector<ClusterScenario>& BuiltinScenarios();

/// Names of the built-in scenarios, in registry order.
std::vector<std::string> BuiltinScenarioNames();

/// Looks a built-in scenario up by name; NotFound with the known names
/// otherwise.
Result<ClusterScenario> FindScenario(const std::string& name);

/// Canonical cache-key string over every simulation-relevant field of an
/// EngineOptions (worker count, supersteps cap, memory budget, partition
/// strategy and the full cost profile — num_threads excluded). Two
/// engine configurations with equal keys produce bit-identical runs, so
/// artifact caches keyed on this can never serve one scenario's profile
/// to another.
std::string EngineOptionsKey(const EngineOptions& options);

/// EngineOptionsKey of the scenario's engine configuration.
std::string ScenarioKey(const ClusterScenario& scenario);

}  // namespace predict::bsp

#endif  // PREDICT_BSP_SCENARIO_H_
