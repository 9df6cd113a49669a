// Type-erased algorithm execution.
//
// PREDIcT's predictor is algorithm-agnostic: it looks an algorithm up by
// name, resolves its spec (for the transform rules), runs it on a graph
// (sample or complete), and consumes only the RunStats. This registry is
// also the extension point for user-defined algorithms (§3.2.2: "users
// can plug in their own set of transformations" — and, here, their own
// algorithms).

#ifndef PREDICT_ALGORITHMS_RUNNER_H_
#define PREDICT_ALGORITHMS_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"
#include "common/result.h"
#include "graph/graph.h"

namespace predict {

/// Inputs of a type-erased run.
struct RunOptions {
  /// Execution configuration, including the vertex partitioning
  /// strategy and cost profile. To target a named deployment, fill it
  /// from a cluster scenario: `options.engine =
  /// scenario.ToEngineOptions()` (bsp/scenario.h).
  bsp::EngineOptions engine;
  /// Overrides applied on top of the algorithm's default config.
  AlgorithmConfig config_overrides;
};

/// Output of a type-erased run: its profile. Algorithm outputs (ranks,
/// labels, clusters) come from the typed entry points, e.g. RunPageRank.
struct AlgorithmRunResult {
  bsp::RunStats stats;
};

/// Signature of a registered algorithm entry point.
///
/// Concurrency contract: a runner must be safe to invoke from multiple
/// threads at once on the same const Graph (the PredictionService fans
/// batched predictions out across a thread pool, sharing graphs and
/// registry entries). Runners must treat the graph as read-only and keep
/// all run state local; every builtin obeys this.
using AlgorithmRunner = std::function<Result<AlgorithmRunResult>(
    const Graph& graph, const RunOptions& options)>;

/// Looks up an algorithm spec by name; NotFound if unregistered.
Result<AlgorithmSpec> FindAlgorithmSpec(const std::string& name);

/// Runs a registered algorithm by name.
Result<AlgorithmRunResult> RunAlgorithmByName(const std::string& name,
                                              const Graph& graph,
                                              const RunOptions& options);

/// Names of all registered algorithms, sorted.
std::vector<std::string> RegisteredAlgorithmNames();

/// Registers a user-defined algorithm. Fails if the name is taken.
Status RegisterAlgorithm(const AlgorithmSpec& spec, AlgorithmRunner runner);

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_RUNNER_H_
