// Extending PREDIcT with a user-defined algorithm (§3.2.2: "users can
// plug in their own set of transformations based on domain knowledge").
//
// We implement single-source BFS distances as a new VertexProgram,
// register it with the algorithm registry (declaring fixed-point
// convergence, so the default transform rule is the identity), and run
// the unmodified Predictor on it. Nothing in core/ knows about BFS —
// the registry + spec machinery carries all the information PREDIcT
// needs.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "algorithms/runner.h"
#include "bsp/engine.h"
#include "core/predictor.h"
#include "graph/generators.h"

namespace {

using namespace predict;

constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

// Per-vertex state: hop distance from the source (kUnreached if not yet
// reached). Message: the sender's distance + 1.
class BfsProgram : public bsp::VertexProgram<uint32_t, uint32_t> {
 public:
  explicit BfsProgram(VertexId source) : source_(source) {}

  uint32_t InitialValue(VertexId v, const Graph&) const override {
    return v == source_ ? 0 : kUnreached;
  }

  void Compute(bsp::VertexContext<uint32_t, uint32_t>* ctx,
               std::span<const uint32_t> messages) override {
    uint32_t& distance = ctx->value();
    bool improved = ctx->superstep() == 0 && ctx->id() == source_;
    for (const uint32_t m : messages) {
      if (m < distance) {
        distance = m;
        improved = true;
      }
    }
    if (improved && distance != kUnreached) {
      ctx->SendMessageToAllNeighbors(distance + 1);
    }
    ctx->VoteToHalt();
  }

  // Compute only keeps its inbox's minimum, so the engine may fold each
  // inbox down to it at the barrier (a Pregel combiner). The engine
  // finds this hook on the concrete type; the counters still charge
  // every message at send time, so predictions do not change.
  void Combine(uint32_t& into, const uint32_t& message) const {
    into = std::min(into, message);
  }

  uint64_t MessageBytes(const uint32_t&) const override { return 8; }
  uint64_t VertexStateBytes(const uint32_t&) const override { return 8; }

 private:
  VertexId source_;
};

Status RegisterBfs() {
  AlgorithmSpec spec;
  spec.name = "bfs_distances";
  spec.convergence = ConvergenceKind::kFixedPoint;  // identity transform
  spec.default_config = {{"source", 0.0}};
  spec.convergence_keys = {};
  return RegisterAlgorithm(
      spec,
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            AlgorithmConfig config,
            ResolveConfig(FindAlgorithmSpec("bfs_distances").value(),
                          options.config_overrides));
        VertexId source = static_cast<VertexId>(config.at("source"));
        if (source >= graph.num_vertices()) source = 0;  // sampled graphs
        BfsProgram program(source);
        bsp::Engine<uint32_t, uint32_t> engine(options.engine);
        PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats,
                                 engine.Run(graph, &program));
        AlgorithmRunResult result;
        result.stats = std::move(stats);
        return result;
      });
}

}  // namespace

int main() {
  const Status registered = RegisterBfs();
  if (!registered.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }
  std::printf("registered algorithms:");
  for (const auto& name : RegisteredAlgorithmNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  auto graph = GeneratePreferentialAttachment({40000, 7, 0.4, 21});
  if (!graph.ok()) {
    std::fprintf(stderr, "graph generation failed\n");
    return 1;
  }

  // Predict, then verify against the actual run — all through the same
  // generic machinery the built-ins use.
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.10;
  options.sampler.seed = 3;
  options.engine.num_workers = 16;
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("bfs_distances", *graph, "pa-graph",
                                         {{"source", 0.0}});
  if (!report.ok()) {
    std::fprintf(stderr, "prediction failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  RunOptions run_options;
  run_options.engine = options.engine;
  run_options.config_overrides = {{"source", 0.0}};
  auto actual = RunAlgorithmByName("bfs_distances", *graph, run_options);
  if (!actual.ok()) {
    std::fprintf(stderr, "actual run failed: %s\n",
                 actual.status().ToString().c_str());
    return 1;
  }

  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  std::printf("custom algorithm 'bfs_distances' (%s transform):\n",
              report->transform_description.c_str());
  std::printf("  predicted iterations %d, actual %d (error %+.0f%%)\n",
              report->predicted_iterations, eval.actual_iterations,
              100.0 * eval.iterations_error);
  std::printf("  predicted runtime %.1f s, actual %.1f s (error %+.0f%%)\n",
              report->predicted_superstep_seconds,
              eval.actual_superstep_seconds, 100.0 * eval.runtime_error);
  std::printf("  cost model: %s\n", report->cost_model.ToString().c_str());
  return 0;
}
