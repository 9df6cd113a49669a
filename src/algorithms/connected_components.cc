#include "algorithms/connected_components.h"

#include "graph/transforms.h"

namespace predict {

const AlgorithmSpec& ConnectedComponentsSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "connected_components";
    s.convergence = ConvergenceKind::kFixedPoint;
    s.default_config = {};
    s.convergence_keys = {};
    return s;
  }();
  return spec;
}

ComponentValue ConnectedComponentsProgram::InitialValue(
    VertexId v, const Graph& graph) const {
  (void)graph;
  return {v};
}

void ConnectedComponentsProgram::Compute(
    bsp::VertexContext<ComponentValue, VertexId>* ctx,
    std::span<const VertexId> messages) {
  VertexId& label = ctx->value().label;
  if (ctx->superstep() == 0) {
    // Seed the propagation with our own label.
    ctx->SendMessageToAllNeighbors(label);
    ctx->VoteToHalt();
    return;
  }
  VertexId best = label;
  for (const VertexId m : messages) best = std::min(best, m);
  if (best < label) {
    label = best;
    ctx->SendMessageToAllNeighbors(label);
  }
  ctx->VoteToHalt();
}

Result<ConnectedComponentsResult> RunConnectedComponents(
    const Graph& graph, const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(Graph undirected, ToUndirected(graph));
  ConnectedComponentsProgram program;
  bsp::Engine<ComponentValue, VertexId> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(undirected, &program));
  ConnectedComponentsResult result;
  result.stats = std::move(stats);
  result.labels.reserve(undirected.num_vertices());
  for (const ComponentValue& v : engine.vertex_values()) {
    result.labels.push_back(v.label);
  }
  return result;
}

}  // namespace predict
