#include "algorithms/rwr_proximity.h"

#include <cmath>

namespace predict {

const AlgorithmSpec& RwrProximitySpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "rwr_proximity";
    s.convergence = ConvergenceKind::kAbsoluteAggregate;
    s.default_config = {{"restart", 0.85}, {"tau", 1e-8}, {"source", -1.0}};
    s.convergence_keys = {"tau"};
    return s;
  }();
  return spec;
}

RwrProximityProgram::RwrProximityProgram(const AlgorithmConfig& config,
                                         VertexId source)
    : source_(source) {
  restart_ = config.at("restart");
  tau_ = config.at("tau");
}

void RwrProximityProgram::RegisterAggregators(
    bsp::AggregatorRegistry* registry) {
  delta_agg_ = registry->Register(kDeltaAggregate, bsp::AggregatorOp::kSum);
}

RwrValue RwrProximityProgram::InitialValue(VertexId v,
                                           const Graph& graph) const {
  (void)graph;
  return {v == source_ ? 1.0 : 0.0};
}

void RwrProximityProgram::Compute(bsp::VertexContext<RwrValue, double>* ctx,
                                  std::span<const double> messages) {
  double& score = ctx->value().score;
  if (ctx->superstep() > 0) {
    double incoming = 0.0;
    for (const double m : messages) incoming += m;
    const double next =
        (ctx->id() == source_ ? 1.0 - restart_ : 0.0) + restart_ * incoming;
    ctx->Aggregate(delta_agg_, std::abs(next - score));
    score = next;
  }
  const uint64_t out_degree = ctx->out_degree();
  if (out_degree > 0 && score > 0.0) {
    ctx->SendMessageToAllNeighbors(score / static_cast<double>(out_degree));
  }
  // The master's convergence check stops the run; a vertex with zero
  // score simply sends nothing (sparse computation near the fringe).
}

void RwrProximityProgram::MasterCompute(bsp::MasterContext* ctx) {
  if (ctx->superstep() == 0 || tau_ <= 0.0) return;
  const double avg_delta =
      ctx->GetAggregate(delta_agg_) / static_cast<double>(ctx->num_vertices());
  if (avg_delta < tau_) ctx->HaltComputation();
}

VertexId ResolveRwrSource(const AlgorithmConfig& config, const Graph& graph) {
  const double configured = config.at("source");
  if (configured >= 0.0 &&
      static_cast<uint64_t>(configured) < graph.num_vertices()) {
    return static_cast<VertexId>(configured);
  }
  VertexId best = 0;
  uint64_t best_degree = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.out_degree(v) > best_degree) {
      best_degree = graph.out_degree(v);
      best = v;
    }
  }
  return best;
}

Result<RwrResult> RunRwrProximity(const Graph& graph,
                                  const AlgorithmConfig& overrides,
                                  const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(RwrProximitySpec(), overrides));
  const VertexId source = ResolveRwrSource(config, graph);
  RwrProximityProgram program(config, source);
  bsp::Engine<RwrValue, double> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(graph, &program));
  RwrResult result;
  result.source = source;
  result.stats = std::move(stats);
  result.scores.reserve(graph.num_vertices());
  for (const RwrValue& v : engine.vertex_values()) {
    result.scores.push_back(v.score);
  }
  return result;
}

}  // namespace predict
