#include "algorithms/pagerank.h"

#include <cmath>

namespace predict {

const AlgorithmSpec& PageRankSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "pagerank";
    s.convergence = ConvergenceKind::kAbsoluteAggregate;
    s.default_config = {{"damping", 0.85}, {"tau", 1e-8}};
    s.convergence_keys = {"tau"};
    return s;
  }();
  return spec;
}

PageRankProgram::PageRankProgram(const AlgorithmConfig& config) {
  damping_ = config.at("damping");
  tau_ = config.at("tau");
}

void PageRankProgram::RegisterAggregators(bsp::AggregatorRegistry* registry) {
  delta_agg_ = registry->Register(kDeltaAggregate, bsp::AggregatorOp::kSum);
}

PageRankValue PageRankProgram::InitialValue(VertexId v,
                                            const Graph& graph) const {
  (void)v;
  return {1.0 / static_cast<double>(graph.num_vertices())};
}

void PageRankProgram::Compute(bsp::VertexContext<PageRankValue, double>* ctx,
                              std::span<const double> messages) {
  double& rank = ctx->value().rank;
  if (ctx->superstep() > 0) {
    double sum = 0.0;
    for (const double m : messages) sum += m;
    // base_ = (1 - d) / |V|, computed once per superstep in MasterCompute
    // (the compute phases only read it) — the per-vertex divide is the
    // kernel's hottest scalar op and the `double` state writes alias the
    // `double` members under TBAA, so the compiler cannot hoist it.
    const double next = base_ + damping_ * sum;
    ctx->Aggregate(delta_agg_, std::abs(next - rank));
    rank = next;
  }
  const uint64_t out_degree = ctx->out_degree();
  if (out_degree > 0) {
    ctx->SendMessageToAllNeighbors(rank / static_cast<double>(out_degree));
  }
  // Vertices stay active; the master's convergence check stops the run.
}

void PageRankProgram::MasterCompute(bsp::MasterContext* ctx) {
  // Runs single-threaded between compute phases: superstep S+1's vertices
  // read what superstep S's master wrote, never concurrently. Superstep
  // 0's Compute skips the rank update, so a pre-run value is not needed.
  base_ = (1.0 - damping_) /
          static_cast<double>(ctx->num_vertices());
  if (ctx->superstep() == 0 || tau_ <= 0.0) return;
  const double avg_delta =
      ctx->GetAggregate(delta_agg_) / static_cast<double>(ctx->num_vertices());
  if (avg_delta < tau_) ctx->HaltComputation();
}

Result<PageRankResult> RunPageRank(const Graph& graph,
                                   const AlgorithmConfig& overrides,
                                   const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(PageRankSpec(), overrides));
  PageRankProgram program(config);
  bsp::Engine<PageRankValue, double> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(graph, &program));
  PageRankResult result;
  result.stats = std::move(stats);
  result.ranks.reserve(graph.num_vertices());
  for (const PageRankValue& v : engine.vertex_values()) {
    result.ranks.push_back(v.rank);
  }
  return result;
}

}  // namespace predict
