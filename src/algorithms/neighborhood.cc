#include "algorithms/neighborhood.h"

#include <cmath>

#include "common/rng.h"
#include "graph/transforms.h"

namespace predict {

const AlgorithmSpec& NeighborhoodSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "neighborhood";
    s.convergence = ConvergenceKind::kRelativeRatio;
    s.default_config = {{"tau", 0.001}};
    s.convergence_keys = {"tau"};
    return s;
  }();
  return spec;
}

NeighborhoodProgram::NeighborhoodProgram(const AlgorithmConfig& config,
                                         uint64_t sketch_seed)
    : sketch_seed_(sketch_seed) {
  tau_ = config.at("tau");
}

void NeighborhoodProgram::RegisterAggregators(
    bsp::AggregatorRegistry* registry) {
  changed_agg_ = registry->Register(kChangedAggregate, bsp::AggregatorOp::kSum);
}

NeighborhoodValue NeighborhoodProgram::InitialValue(VertexId v,
                                                    const Graph& graph) const {
  (void)graph;
  NeighborhoodValue value;
  for (size_t r = 0; r < kNeighborhoodRegisters; ++r) {
    // Geometric bit position: P(bit j) = 2^-(j+1).
    const double u = Rng::HashToUnitDouble(sketch_seed_, v + 1, r + 1);
    const double safe = u <= 0.0 ? 0x1.0p-32 : u;
    uint32_t bit = static_cast<uint32_t>(-std::log2(safe));
    if (bit > 31) bit = 31;
    value.sketch[r] = 1u << bit;
  }
  return value;
}

void NeighborhoodProgram::Compute(
    bsp::VertexContext<NeighborhoodValue, NeighborhoodMessage>* ctx,
    std::span<const NeighborhoodMessage> messages) {
  NeighborhoodValue& value = ctx->value();
  bool changed = false;
  if (ctx->superstep() == 0) {
    changed = true;  // seed round: everyone announces their sketch
  } else {
    for (const NeighborhoodMessage& msg : messages) {
      for (size_t r = 0; r < kNeighborhoodRegisters; ++r) {
        const uint32_t merged = value.sketch[r] | msg.sketch[r];
        changed |= merged != value.sketch[r];
        value.sketch[r] = merged;
      }
    }
  }
  if (changed) {
    ctx->Aggregate(changed_agg_, 1.0);
    if (ctx->out_degree() > 0) {
      ctx->SendMessageToAllNeighbors(value);
    }
  }
  ctx->VoteToHalt();
}

void NeighborhoodProgram::MasterCompute(bsp::MasterContext* ctx) {
  if (ctx->superstep() == 0) return;
  const double changed_ratio = ctx->GetAggregate(changed_agg_) /
                               static_cast<double>(ctx->num_vertices());
  if (changed_ratio < tau_) ctx->HaltComputation();
}

double EstimateCardinality(const NeighborhoodValue& value) {
  // Average position of the lowest zero bit across registers.
  double sum = 0.0;
  for (size_t r = 0; r < kNeighborhoodRegisters; ++r) {
    uint32_t mask = value.sketch[r];
    uint32_t lowest_zero = 0;
    while ((mask & 1u) != 0) {
      mask >>= 1;
      ++lowest_zero;
    }
    sum += static_cast<double>(lowest_zero);
  }
  const double mean = sum / static_cast<double>(kNeighborhoodRegisters);
  return std::pow(2.0, mean) / 0.77351;
}

Result<NeighborhoodResult> RunNeighborhoodEstimation(
    const Graph& graph, const AlgorithmConfig& overrides,
    const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(NeighborhoodSpec(), overrides));
  PREDICT_ASSIGN_OR_RETURN(Graph undirected, ToUndirected(graph));
  NeighborhoodProgram program(config);
  bsp::Engine<NeighborhoodValue, NeighborhoodMessage> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(undirected, &program));
  NeighborhoodResult result;
  result.stats = std::move(stats);
  result.neighborhood_sizes.reserve(undirected.num_vertices());
  for (const NeighborhoodValue& v : engine.vertex_values()) {
    result.neighborhood_sizes.push_back(EstimateCardinality(v));
  }
  return result;
}

}  // namespace predict
