// Random walk with restart (RWR) proximity estimation.
//
// §5.3 of the paper names "random walks with restart [20] (proximity
// estimation)" as a further algorithm expected to benefit from PREDIcT's
// walk-based sampling. RWR computes, for a source vertex s, the
// stationary distribution of a walker that follows out-edges with
// probability c and teleports back to s with probability 1-c —
// personalized PageRank, the standard graph-proximity measure.
//
// Convergence mirrors PageRank: average delta change per vertex below
// tau (an absolute aggregate tuned to dataset size, so the default
// transform rule tau_S = tau_G / sr applies). The source is chosen as
// the highest-out-degree vertex when "source" < 0, which makes sample
// runs self-consistent: the sample picks its own hub, mirroring how BRJ
// anchors samples at hub vertices.
//
// Config keys:
//   "restart"  walk-continue probability c, default 0.85
//   "tau"      average-delta threshold (<= 0: run to max_supersteps)
//   "source"   source vertex id; < 0 selects the max-out-degree vertex

#ifndef PREDICT_ALGORITHMS_RWR_PROXIMITY_H_
#define PREDICT_ALGORITHMS_RWR_PROXIMITY_H_

#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& RwrProximitySpec();

struct RwrValue {
  double score = 0.0;
};

class RwrProximityProgram final
    : public bsp::VertexProgram<RwrValue, double> {
 public:
  RwrProximityProgram(const AlgorithmConfig& config, VertexId source);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  RwrValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<RwrValue, double>* ctx,
               std::span<const double> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  /// Compute only sums its inbox, so the engine may pre-sum it.
  void Combine(double& into, const double& message) const { into += message; }

  uint64_t MessageBytes(const double&) const override { return 12; }
  uint64_t VertexStateBytes(const RwrValue&) const override { return 16; }
  uint64_t FixedVertexStateBytes() const override { return 16; }

  static constexpr const char* kDeltaAggregate = "rwr_delta_sum";

 private:
  double restart_;
  double tau_;
  VertexId source_;
  bsp::AggregatorId delta_agg_ = 0;
};

/// Picks the source vertex for a config: explicit id, or the
/// max-out-degree vertex when "source" < 0.
VertexId ResolveRwrSource(const AlgorithmConfig& config, const Graph& graph);

struct RwrResult {
  std::vector<double> scores;  ///< proximity of every vertex to the source
  VertexId source = 0;
  bsp::RunStats stats;
};

Result<RwrResult> RunRwrProximity(const Graph& graph,
                                  const AlgorithmConfig& overrides = {},
                                  const bsp::EngineOptions& engine = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_RWR_PROXIMITY_H_
