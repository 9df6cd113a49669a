// PageRank on BSP (§4.1 of the paper).
//
// PR(p_i) = (1-d)/N + d * sum_{p_j in M(p_i)} PR(p_j)/L(p_j)
//
// Convergence: the run halts when the average delta change of PageRank
// per vertex drops below tau (an *absolute aggregate*, tuned to dataset
// size — the paper's canonical case for the tau_S = tau_G / sr transform
// rule). Dangling vertices simply stop propagating mass, as in Giraph's
// reference implementation.
//
// Config keys:
//   "damping"  d, default 0.85
//   "tau"      convergence threshold on the average delta; <= 0 means
//              "never converge via the master" (run to max_supersteps,
//              used to produce fixed-iteration rank inputs for top-k)

#ifndef PREDICT_ALGORITHMS_PAGERANK_H_
#define PREDICT_ALGORITHMS_PAGERANK_H_

#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

/// The spec consumed by the transform rules (kAbsoluteAggregate).
const AlgorithmSpec& PageRankSpec();

/// Per-vertex state: the current rank.
struct PageRankValue {
  double rank = 0.0;
};

/// \brief The Giraph-style PageRank vertex program.
class PageRankProgram final
    : public bsp::VertexProgram<PageRankValue, double> {
 public:
  explicit PageRankProgram(const AlgorithmConfig& config);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  PageRankValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<PageRankValue, double>* ctx,
               std::span<const double> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  /// Compute only sums its inbox, so the engine may pre-sum it.
  void Combine(double& into, const double& message) const { into += message; }

  /// 8-byte rank + 4-byte vertex id header on the wire.
  uint64_t MessageBytes(const double& message) const override {
    (void)message;
    return 12;
  }
  uint64_t VertexStateBytes(const PageRankValue& value) const override {
    (void)value;
    return 16;
  }
  uint64_t FixedVertexStateBytes() const override { return 16; }

  /// Name of the average-delta aggregate (exposed in SuperstepStats).
  static constexpr const char* kDeltaAggregate = "pagerank_delta_sum";

 private:
  double damping_;
  double tau_;
  /// (1 - damping) / |V|, refreshed by MasterCompute each superstep so
  /// the per-vertex kernel avoids the divide (see Compute).
  double base_ = 0.0;
  bsp::AggregatorId delta_agg_ = 0;
};

/// Result of a standalone PageRank run.
struct PageRankResult {
  std::vector<double> ranks;
  bsp::RunStats stats;
};

/// Convenience: runs PageRank over `graph` and returns ranks + profile.
Result<PageRankResult> RunPageRank(const Graph& graph,
                                   const AlgorithmConfig& overrides = {},
                                   const bsp::EngineOptions& engine = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_PAGERANK_H_
