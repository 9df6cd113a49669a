// Parallel semi-clustering (§4.2 of the paper, after Malewicz et al.,
// Pregel §4.2 "Semi-Clustering").
//
// A semi-cluster c is scored  S_c = (I_c - f_B * B_c) / (V_c (V_c-1)/2),
// where I_c is the weight of internal edges, B_c the weight of boundary
// edges, f_B the boundary penalty and V_c the member count. Each vertex
// keeps its C_max best clusters containing itself and forwards its S_max
// best known clusters to all neighbors every superstep, so message
// *sizes* grow as clusters fill toward V_max — the paper's category
// ii.a (variable runtime via message size).
//
// Convergence: updatedClusters/totalClusters < tau (a relative ratio;
// the identity transform rule applies).
//
// Config keys:
//   "f_b"    boundary edge factor, default 0.1
//   "v_max"  max vertices per cluster, default 10
//   "c_max"  clusters kept per vertex, default 1
//   "s_max"  clusters forwarded per vertex, default 1
//   "tau"    update-ratio threshold, default 0.001

#ifndef PREDICT_ALGORITHMS_SEMICLUSTERING_H_
#define PREDICT_ALGORITHMS_SEMICLUSTERING_H_

#include <memory>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& SemiClusteringSpec();

/// One semi-cluster: sorted member list plus incremental score state.
struct SemiCluster {
  std::vector<VertexId> members;  ///< sorted ascending
  double internal_weight = 0.0;   ///< I_c
  double boundary_weight = 0.0;   ///< B_c

  bool ContainsVertex(VertexId v) const;
  double Score(double boundary_factor) const;
};

/// Per-vertex state: up to c_max best clusters containing this vertex.
struct SemiClusterValue {
  std::vector<SemiCluster> clusters;
};

/// Message: the sender's s_max best known clusters. Payload shared
/// across the per-neighbor copies; MessageBytes reports the serialized
/// size of each copy.
struct SemiClusterMessage {
  std::shared_ptr<const std::vector<SemiCluster>> clusters;
};

class SemiClusteringProgram final
    : public bsp::VertexProgram<SemiClusterValue, SemiClusterMessage> {
 public:
  explicit SemiClusteringProgram(const AlgorithmConfig& config);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  SemiClusterValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<SemiClusterValue, SemiClusterMessage>* ctx,
               std::span<const SemiClusterMessage> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  uint64_t MessageBytes(const SemiClusterMessage& message) const override;
  uint64_t VertexStateBytes(const SemiClusterValue& value) const override;

  static constexpr const char* kUpdatedAggregate = "semicluster_updated";
  static constexpr const char* kTotalAggregate = "semicluster_total";

 private:
  double boundary_factor_;
  size_t v_max_;
  size_t c_max_;
  size_t s_max_;
  double tau_;
  bsp::AggregatorId updated_agg_ = 0;
  bsp::AggregatorId total_agg_ = 0;
};

/// Result of a standalone semi-clustering run.
struct SemiClusteringResult {
  std::vector<SemiClusterValue> clusters;
  bsp::RunStats stats;
};

/// Runs semi-clustering on the undirected view of `graph`.
Result<SemiClusteringResult> RunSemiClustering(
    const Graph& graph, const AlgorithmConfig& overrides = {},
    const bsp::EngineOptions& engine = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_SEMICLUSTERING_H_
