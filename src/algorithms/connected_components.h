// Connected components by minimum-label propagation (HCC, as in
// PEGASUS).
//
// Each vertex starts labeled with its own id and repeatedly adopts the
// minimum label among its neighbors, forwarding improvements only.
// Runs on the undirected view of the graph, so the result is the weakly-
// connected components. Converges at a fixed point — the paper's example
// of "sparse computation" with up to 100x runtime variability between
// consecutive iterations (§1): the first supersteps touch every edge,
// the last ones only a trickle of label improvements.
//
// Config keys: none (fixed-point convergence, nothing to scale — the
// transform function is the identity).

#ifndef PREDICT_ALGORITHMS_CONNECTED_COMPONENTS_H_
#define PREDICT_ALGORITHMS_CONNECTED_COMPONENTS_H_

#include <algorithm>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& ConnectedComponentsSpec();

struct ComponentValue {
  VertexId label = 0;
};

/// Min-label propagation vertex program. Expects an undirected graph
/// (use ToUndirected first; the runner does this automatically).
class ConnectedComponentsProgram final
    : public bsp::VertexProgram<ComponentValue, VertexId> {
 public:
  ComponentValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<ComponentValue, VertexId>* ctx,
               std::span<const VertexId> messages) override;

  /// Compute only takes its inbox's minimum label.
  void Combine(VertexId& into, const VertexId& message) const {
    into = std::min(into, message);
  }

  /// 4-byte label + 4-byte header.
  uint64_t MessageBytes(const VertexId& message) const override {
    (void)message;
    return 8;
  }
  uint64_t VertexStateBytes(const ComponentValue& value) const override {
    (void)value;
    return 8;
  }
  uint64_t FixedVertexStateBytes() const override { return 8; }
};

/// Result of a standalone run: per-vertex component labels.
struct ConnectedComponentsResult {
  std::vector<VertexId> labels;
  bsp::RunStats stats;
};

/// Runs min-label propagation on the undirected view of `graph`.
Result<ConnectedComponentsResult> RunConnectedComponents(
    const Graph& graph, const bsp::EngineOptions& engine = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_CONNECTED_COMPONENTS_H_
