// Neighborhood estimation with Flajolet–Martin sketches (HADI-style, as
// in PEGASUS — reference [20] of the paper).
//
// Estimates, for every vertex, the number of vertices reachable within h
// hops by iterating a bitwise-OR of FM sketches over the undirected
// neighborhood. A vertex whose sketch did not change sends nothing, so
// message counts decay as neighborhoods saturate (variable per-iteration
// runtime, like connected components).
//
// Convergence: changedVertices/totalVertices < tau (a relative ratio;
// identity transform rule).
//
// Config keys:
//   "tau"  changed-ratio threshold, default 0.001

#ifndef PREDICT_ALGORITHMS_NEIGHBORHOOD_H_
#define PREDICT_ALGORITHMS_NEIGHBORHOOD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& NeighborhoodSpec();

/// Number of FM registers per sketch (more = tighter estimates, bigger
/// messages; 16 keeps the relative error around 10%).
inline constexpr size_t kNeighborhoodRegisters = 16;

/// Per-vertex FM sketch: one 32-bit bitmask per register.
struct NeighborhoodValue {
  std::array<uint32_t, kNeighborhoodRegisters> sketch{};
};

using NeighborhoodMessage = NeighborhoodValue;

class NeighborhoodProgram final
    : public bsp::VertexProgram<NeighborhoodValue, NeighborhoodMessage> {
 public:
  explicit NeighborhoodProgram(const AlgorithmConfig& config,
                               uint64_t sketch_seed = 0xFACEFEEDULL);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  NeighborhoodValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<NeighborhoodValue, NeighborhoodMessage>* ctx,
               std::span<const NeighborhoodMessage> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  /// Compute ORs its inbox into the sketch register by register, and a
  /// register changes iff the inbox's OR has a bit it lacks.
  void Combine(NeighborhoodMessage& into,
               const NeighborhoodMessage& message) const {
    for (size_t r = 0; r < kNeighborhoodRegisters; ++r) {
      into.sketch[r] |= message.sketch[r];
    }
  }

  /// 8-byte header + 4 bytes per register.
  uint64_t MessageBytes(const NeighborhoodMessage& message) const override {
    (void)message;
    return 8 + 4 * kNeighborhoodRegisters;
  }
  uint64_t VertexStateBytes(const NeighborhoodValue& value) const override {
    (void)value;
    return 8 + 4 * kNeighborhoodRegisters;
  }
  uint64_t FixedVertexStateBytes() const override {
    return 8 + 4 * kNeighborhoodRegisters;
  }

  static constexpr const char* kChangedAggregate = "neighborhood_changed";

 private:
  double tau_;
  uint64_t sketch_seed_;
  bsp::AggregatorId changed_agg_ = 0;
};

/// Flajolet–Martin cardinality estimate from a sketch.
double EstimateCardinality(const NeighborhoodValue& value);

/// Result of a standalone run.
struct NeighborhoodResult {
  /// Estimated size of each vertex's reachable neighborhood at the final
  /// hop count.
  std::vector<double> neighborhood_sizes;
  bsp::RunStats stats;
};

/// Runs neighborhood estimation on the undirected view of `graph`.
Result<NeighborhoodResult> RunNeighborhoodEstimation(
    const Graph& graph, const AlgorithmConfig& overrides = {},
    const bsp::EngineOptions& engine = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_NEIGHBORHOOD_H_
