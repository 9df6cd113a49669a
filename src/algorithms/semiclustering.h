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
// Compute allocates nothing in steady state beyond one message block per
// send: it binary-searches its adjacency row in place, ranks candidates
// in per-worker scratch that lives as long as the program, and rewrites
// its own clusters in place. It cannot combine its messages, because the
// receiver extends each received cluster by itself.
//
// Config keys:
//   "f_b"    boundary edge factor, default 0.1
//   "v_max"  max vertices per cluster, default 10
//   "c_max"  clusters kept per vertex, default 1
//   "s_max"  clusters forwarded per vertex, default 1
//   "tau"    update-ratio threshold, default 0.001

#ifndef PREDICT_ALGORITHMS_SEMICLUSTERING_H_
#define PREDICT_ALGORITHMS_SEMICLUSTERING_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
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

/// Message: the sender's s_max best known clusters, serialized into one
/// immutable block of 32-bit words that every per-neighbor copy shares,
/// so a send allocates once whatever s_max is. The block holds the
/// cluster count, then per cluster its member count, the bit patterns of
/// its two weights and its members. MessageBytes reports the serialized
/// size of each copy.
class SemiClusterMessage {
 public:
  /// One cluster, read in place from the block.
  struct View {
    std::span<const VertexId> members;  ///< sorted ascending
    double internal_weight;
    double boundary_weight;
  };

  SemiClusterMessage() = default;

  /// Serializes `clusters`: any range of elements with `members`,
  /// `internal_weight` and `boundary_weight` (a SemiCluster qualifies).
  template <typename Clusters>
  static SemiClusterMessage Pack(const Clusters& clusters) {
    uint32_t count = 0;
    size_t words = 1;
    for (const auto& cluster : clusters) {
      ++count;
      words += kClusterHeaderWords + cluster.members.size();
    }
    auto block = std::make_shared_for_overwrite<VertexId[]>(words);
    VertexId* out = block.get();
    *out++ = count;
    for (const auto& cluster : clusters) {
      *out++ = static_cast<VertexId>(cluster.members.size());
      out = PutDouble(out, cluster.internal_weight);
      out = PutDouble(out, cluster.boundary_weight);
      out = std::copy(cluster.members.begin(), cluster.members.end(), out);
    }
    SemiClusterMessage message;
    message.block_ = std::move(block);
    return message;
  }

  /// Calls fn(View) for each cluster, in packing order.
  template <typename Fn>
  void ForEachCluster(Fn&& fn) const {
    const VertexId* in = block_.get();
    const uint32_t count = *in++;
    for (uint32_t c = 0; c < count; ++c) {
      const uint32_t size = in[0];
      fn(View{{in + kClusterHeaderWords, size}, GetDouble(in + 1),
              GetDouble(in + 3)});
      in += kClusterHeaderWords + size;
    }
  }

 private:
  using Words = std::array<VertexId, 2>;
  static constexpr size_t kClusterHeaderWords = 5;  // size + two doubles

  static VertexId* PutDouble(VertexId* out, double value) {
    const Words words = std::bit_cast<Words>(value);
    return std::copy(words.begin(), words.end(), out);
  }
  static double GetDouble(const VertexId* in) {
    return std::bit_cast<double>(Words{in[0], in[1]});
  }

  std::shared_ptr<const VertexId[]> block_;
};

/// Semi-clustering over an undirected graph whose every adjacency row is
/// sorted ascending without duplicates, which is what ToUndirected
/// returns (graph/transforms.h) and what RunSemiClustering runs on:
/// Compute finds a cluster member's edge by binary search in the row.
class SemiClusteringProgram final
    : public bsp::VertexProgram<SemiClusterValue, SemiClusterMessage> {
 public:
  /// `num_workers` is the engine's: Compute keeps scratch per worker.
  SemiClusteringProgram(const AlgorithmConfig& config, uint32_t num_workers);
  ~SemiClusteringProgram() override;

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
  struct WorkerScratch;  // semiclustering.cc

  double boundary_factor_;
  size_t v_max_;
  size_t c_max_;
  size_t s_max_;
  double tau_;
  bsp::AggregatorId updated_agg_ = 0;
  bsp::AggregatorId total_agg_ = 0;
  /// Indexed by VertexContext::worker(); each worker computes on one
  /// host thread at a time, so no entry is shared.
  std::vector<WorkerScratch> scratch_;
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
