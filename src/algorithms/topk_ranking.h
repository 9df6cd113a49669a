// Top-k ranking for PageRank (§4.3 of the paper, after Khayyat et al.).
//
// Each vertex maintains the k highest PageRank values among the vertices
// that can reach it (including itself), together with their origins. In
// the first superstep every vertex sends its own rank to its out-
// neighbors; afterwards, a vertex that improved its list forwards the
// updated list, and a vertex with no update sends nothing — so both the
// number of messages and the bytes per message vary across supersteps
// (the paper's category ii.b: variable runtime via message *count*).
//
// Convergence: activeVertices/totalVertices < tau (a *relative ratio* —
// the identity transform rule applies, §4.3).
//
// Config keys:
//   "k"    list capacity, default 10; must lie in [1, kMaxTopK] (16),
//          anything else is InvalidArgument, never clamped
//   "tau"  active-ratio threshold, default 0.001
//   "rank_iterations"  supersteps of the internal fixed-iteration
//          PageRank used to produce input ranks when none are supplied

#ifndef PREDICT_ALGORITHMS_TOPK_RANKING_H_
#define PREDICT_ALGORITHMS_TOPK_RANKING_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "bsp/engine.h"

namespace predict {

const AlgorithmSpec& TopKRankingSpec();

/// One (rank, origin) entry of a top-k list.
struct RankEntry {
  double rank = 0.0;
  VertexId origin = 0;

  bool operator==(const RankEntry& other) const {
    return rank == other.rank && origin == other.origin;
  }
};

/// Per-vertex state: a descending-sorted list of at most k entries.
struct TopKValue {
  std::vector<RankEntry> entries;
};

/// The largest list capacity `k` a run accepts; it bounds a message.
inline constexpr size_t kMaxTopK = 16;

/// Message: the sender's current list as its origins only, best first.
/// An entry's rank is a pure function of its origin (the run's input
/// ranks), so the receiver looks it up: the message is a 68-byte value,
/// which is what a pooled run stages per edge. MessageBytes still charges
/// the serialized (rank, origin) list.
struct TopKMessage {
  uint32_t count = 0;
  std::array<VertexId, kMaxTopK> origins{};
};

class TopKRankingProgram final
    : public bsp::VertexProgram<TopKValue, TopKMessage> {
 public:
  /// `ranks` are the input PageRank values, one per vertex.
  TopKRankingProgram(const AlgorithmConfig& config,
                     std::span<const double> ranks);

  void RegisterAggregators(bsp::AggregatorRegistry* registry) override;
  TopKValue InitialValue(VertexId v, const Graph& graph) const override;
  void Compute(bsp::VertexContext<TopKValue, TopKMessage>* ctx,
               std::span<const TopKMessage> messages) override;
  void MasterCompute(bsp::MasterContext* ctx) override;

  /// The combiner (bsp/vertex_program.h): `into` becomes the top k of the
  /// union of both lists, best first and deduplicated by origin. Compute
  /// keeps the top k of its own list and every received entry, and
  /// reports a change iff its final list differs from its initial one;
  /// both depend only on the set of entries received, so they are the
  /// same for any split of the inbox. Ranks are read from the input
  /// ranks, never computed.
  void Combine(TopKMessage& into, const TopKMessage& message) const;

  /// 8-byte header + 12 bytes per (rank, origin) entry.
  uint64_t MessageBytes(const TopKMessage& message) const override {
    return 8 + 12 * static_cast<uint64_t>(message.count);
  }
  uint64_t VertexStateBytes(const TopKValue& value) const override {
    return 16 + 12 * value.entries.size();
  }

  static constexpr const char* kUpdatesAggregate = "topk_updated_vertices";

 private:
  /// True iff `a` ranks above `b`: rank descending, then origin ascending.
  bool RanksAbove(VertexId a, VertexId b) const {
    return ranks_[a] != ranks_[b] ? ranks_[a] > ranks_[b] : a < b;
  }

  size_t k_;
  double tau_;
  std::span<const double> ranks_;
  bsp::AggregatorId updates_agg_ = 0;
};

/// Result of a standalone top-k run.
struct TopKResult {
  std::vector<TopKValue> lists;
  bsp::RunStats stats;
};

/// Runs top-k ranking over `graph`. If `ranks` is empty, a fixed-
/// iteration PageRank is executed first to produce them (not included in
/// the returned stats, mirroring the paper's treatment of top-k as its
/// own algorithm operating on PageRank output). A `k` outside
/// [1, kMaxTopK] is InvalidArgument, checked before anything runs.
Result<TopKResult> RunTopKRanking(const Graph& graph,
                                  const AlgorithmConfig& overrides = {},
                                  const bsp::EngineOptions& engine = {},
                                  std::vector<double> ranks = {});

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_TOPK_RANKING_H_
