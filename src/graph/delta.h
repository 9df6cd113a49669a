// Evolving graphs: a delta overlay over the immutable CSR.
//
// PREDIcT's pipeline assumes a frozen input graph, but production graphs
// churn between predictions. EvolvingGraph makes that churn cheap: edge
// insert/delete batches accumulate in a per-vertex sorted overlay on top
// of an immutable canonical CSR (the "base"), a merged-view iterator
// serves adjacency that algorithms and transforms consume without
// compaction, and the overlay is compacted into a fresh CSR once it
// crosses a size threshold (or when Current() asks for the version).
//
// Splice compaction. A version costs O(changed rows) beyond bulk copies:
// Compact() merges only the overlay's out-rows and the in-rows of the
// targets whose multiplicity they change, and bulk-copies every clean
// row range of the base's out- and in-arrays around them. Each version
// it produces leaves with two things no later consumer has to recompute
// from the whole graph:
//   - its Graph::Fingerprint(), derived from the parent's by swapping
//     the changed rows' terms of the row-hash sum (the base's is
//     computed once, at construction, like the EdgeSetHash anchor);
//   - a GraphLineage: the parent's Fingerprint() and the exact set of
//     out-vertices whose rows changed (DirtyOutVertices(parent, version)
//     without the diff). The prediction service re-samples from it.
// Copies and moves of the version carry both.
//
// Versioned fingerprints. Every version of the edge set has a stable
// 64-bit identity maintained incrementally: the chain is anchored at the
// base CSR's order-independent Graph::EdgeSetHash() and each mutation
// adds (insert) or subtracts (delete) the edge's Graph::EdgeHash — a
// commutative multiset hash, so ANY interleaving of batches and
// compactions reaching the same edge set reaches the same
// VersionFingerprint (and an insert cancelled by a delete restores the
// previous version's identity exactly). Compaction preserves the value;
// in debug builds it is re-derived from the fresh CSR and asserted.
//
// Canonical adjacency. The edge set alone must determine the compacted
// CSR bytes (otherwise two routes to the same version could feed
// bit-different adjacency orders to the deterministic algorithms), so
// EvolvingGraph keeps every vertex's out-list sorted by (dst, weight
// bits). The base is normalized on construction (Canonicalize), merges
// preserve the order, and compaction emits it — a cold
// Canonicalize(Graph::FromEdges(mutated edge list)) is byte-identical
// to the evolved graph's compacted CSR.
//
// Failure semantics: Apply validates the whole batch before mutating
// anything (unknown vertex, delete of a non-existent edge, duplicate
// removal — each an InvalidArgument carrying the offending (src, dst));
// compaction builds the fresh CSR off to the side and installs it only
// at the very end, so a fault inside compaction (fail point
// "graph.compact") leaves the overlay and the current version fully
// intact — callers retry, and caches keyed on the version fingerprint
// can never observe a half-compacted graph.

#ifndef PREDICT_GRAPH_DELTA_H_
#define PREDICT_GRAPH_DELTA_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/transforms.h"

namespace predict {

/// One edge mutation in a delta batch.
struct EdgeDelta {
  enum class Op : uint8_t {
    kInsert = 0,  ///< add (src, dst, weight)
    kDelete = 1,  ///< remove one edge matching (src, dst)
  };

  Op op = Op::kInsert;
  VertexId src = 0;
  VertexId dst = 0;
  /// Inserts only; deletes match on (src, dst) regardless of weight.
  float weight = 1.0f;

  static EdgeDelta Insert(VertexId src, VertexId dst, float weight = 1.0f) {
    return {Op::kInsert, src, dst, weight};
  }
  static EdgeDelta Delete(VertexId src, VertexId dst) {
    return {Op::kDelete, src, dst, 1.0f};
  }

  bool operator==(const EdgeDelta& other) const = default;
};

using EdgeDeltaBatch = std::vector<EdgeDelta>;

/// \brief A mutable graph: an immutable canonical base CSR plus a
/// per-vertex sorted add/remove overlay.
///
/// Not thread-safe for mutation; the merged-view readers are const and
/// may run concurrently with each other (like Graph).
class EvolvingGraph {
 public:
  /// Adopts `base`, normalizing it to canonical (sorted) adjacency and
  /// plain (uncompressed) edge storage — the mutation-friendly
  /// representation. O(V + E log deg).
  explicit EvolvingGraph(Graph base);

  /// |V| (fixed: delta batches mutate edges only).
  uint64_t num_vertices() const { return base_.num_vertices(); }
  /// Logical |E| of the current version (base minus removes plus adds).
  uint64_t num_edges() const {
    return static_cast<uint64_t>(
        static_cast<int64_t>(base_.num_edges()) + edge_count_delta_);
  }
  /// Pending overlay entries (adds + removes not yet compacted).
  uint64_t overlay_edges() const { return overlay_entries_; }
  bool dirty() const { return overlay_entries_ != 0; }

  /// The current version's stable identity (see file comment). Never 0;
  /// equals Current()->EdgeSetHash() at all times.
  uint64_t VersionFingerprint() const { return version_fp_ == 0 ? 1 : version_fp_; }

  /// Validates and applies a mutation batch. On a validation error
  /// (InvalidArgument carrying the offending (src, dst)) the graph is
  /// unchanged. When the grown overlay crosses the compaction threshold
  /// the batch is folded into a fresh base CSR; a fault injected there
  /// ("graph.compact") is returned as the (annotated) error with the
  /// batch fully applied and the overlay intact — retry via Compact().
  Status Apply(const EdgeDeltaBatch& batch);

  /// Merged-view out-degree of `v` in the current version.
  uint64_t out_degree(VertexId v) const;

  /// Invokes fn(dst, weight) for each of v's current out-edges in
  /// canonical (dst, weight-bits) order, merging the base row with the
  /// overlay without materializing anything.
  template <typename Fn>
  void ForEachOutEdge(VertexId v, Fn&& fn) const;

  /// Invokes fn(dst) for each current out-edge of v in canonical order —
  /// the same shape algorithms use on a plain Graph.
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    ForEachOutEdge(v, [&](VertexId dst, float) { fn(dst); });
  }

  /// v's current out-targets decoded into `scratch` (merged view); same
  /// contract as Graph::OutNeighborsInto.
  std::span<const VertexId> OutNeighborsInto(
      VertexId v, std::vector<VertexId>* scratch) const;

  /// Folds the overlay into a fresh canonical CSR by splicing the
  /// changed rows into bulk copies of the base's clean ranges, stamping
  /// the new version's fingerprint and lineage (see file comment). An
  /// overlay that nets out to no row change keeps the base. Strong
  /// exception safety: on failure (fail point "graph.compact") nothing
  /// changes.
  Status Compact();

  /// The compacted current version (compacting first if dirty). The
  /// returned pointer is valid until the next Apply/Compact.
  Result<const Graph*> Current();

  /// The last compacted CSR (ignores any pending overlay).
  const Graph& base() const { return base_; }

  /// Auto-compaction threshold: Apply compacts once overlay_edges()
  /// exceeds `fraction` of the base edge count (clamped to a small
  /// floor so tiny graphs still batch). A negative or NaN fraction acts
  /// as 0; one whose product with |E| passes the uint64_t range never
  /// triggers. Default 0.25.
  void set_compaction_threshold(double fraction) {
    compaction_threshold_ = fraction;
  }

  /// Normalizes a graph to the canonical form EvolvingGraph uses: plain
  /// edge storage, every out-list sorted by (dst, weight bits), in-CSR
  /// rebuilt to match. Two graphs with equal edge multisets canonicalize
  /// to byte-identical CSRs (and hence equal Graph::Fingerprint()s).
  static Graph Canonicalize(Graph g);

 private:
  struct VertexDelta {
    /// Pending inserts from this vertex, sorted by (dst, weight bits).
    std::vector<std::pair<VertexId, float>> adds;
    /// Pending deletes of base-row occurrences: sorted dst multiset
    /// (deletes that cancel a pending add never land here).
    std::vector<VertexId> removes;
  };

  /// Occurrences of dst surviving in v's base row = multiplicity in the
  /// base minus pending removes.
  uint64_t SurvivingBaseCount(VertexId v, VertexId dst) const;

  Graph base_;  // canonical, plain edges, fingerprint stamped
  /// The raw row-hash sum behind base_.Fingerprint() (which maps 0 to
  /// 1), the exact value the next version's fingerprint derives from.
  uint64_t base_fingerprint_sum_ = 0;
  /// Base edges with weight != 1.0: whether the next version is
  /// weighted, without a scan.
  uint64_t base_non_unit_weights_ = 0;
  std::unordered_map<VertexId, VertexDelta> overlay_;
  uint64_t overlay_entries_ = 0;
  int64_t edge_count_delta_ = 0;
  uint64_t version_fp_ = 0;
  double compaction_threshold_ = 0.25;
};

template <typename Fn>
void EvolvingGraph::ForEachOutEdge(VertexId v, Fn&& fn) const {
  const auto targets = base_.out_neighbors(v);
  const std::span<const float> weights =
      base_.is_weighted() ? base_.out_weights(v) : std::span<const float>{};
  const auto weight_at = [&](size_t i) {
    return weights.empty() ? 1.0f : weights[i];
  };
  const auto it = overlay_.find(v);
  if (it == overlay_.end()) {
    for (size_t i = 0; i < targets.size(); ++i) fn(targets[i], weight_at(i));
    return;
  }
  const VertexDelta& delta = it->second;
  // Merge the base row (minus removed occurrences) with the adds; both
  // sides are sorted by (dst, weight bits), ties emit base first.
  size_t bi = 0;
  size_t ai = 0;
  size_t ri = 0;  // cursor into the sorted remove multiset
  while (bi < targets.size() || ai < delta.adds.size()) {
    // Skip base occurrences consumed by pending removes: the k removes
    // recorded for a dst consume its first k base occurrences.
    if (bi < targets.size() && ri < delta.removes.size() &&
        delta.removes[ri] == targets[bi]) {
      ++bi;
      ++ri;
      continue;
    }
    if (ai >= delta.adds.size()) {
      fn(targets[bi], weight_at(bi));
      ++bi;
      continue;
    }
    if (bi >= targets.size()) {
      fn(delta.adds[ai].first, delta.adds[ai].second);
      ++ai;
      continue;
    }
    const VertexId bd = targets[bi];
    const VertexId ad = delta.adds[ai].first;
    bool base_first;
    if (bd != ad) {
      base_first = bd < ad;
    } else {
      uint32_t bw;
      uint32_t aw;
      const float bwf = weight_at(bi);
      std::memcpy(&bw, &bwf, sizeof(bw));
      std::memcpy(&aw, &delta.adds[ai].second, sizeof(aw));
      base_first = bw <= aw;
    }
    if (base_first) {
      fn(targets[bi], weight_at(bi));
      ++bi;
    } else {
      fn(delta.adds[ai].first, delta.adds[ai].second);
      ++ai;
    }
  }
}

/// Induced subgraph of the evolving graph's *current* version, computed
/// straight off the merged view (no compaction): the transform
/// counterpart of the merged-view iterator. Output is byte-identical to
/// InducedSubgraph(*evolving.Current(), vertices).
Result<SubgraphResult> InducedSubgraph(const EvolvingGraph& graph,
                                       const std::vector<VertexId>& vertices);

/// Vertices whose out-row (targets or weights) differs between two
/// same-|V| graphs, ascending — the dirty set incremental re-sampling
/// re-walks from, and what a compacted version's GraphLineage records
/// without diffing. An unweighted graph's rows count as weight 1.0, so
/// a weightedness flip alone dirties no row. O(V + E) span compares;
/// graphs with different |V| report every vertex of the larger one.
std::vector<VertexId> DirtyOutVertices(const Graph& before,
                                       const Graph& after);

/// Deterministic seeded churn: deletes `fraction/2` of the existing
/// edges and inserts an equal count of fresh (absent) edges, all drawn
/// from Rng(seed). The batch is always valid for Apply on `graph`.
struct ChurnOptions {
  /// Total mutations as a fraction of |E| (half deletes, half inserts).
  double fraction = 0.01;
  uint64_t seed = 1;
  /// Optional size-|V| byte mask: vertices marked nonzero are left
  /// untouched (no incident edge deleted, no new edge attached). Models
  /// periphery churn around a stable core; empty = unrestricted.
  std::span<const uint8_t> avoid = {};
};

Result<EdgeDeltaBatch> GenerateChurn(const Graph& graph,
                                     const ChurnOptions& options);

}  // namespace predict

#endif  // PREDICT_GRAPH_DELTA_H_
