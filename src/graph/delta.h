// Evolving graphs: a chain of canonical CSR versions.
//
// PREDIcT's pipeline assumes a frozen input graph, but production graphs
// churn between predictions. EvolvingGraph holds the current version of
// a churning graph as a plain canonical Graph, and Apply(batch) turns
// it into the next version. Every reader (algorithms, samplers,
// transforms, the prediction service) reads an ordinary CSR.
//
// A version costs its replayed rows plus the row ranges whose offsets
// shift. Apply replays the batch on copies of the touched out-rows and
// rebuilds the in-rows they change, then splices them into the current
// arrays in place, moving only the clean ranges whose offsets shift.
// Capacity grows geometrically, so nothing is allocated while |E| fits
// (a weightedness flip costs O(E)). Each version leaves with two things
// no later consumer has to recompute from the whole graph:
//   - its Graph::Fingerprint(), derived from the parent's by swapping
//     the changed rows' terms of the row-hash sum (the first version's
//     is computed once, at construction);
//   - a GraphLineage: the parent's Fingerprint() and the exact set of
//     out-vertices whose rows changed (DirtyOutVertices(parent, version)
//     without the diff). The prediction service re-samples from it.
// Copies and moves of the version carry both.
//
// Canonical adjacency. The edge multiset alone determines a version's
// CSR bytes, so two routes to the same edges feed the deterministic
// algorithms the same adjacency order: every out-list is sorted by (dst,
// weight bits) and every in-list by source, and a version is
// byte-identical to a cold Canonicalize(Graph::FromEdges(its edges)).
// Its Fingerprint() therefore identifies its edge multiset.
//
// Operation semantics. A batch's operations apply in order. An insert
// adds one edge. A delete removes one (src, dst) edge: the first in
// canonical (dst, weight bits) order, i.e. the one with the lowest
// weight bits, in the version with the batch's earlier operations
// applied. So the operations alone decide the version: splitting a
// batch, or reading Current() between batches, never changes where a
// sequence of operations ends.
//
// Failure semantics: Apply is all or nothing. An unknown vertex, or a
// delete with no (src, dst) edge left to remove, is an InvalidArgument
// carrying the offending (src, dst). The fail point "graph.compact" sits
// after every check, before the splice allocates or writes; a fault
// there is returned annotated "graph_compact". Either way the current
// version, its Fingerprint() and its lineage() are unchanged, and
// retrying the batch reaches the version an unfaulted graph reaches.

#ifndef PREDICT_GRAPH_DELTA_H_
#define PREDICT_GRAPH_DELTA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace predict {

/// One edge mutation in a delta batch.
struct EdgeDelta {
  enum class Op : uint8_t {
    kInsert = 0,  ///< add (src, dst, weight)
    kDelete = 1,  ///< remove one (src, dst) edge, lowest weight bits first
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

/// \brief A mutable graph: the current version of a chain of canonical
/// CSRs, one per successful Apply (see file comment).
///
/// Not thread-safe for mutation; a version read through Current() is a
/// plain Graph, safe to read concurrently until the next Apply.
class EvolvingGraph {
 public:
  /// Adopts `base` as the first version, normalizing it to canonical
  /// (sorted) adjacency and plain (uncompressed) edge storage. O(V + E
  /// log deg), plus the one full fingerprint scan of the chain.
  explicit EvolvingGraph(Graph base);

  /// |V| (fixed: delta batches mutate edges only).
  uint64_t num_vertices() const { return current_.num_vertices(); }
  /// |E| of the current version.
  uint64_t num_edges() const { return current_.num_edges(); }

  /// Splices the next version from `batch` into the current one in place
  /// (cost: the replayed rows plus the shifted ranges, no allocation while
  /// |E| fits), stamping its fingerprint and lineage. A batch that changes
  /// no row keeps the current version and its lineage. All or nothing: on
  /// a validation error (InvalidArgument carrying the offending (src,
  /// dst)) or a fault injected at "graph.compact", nothing changes.
  Status Apply(const EdgeDeltaBatch& batch);

  /// The current version, always at this address. Never fails; the next
  /// successful Apply rewrites it, so spans into it become invalid.
  Result<const Graph*> Current() { return &current_; }

  /// Normalizes a graph to the canonical form EvolvingGraph uses: plain
  /// edge storage, every out-list sorted by (dst, weight bits), in-CSR
  /// rebuilt to match. Two graphs with equal edge multisets canonicalize
  /// to byte-identical CSRs (and hence equal Graph::Fingerprint()s).
  static Graph Canonicalize(Graph g);

 private:
  Graph current_;  // canonical, plain edges, fingerprint stamped
  /// The raw row-hash sum behind current_.Fingerprint() (which maps 0
  /// to 1), the exact value the next version's fingerprint derives from.
  uint64_t fingerprint_sum_ = 0;
  /// Edges of current_ with weight != 1.0: whether the next version is
  /// weighted, without a scan.
  uint64_t non_unit_weights_ = 0;
};

/// Vertices whose out-row (targets or weights) differs between two
/// same-|V| graphs, ascending — the dirty set incremental re-sampling
/// re-walks from, and what a version's GraphLineage records
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
