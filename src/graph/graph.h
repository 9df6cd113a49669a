// Immutable directed graph in Compressed Sparse Row (CSR) form.
//
// The Graph is the single input type shared by the BSP engine, the
// samplers, and the statistics module. It stores both out- and in-
// adjacency so that algorithms and graph statistics (in/out degree
// ratios, PREDIcT's sampling requirements in §3.2.1 of the paper) are
// O(1)/O(deg) without re-deriving the transpose.
//
// Edge endpoints can optionally be stored varint/delta-compressed
// (graph/varint.h) instead of as flat id arrays — opt in via
// Graph::WithCompressedEdges. A compressed graph has the same logical
// structure (same Fingerprint, same ToEdgeList) at a fraction of the
// edge bytes, which is what lets 10M-100M-edge inputs fit the simulated
// memory budgets; adjacency is then read through ForEachOutNeighbor /
// OutNeighborsInto (block-wise decode) rather than the raw spans.

#ifndef PREDICT_GRAPH_GRAPH_H_
#define PREDICT_GRAPH_GRAPH_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/varint.h"

namespace predict {

/// Vertex identifier. Graphs are always compact: ids are [0, num_vertices).
using VertexId = uint32_t;

/// A directed edge with an optional weight (1.0 when unweighted).
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;

  bool operator==(const Edge& other) const {
    return src == other.src && dst == other.dst && weight == other.weight;
  }
};

/// How EvolvingGraph::Apply derived a version from its parent
/// (graph/delta.h). Copies and moves of the Graph carry it, like the
/// fingerprint memo.
struct GraphLineage {
  /// Fingerprint() of the version this one was built from.
  uint64_t parent_fingerprint = 0;
  /// Vertices whose out-row (targets or weights) differs from the
  /// parent's, ascending: exactly DirtyOutVertices(parent, *this).
  std::vector<VertexId> dirty;
};

/// \brief Immutable directed graph in CSR form with both adjacency
/// directions materialized.
///
/// Construction goes through GraphBuilder or Graph::FromEdges. Parallel
/// edges are allowed (they matter for message counts); self-loops are
/// allowed unless the builder is told to drop them.
class Graph {
 public:
  Graph() = default;

  // The memoized fingerprint cache is an atomic, so the compiler-written
  // special members are unavailable; these copy/move the CSR arrays and
  // carry the cache and the lineage along (both describe the content,
  // so a copy shares them validly).
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Builds a graph from an edge list. Vertices are [0, num_vertices);
  /// edges referencing vertices outside that range are rejected.
  static Result<Graph> FromEdges(VertexId num_vertices,
                                 const std::vector<Edge>& edges);

  /// Overload taking ownership of the edge list: skips the copy entirely
  /// (the CSR assembly consumes the vector in place). Prefer this when
  /// the caller's edge list is expendable.
  static Result<Graph> FromEdges(VertexId num_vertices,
                                 std::vector<Edge>&& edges);

  /// \brief Trusted constructor from prebuilt CSR arrays; the fast path
  /// for transforms that assemble adjacency directly (InducedSubgraph,
  /// Transpose, ToUndirected) without an edge-list round trip.
  ///
  /// The caller guarantees the standard CSR invariants: both offset
  /// arrays have size V+1, start at 0, are non-decreasing, and end at
  /// the edge count; every target/source id is < V; `out_weights` is
  /// either empty (unweighted) or parallel to `out_targets` with at
  /// least one weight != 1.0f; the in arrays describe exactly the
  /// reverse of the out arrays. Invariants are checked with assert()
  /// in debug builds only — this is not an input-validation API.
  static Graph FromCsr(std::vector<uint64_t> out_offsets,
                       std::vector<VertexId> out_targets,
                       std::vector<float> out_weights,
                       std::vector<uint64_t> in_offsets,
                       std::vector<VertexId> in_sources);

  /// Returns `g` with edge endpoints varint/delta-compressed (no-op if
  /// already compressed). Same logical structure, same Fingerprint.
  static Graph WithCompressedEdges(Graph g);

  /// Inverse of WithCompressedEdges: re-materializes the flat endpoint
  /// arrays (no-op if already plain).
  static Graph WithPlainEdges(Graph g);

  uint64_t num_vertices() const { return out_offsets_.empty() ? 0 : out_offsets_.size() - 1; }
  uint64_t num_edges() const {
    return out_offsets_.empty() ? 0 : out_offsets_.back();
  }

  /// True when any edge carries a weight != 1.0.
  bool is_weighted() const { return is_weighted_; }

  /// True when edge endpoints are stored varint/delta-compressed; the
  /// raw out_neighbors / in_neighbors / out_targets / in_sources spans
  /// are unavailable then — use the ForEach / *Into accessors.
  bool edges_compressed() const { return edges_compressed_; }

  uint64_t out_degree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  uint64_t in_degree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Targets of v's outgoing edges (with multiplicity). Plain storage
  /// only (asserts); compression-agnostic callers use ForEachOutNeighbor
  /// or OutNeighborsInto.
  std::span<const VertexId> out_neighbors(VertexId v) const {
    assert(!edges_compressed_);
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  /// Weights parallel to v's out-edges. Valid only if is_weighted();
  /// weights stay uncompressed, so this works in both storage modes.
  std::span<const float> out_weights(VertexId v) const {
    return {out_weights_.data() + out_offsets_[v],
            out_weights_.data() + out_offsets_[v + 1]};
  }

  /// Sources of v's incoming edges (with multiplicity). Plain storage
  /// only (asserts).
  std::span<const VertexId> in_neighbors(VertexId v) const {
    assert(!edges_compressed_);
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  /// Invokes fn(target) for each of v's out-edges in CSR order. For
  /// compressed graphs this is the block-wise decode path (the engine's
  /// scatter loops); for plain graphs it iterates the span directly.
  template <typename Fn>
  void ForEachOutNeighbor(VertexId v, Fn&& fn) const {
    if (!edges_compressed_) {
      for (const VertexId t : out_neighbors(v)) fn(t);
      return;
    }
    DecodeList(out_packed_.data() + out_packed_offsets_[v], out_degree(v),
               static_cast<Fn&&>(fn));
  }

  /// Invokes fn(source) for each of v's in-edges in CSR order.
  template <typename Fn>
  void ForEachInSource(VertexId v, Fn&& fn) const {
    if (!edges_compressed_) {
      for (const VertexId s : in_neighbors(v)) fn(s);
      return;
    }
    DecodeList(in_packed_.data() + in_packed_offsets_[v], in_degree(v),
               static_cast<Fn&&>(fn));
  }

  /// v's out-targets as a span, valid until the next call reusing
  /// `scratch`. Plain graphs return the CSR span directly (no copy);
  /// compressed graphs decode into `scratch`.
  std::span<const VertexId> OutNeighborsInto(
      VertexId v, std::vector<VertexId>* scratch) const {
    if (!edges_compressed_) return out_neighbors(v);
    return DecodeInto(out_packed_.data() + out_packed_offsets_[v],
                      out_degree(v), scratch);
  }

  /// v's in-sources as a span; same contract as OutNeighborsInto.
  std::span<const VertexId> InSourcesInto(VertexId v,
                                          std::vector<VertexId>* scratch) const {
    if (!edges_compressed_) return in_neighbors(v);
    return DecodeInto(in_packed_.data() + in_packed_offsets_[v], in_degree(v),
                      scratch);
  }

  /// Whole-array views of the CSR structure, for code that walks or
  /// re-assembles adjacency wholesale (transforms, serialization) rather
  /// than per vertex. The target/source arrays are empty when
  /// edges_compressed().
  std::span<const uint64_t> out_offsets() const { return out_offsets_; }
  std::span<const VertexId> out_targets() const { return out_targets_; }
  std::span<const float> out_weights() const { return out_weights_; }
  std::span<const uint64_t> in_offsets() const { return in_offsets_; }
  std::span<const VertexId> in_sources() const { return in_sources_; }

  /// Materializes the edge list (in CSR order). O(E).
  std::vector<Edge> ToEdgeList() const;

  /// Total bytes of the CSR arrays; used by the simulated memory model to
  /// account for the in-memory input graph (Giraph's "read phase" loads the
  /// graph into worker memory). Compressed graphs report the packed size.
  uint64_t MemoryFootprintBytes() const;

  /// Bytes spent on edge-endpoint storage only: the target/source arrays
  /// (plain) or the packed streams plus their per-vertex byte index
  /// (compressed). The quantity the rmat_scale_gate compression-ratio
  /// check compares.
  uint64_t EdgeStorageBytes() const;

  /// Stable 64-bit content hash of the graph structure: a |V| term plus
  /// the sum (mod 2^64) of one hash per out-row, each hashing the row's
  /// vertex id, degree and (target, weight bits) sequence in CSR order,
  /// one 64-bit word per edge (unweighted rows hash weight 1.0). So the
  /// hash is order-sensitive within a row, and a version whose rows
  /// changed can be re-hashed from its parent's value by swapping only
  /// those rows' terms — what EvolvingGraph::Apply does. It is
  /// independent of how the Graph was constructed, including whether
  /// edges are compressed: plain and compressed copies hash equal. On
  /// canonical graphs (EvolvingGraph::Canonicalize, and every version an
  /// EvolvingGraph holds) equal edge multisets mean equal bytes, so there
  /// the fingerprint identifies the edge multiset.
  /// Distinct structures collide only with 64-bit-hash probability (the
  /// hash is not cryptographic — callers building cache keys on it
  /// should also key on |V|/|E|, as pipeline::SampleKey does). Never
  /// returns 0.
  ///
  /// Memoized: the O(V + E) scan runs at most once per Graph instance
  /// (copies inherit the cached value; EvolvingGraph stamps the value on
  /// every version it produces, so those are never scanned) and the
  /// result is served from a cache thereafter, so hot cache-key paths
  /// (pipeline::SampleKey per PredictionService request) pay a single
  /// atomic load. Thread-safe; concurrent first calls may redundantly
  /// compute the same value.
  uint64_t Fingerprint() const;

  /// Number of full-CSR fingerprint scans performed process-wide since
  /// start. Test-only observability for the memoization contract.
  static uint64_t FingerprintComputationsForTest();

  /// The lineage of a version built by EvolvingGraph::Apply (or a copy
  /// of one); null for every other graph.
  const GraphLineage* lineage() const { return lineage_.get(); }

  /// Human-readable one-line summary, e.g. "Graph(|V|=100000, |E|=854301)".
  std::string ToString() const;

 private:
  friend class GraphBuilder;
  friend class EvolvingGraph;

  /// v's summand of the fingerprint sum (see Fingerprint()). Plain
  /// storage only.
  uint64_t OutRowHash(VertexId v) const;

  /// The full O(V + E) scan behind Fingerprint(): the raw sum, which may
  /// be 0 (Fingerprint() maps 0 to 1). Counted by
  /// FingerprintComputationsForTest().
  uint64_t FingerprintSum() const;

  /// Installs a fingerprint sum computed elsewhere (from a parent
  /// version's) and the lineage, replacing any memo.
  void StampVersion(uint64_t fingerprint_sum,
                    std::shared_ptr<const GraphLineage> lineage);

  /// Re-encodes the endpoint arrays as varint/delta streams (and frees
  /// them); inverse is DecompressEdgesInPlace.
  void CompressEdgesInPlace();
  void DecompressEdgesInPlace();

  template <typename Fn>
  static void DecodeList(const uint8_t* p, uint64_t count, Fn&& fn) {
    uint32_t prev = 0;
    VertexId block[varint::kDecodeBlock];
    while (count != 0) {
      const size_t n = count < varint::kDecodeBlock
                           ? static_cast<size_t>(count)
                           : varint::kDecodeBlock;
      p = varint::DecodeDeltaBlock(p, n, &prev, block);
      for (size_t i = 0; i < n; ++i) fn(block[i]);
      count -= n;
    }
  }

  static std::span<const VertexId> DecodeInto(const uint8_t* p, uint64_t count,
                                              std::vector<VertexId>* scratch) {
    if (scratch->size() < count) scratch->resize(count);
    uint32_t prev = 0;
    VertexId* out = scratch->data();
    uint64_t remaining = count;
    while (remaining != 0) {
      const size_t n = remaining < varint::kDecodeBlock
                           ? static_cast<size_t>(remaining)
                           : varint::kDecodeBlock;
      p = varint::DecodeDeltaBlock(p, n, &prev, out);
      out += n;
      remaining -= n;
    }
    return {scratch->data(), scratch->data() + count};
  }

  std::vector<uint64_t> out_offsets_;  // size V+1
  std::vector<VertexId> out_targets_;  // size E (empty when compressed)
  std::vector<float> out_weights_;     // size E iff weighted, else empty
  std::vector<uint64_t> in_offsets_;   // size V+1
  std::vector<VertexId> in_sources_;   // size E (empty when compressed)
  bool is_weighted_ = false;

  // Compressed-edge storage (edges_compressed_ only): varint/delta
  // streams plus per-vertex byte offsets into them. Byte offsets are
  // 32-bit — a stream would exceed 4 GiB only beyond ~1.5G edges, far
  // past what a single simulated cluster models.
  bool edges_compressed_ = false;
  std::vector<uint8_t> out_packed_;
  std::vector<uint8_t> in_packed_;
  std::vector<uint32_t> out_packed_offsets_;  // size V+1
  std::vector<uint32_t> in_packed_offsets_;   // size V+1

  // 0 = not yet computed (Fingerprint() itself never yields 0).
  mutable std::atomic<uint64_t> fingerprint_cache_{0};
  // Immutable once attached; shared by copies.
  std::shared_ptr<const GraphLineage> lineage_;
};

/// \brief Incremental graph construction.
///
/// Usage:
///   GraphBuilder b(num_vertices);
///   b.AddEdge(0, 1);
///   PREDICT_ASSIGN_OR_RETURN(Graph g, b.Build());
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  /// Appends a directed edge. Out-of-range endpoints are reported by Build.
  void AddEdge(VertexId src, VertexId dst, float weight = 1.0f) {
    edges_.push_back({src, dst, weight});
  }

  /// Appends both (src,dst) and (dst,src); convenience for undirected input.
  void AddUndirectedEdge(VertexId src, VertexId dst, float weight = 1.0f) {
    AddEdge(src, dst, weight);
    AddEdge(dst, src, weight);
  }

  /// Appends a whole batch; adopts the vector (no copy) when the builder
  /// holds no pending edges yet.
  void AddEdges(std::vector<Edge> edges) {
    if (edges_.empty()) {
      edges_ = std::move(edges);
    } else {
      edges_.insert(edges_.end(), edges.begin(), edges.end());
    }
  }

  /// Pre-sizes the pending edge list for `count` further AddEdge calls.
  void ReserveEdges(uint64_t count) { edges_.reserve(edges_.size() + count); }

  /// Drop self-loops at Build time (default keeps them).
  void set_drop_self_loops(bool drop) { drop_self_loops_ = drop; }

  /// Deduplicate parallel edges at Build time, keeping the first weight.
  void set_dedup_parallel_edges(bool dedup) { dedup_parallel_edges_ = dedup; }

  uint64_t num_pending_edges() const { return edges_.size(); }

  /// Validates and assembles the CSR structure. The builder is consumed.
  Result<Graph> Build();

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
  bool drop_self_loops_ = false;
  bool dedup_parallel_edges_ = false;
};

}  // namespace predict

#endif  // PREDICT_GRAPH_GRAPH_H_
