// CSR-native transform implementations.
//
// All three transforms assemble the result's out/in CSR arrays directly
// from the parent graph's CSR (two counting passes, dense O(|V|)
// scratch) instead of materializing an intermediate std::vector<Edge>
// and re-validating through GraphBuilder. The edge orderings produced
// are bit-identical to the historical edge-list implementations (which
// the equivalence suite in tests/coldpath_test.cc pins against frozen
// copies of the original code):
//
//   InducedSubgraph  out bucket i = kept targets in parent CSR slot
//                    order; in bucket j = kept sources by (new src asc,
//                    slot order) — exactly the stable counting sort of
//                    the old generated edge list.
//   Transpose        out bucket t = {v : (v,t)} by (v asc, slot order);
//                    in CSR = the parent's out CSR verbatim.
//   ToUndirected     out bucket v = sorted unique union of out(v) and
//                    in(v); the symmetric edge set makes the in CSR a
//                    verbatim copy of the out CSR. Unweighted inputs
//                    build it in linear time, with no sort.

#include "graph/transforms.h"

#include <algorithm>
#include <utility>

namespace predict {

namespace {

// The parent's edges scattered by target — source and weight side by
// side, bucket t holding {(v, w) : (v, t, w)} in (v asc, out-slot)
// order. The graph's own in CSR cannot serve here: its bucket order is
// the original edge-list insertion order, which carries no weight
// alignment. Bucket boundaries are the parent's in_offsets.
struct ReverseAdjacency {
  std::vector<VertexId> sources;
  std::vector<float> weights;
};

ReverseAdjacency ReverseWithWeights(const Graph& graph) {
  const uint64_t v_count = graph.num_vertices();
  ReverseAdjacency rev;
  rev.sources.resize(graph.num_edges());
  rev.weights.resize(graph.num_edges());
  std::vector<uint64_t> cursor(graph.in_offsets().begin(),
                               graph.in_offsets().end() - 1);
  std::vector<VertexId> decode;
  for (VertexId v = 0; v < v_count; ++v) {
    const auto targets = graph.OutNeighborsInto(v, &decode);
    const auto weights = graph.out_weights(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      const uint64_t slot = cursor[targets[i]]++;
      rev.sources[slot] = v;
      rev.weights[slot] = weights[i];
    }
  }
  return rev;
}

}  // namespace

Result<Graph> ToUndirected(const Graph& graph) {
  const uint64_t v_count = graph.num_vertices();
  // Default-constructed graphs have empty (not size-1) offset arrays;
  // normalize through the builder like the edge-list implementation did.
  if (v_count == 0) return Graph::FromEdges(0, std::vector<Edge>{});
  const bool weighted = graph.is_weighted();

  // Reverse-edge weights come from the parent's in-adjacency, which does
  // not carry weights; scatter (source, weight) pairs once up front for
  // weighted inputs.
  ReverseAdjacency rev;
  if (weighted) rev = ReverseWithWeights(graph);

  std::vector<uint64_t> offsets(v_count + 1, 0);
  std::vector<VertexId> targets;
  std::vector<float> weights;
  bool any_weight = false;
  if (!weighted) {
    // Scatter each u into the bucket of every out- and in-neighbor, u
    // ascending: every bucket then fills in sorted order, with each u's
    // copies back to back (multi-edges, reciprocal pairs and a self-loop,
    // which is in both lists), so dedup compares with the bucket's last
    // entry only. A bucket holds at most out_degree + in_degree entries;
    // the buckets are compacted in place afterwards, so the one 2|E|
    // array is the whole allocation.
    for (VertexId v = 0; v < v_count; ++v) {
      offsets[v + 1] = offsets[v] + graph.out_degree(v) + graph.in_degree(v);
    }
    targets.resize(offsets[v_count]);
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (VertexId u = 0; u < v_count; ++u) {
      const auto append = [&](VertexId w) {
        uint64_t& end = cursor[w];
        if (end != offsets[w] && targets[end - 1] == u) return;
        targets[end++] = u;
      };
      graph.ForEachOutNeighbor(u, append);
      graph.ForEachInSource(u, append);
    }
    uint64_t size = 0;
    for (VertexId v = 0; v < v_count; ++v) {
      const uint64_t begin = offsets[v];
      offsets[v] = size;
      for (uint64_t i = begin; i < cursor[v]; ++i) targets[size++] = targets[i];
    }
    offsets[v_count] = size;
    targets.resize(size);
  } else {
    // Per-vertex: gather out- and in-neighbors, stable sort, dedup. The
    // stable sort keeps the first-gathered edge of every unordered pair,
    // so a forward edge's weight wins over its reverse companion's
    // ("first occurrence wins"). Self-loops contribute one candidate
    // only.
    targets.reserve(graph.num_edges() * 2);
    weights.reserve(graph.num_edges() * 2);
    std::vector<std::pair<VertexId, float>> scratch;
    std::vector<VertexId> decode;
    for (VertexId v = 0; v < v_count; ++v) {
      scratch.clear();
      const auto out = graph.OutNeighborsInto(v, &decode);
      for (size_t i = 0; i < out.size(); ++i) {
        scratch.emplace_back(out[i], graph.out_weights(v)[i]);
      }
      const uint64_t in_begin = graph.in_offsets()[v];
      const uint64_t in_end = graph.in_offsets()[v + 1];
      for (uint64_t i = in_begin; i < in_end; ++i) {
        if (rev.sources[i] == v) continue;  // self-loop contributed above
        scratch.emplace_back(rev.sources[i], rev.weights[i]);
      }
      std::stable_sort(
          scratch.begin(), scratch.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t i = 0; i < scratch.size(); ++i) {
        if (i != 0 && scratch[i].first == scratch[i - 1].first) continue;
        targets.push_back(scratch[i].first);
        weights.push_back(scratch[i].second);
        any_weight |= scratch[i].second != 1.0f;
      }
      offsets[v + 1] = targets.size();
    }
  }
  if (!any_weight) weights.clear();  // all-1.0 survivors: unweighted result

  // The undirected edge set is symmetric and each bucket is sorted, so
  // the in CSR is byte-for-byte the out CSR.
  std::vector<uint64_t> in_offsets = offsets;
  std::vector<VertexId> in_sources = targets;
  return Graph::FromCsr(std::move(offsets), std::move(targets),
                        std::move(weights), std::move(in_offsets),
                        std::move(in_sources));
}

Result<SubgraphResult> InducedSubgraph(const Graph& graph,
                                       const std::vector<VertexId>& vertices) {
  const uint64_t v_count = graph.num_vertices();
  const uint64_t k = vertices.size();
  constexpr VertexId kAbsent = 0xFFFFFFFFu;

  // Dense O(|V|) remap: new_id[old] = position in the sample, or kAbsent.
  std::vector<VertexId> new_id(v_count, kAbsent);
  for (uint64_t i = 0; i < k; ++i) {
    const VertexId v = vertices[i];
    if (v >= v_count) {
      return Status::InvalidArgument("sampled vertex " + std::to_string(v) +
                                     " out of range");
    }
    if (new_id[v] != kAbsent) {
      return Status::InvalidArgument("duplicate vertex " + std::to_string(v) +
                                     " in sample");
    }
    new_id[v] = static_cast<VertexId>(i);
  }

  // Counting pass: per-new-vertex kept out- and in-degrees.
  std::vector<uint64_t> out_offsets(k + 1, 0);
  std::vector<uint64_t> in_offsets(k + 1, 0);
  for (uint64_t i = 0; i < k; ++i) {
    graph.ForEachOutNeighbor(vertices[i], [&](VertexId t) {
      const VertexId j = new_id[t];
      if (j == kAbsent) return;
      out_offsets[i + 1]++;
      in_offsets[j + 1]++;
    });
  }
  for (uint64_t i = 0; i < k; ++i) {
    out_offsets[i + 1] += out_offsets[i];
    in_offsets[i + 1] += in_offsets[i];
  }
  const uint64_t kept = out_offsets[k];

  // Fill pass: write both adjacency directions straight from the parent
  // CSR. Iterating new sources in ascending order makes the in-buckets
  // come out in (new src asc, parent slot order), matching the stable
  // counting sort the edge-list implementation performed.
  const bool parent_weighted = graph.is_weighted();
  std::vector<VertexId> out_targets(kept);
  std::vector<float> out_weights(parent_weighted ? kept : 0);
  std::vector<VertexId> in_sources(kept);
  std::vector<uint64_t> in_cursor(in_offsets.begin(), in_offsets.end() - 1);
  bool any_weight = false;
  uint64_t out_slot = 0;  // out buckets fill contiguously in i order
  std::vector<VertexId> decode;
  for (uint64_t i = 0; i < k; ++i) {
    const VertexId v = vertices[i];
    const auto targets = graph.OutNeighborsInto(v, &decode);
    for (size_t s = 0; s < targets.size(); ++s) {
      const VertexId j = new_id[targets[s]];
      if (j == kAbsent) continue;
      out_targets[out_slot] = j;
      if (parent_weighted) {
        const float w = graph.out_weights(v)[s];
        out_weights[out_slot] = w;
        any_weight |= w != 1.0f;
      }
      ++out_slot;
      in_sources[in_cursor[j]++] = static_cast<VertexId>(i);
    }
  }
  if (!any_weight) out_weights.clear();  // kept edges all weigh 1.0

  SubgraphResult result;
  result.original_id = vertices;
  result.graph = Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                                std::move(out_weights), std::move(in_offsets),
                                std::move(in_sources));
  return result;
}

Result<Graph> Transpose(const Graph& graph) {
  const uint64_t v_count = graph.num_vertices();
  if (v_count == 0) return Graph::FromEdges(0, std::vector<Edge>{});
  const bool weighted = graph.is_weighted();

  // The transpose's out CSR has the parent's in-degree profile; fill it
  // by scattering parent edges by target in (src asc, slot order) — the
  // order the edge-list implementation generated reversed edges in.
  std::vector<uint64_t> out_offsets(graph.in_offsets().begin(),
                                    graph.in_offsets().end());
  std::vector<VertexId> out_targets(graph.num_edges());
  std::vector<float> out_weights(weighted ? graph.num_edges() : 0);
  std::vector<uint64_t> cursor(out_offsets.begin(), out_offsets.end() - 1);
  std::vector<VertexId> decode;
  for (VertexId v = 0; v < v_count; ++v) {
    const auto targets = graph.OutNeighborsInto(v, &decode);
    for (size_t s = 0; s < targets.size(); ++s) {
      const uint64_t slot = cursor[targets[s]]++;
      out_targets[slot] = v;
      if (weighted) out_weights[slot] = graph.out_weights(v)[s];
    }
  }

  // The transpose's in CSR is the parent's out CSR verbatim.
  std::vector<uint64_t> in_offsets(graph.out_offsets().begin(),
                                   graph.out_offsets().end());
  std::vector<VertexId> in_sources;
  if (!graph.edges_compressed()) {
    in_sources.assign(graph.out_targets().begin(), graph.out_targets().end());
  } else {
    in_sources.resize(graph.num_edges());
    uint64_t slot = 0;
    for (VertexId v = 0; v < v_count; ++v) {
      graph.ForEachOutNeighbor(v, [&](VertexId t) { in_sources[slot++] = t; });
    }
  }
  return Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                        std::move(out_weights), std::move(in_offsets),
                        std::move(in_sources));
}

}  // namespace predict
