#include "graph/delta.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/rng.h"

namespace predict {

namespace {

inline uint32_t WeightBits(float w) {
  uint32_t bits;
  std::memcpy(&bits, &w, sizeof(bits));
  return bits;
}

// Canonical out-row order: (dst, weight bits).
inline bool CanonicalLess(const std::pair<VertexId, float>& a,
                          const std::pair<VertexId, float>& b) {
  if (a.first != b.first) return a.first < b.first;
  return WeightBits(a.second) < WeightBits(b.second);
}

// Whether two out-rows carry the same weight bits; an empty span stands
// for an unweighted graph's row (every weight 1.0).
bool SameRowWeights(std::span<const float> a, std::span<const float> b) {
  if (a.empty() && b.empty()) return true;
  if (!a.empty() && !b.empty()) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  }
  const std::span<const float> weighted = a.empty() ? b : a;
  return std::all_of(weighted.begin(), weighted.end(), [](float w) {
    return WeightBits(w) == WeightBits(1.0f);
  });
}

uint64_t CountNonUnitWeights(std::span<const float> weights) {
  return static_cast<uint64_t>(std::count_if(
      weights.begin(), weights.end(), [](float w) { return w != 1.0f; }));
}

// Apply's auto-compaction trigger: `fraction` of the base edge count,
// floored so tiny graphs still batch. A negative or NaN fraction counts
// as 0 and a product past the uint64_t range saturates, so the
// conversion is always defined.
uint64_t CompactionThreshold(double fraction, uint64_t base_edges) {
  const double scaled = fraction * static_cast<double>(base_edges);
  uint64_t limit = 0;
  if (scaled >= 18446744073709551616.0) {  // 2^64
    limit = UINT64_MAX;
  } else if (scaled > 0.0) {
    limit = static_cast<uint64_t>(scaled);
  }
  return std::max<uint64_t>(64, limit);
}

// A fresh CSR offset array: the base's offsets, shifted past each
// replaced row by that row's degree change. `rows` ascending; row i's
// replacement holds row_offsets[i+1] - row_offsets[i] entries.
std::vector<uint64_t> SpliceOffsets(std::span<const uint64_t> base,
                                    const std::vector<VertexId>& rows,
                                    const std::vector<uint64_t>& row_offsets) {
  std::vector<uint64_t> out(base.size());
  uint64_t shift = 0;  // modular: a shrinking row wraps, the sum is exact
  uint64_t v = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (; v <= rows[i]; ++v) out[v] = base[v] + shift;
    shift += (row_offsets[i + 1] - row_offsets[i]) -
             (base[rows[i] + 1] - base[rows[i]]);
  }
  for (; v < base.size(); ++v) out[v] = base[v] + shift;
  return out;
}

// A fresh CSR value array of `total` entries: the base's clean row
// ranges bulk-copied (or, for an empty `base`, filled with `fill`), with
// each replaced row's values spliced in place of its old ones.
template <typename T>
std::vector<T> SpliceValues(std::span<const uint64_t> base_offsets,
                            std::span<const T> base, T fill,
                            const std::vector<VertexId>& rows,
                            const std::vector<uint64_t>& row_offsets,
                            const std::vector<T>& row_values,
                            uint64_t total) {
  std::vector<T> out;
  out.reserve(total);
  uint64_t next = 0;  // first base slot not yet emitted
  const auto copy_clean = [&](uint64_t end) {
    if (base.empty()) {
      out.insert(out.end(), end - next, fill);
    } else {
      out.insert(out.end(), base.begin() + next, base.begin() + end);
    }
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    copy_clean(base_offsets[rows[i]]);
    out.insert(out.end(), row_values.begin() + row_offsets[i],
               row_values.begin() + row_offsets[i + 1]);
    next = base_offsets[rows[i] + 1];
  }
  copy_clean(base_offsets.back());
  assert(out.size() == total);
  return out;
}

Status OffendingEdge(const char* what, VertexId src, VertexId dst) {
  return Status::InvalidArgument(std::string(what) + " (" +
                                 std::to_string(src) + " -> " +
                                 std::to_string(dst) + ")");
}

// Assembles a canonical Graph from per-vertex (dst, weight) rows already
// in canonical order: builds the out CSR, derives the in CSR by a
// counting sort over targets in (src asc, slot) order — the same
// convention GraphBuilder and the CSR-native transforms use.
Graph GraphFromCanonicalRows(uint64_t v_count,
                             std::vector<uint64_t> out_offsets,
                             std::vector<VertexId> out_targets,
                             std::vector<float> out_weights) {
  const uint64_t e_count = out_targets.size();
  const bool weighted =
      std::any_of(out_weights.begin(), out_weights.end(),
                  [](float w) { return w != 1.0f; });
  if (!weighted) out_weights.clear();

  std::vector<uint64_t> in_offsets(v_count + 1, 0);
  for (const VertexId t : out_targets) in_offsets[t + 1]++;
  for (uint64_t v = 0; v < v_count; ++v) in_offsets[v + 1] += in_offsets[v];
  std::vector<VertexId> in_sources(e_count);
  std::vector<uint64_t> cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (uint64_t v = 0; v < v_count; ++v) {
    for (uint64_t s = out_offsets[v]; s < out_offsets[v + 1]; ++s) {
      in_sources[cursor[out_targets[s]]++] = static_cast<VertexId>(v);
    }
  }
  return Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                        std::move(out_weights), std::move(in_offsets),
                        std::move(in_sources));
}

}  // namespace

Graph EvolvingGraph::Canonicalize(Graph g) {
  g = Graph::WithPlainEdges(std::move(g));
  const uint64_t v_count = g.num_vertices();
  if (v_count == 0) return g;

  std::vector<uint64_t> out_offsets(g.out_offsets().begin(),
                                    g.out_offsets().end());
  std::vector<VertexId> out_targets(g.num_edges());
  std::vector<float> out_weights(g.num_edges(), 1.0f);
  std::vector<std::pair<VertexId, float>> row;
  for (uint64_t v = 0; v < v_count; ++v) {
    const auto targets = g.out_neighbors(static_cast<VertexId>(v));
    row.clear();
    for (size_t i = 0; i < targets.size(); ++i) {
      row.emplace_back(targets[i],
                       g.is_weighted()
                           ? g.out_weights(static_cast<VertexId>(v))[i]
                           : 1.0f);
    }
    std::sort(row.begin(), row.end(), CanonicalLess);
    uint64_t slot = out_offsets[v];
    for (const auto& [dst, w] : row) {
      out_targets[slot] = dst;
      out_weights[slot] = w;
      ++slot;
    }
  }
  return GraphFromCanonicalRows(v_count, std::move(out_offsets),
                                std::move(out_targets),
                                std::move(out_weights));
}

EvolvingGraph::EvolvingGraph(Graph base)
    : base_(Canonicalize(std::move(base))),
      base_fingerprint_sum_(base_.FingerprintSum()),
      base_non_unit_weights_(CountNonUnitWeights(base_.out_weights())),
      version_fp_(base_.EdgeSetHash()) {
  base_.StampVersion(base_fingerprint_sum_, nullptr);
}

uint64_t EvolvingGraph::SurvivingBaseCount(VertexId v, VertexId dst) const {
  const auto targets = base_.out_neighbors(v);
  const auto [lo, hi] = std::equal_range(targets.begin(), targets.end(), dst);
  uint64_t count = static_cast<uint64_t>(hi - lo);
  const auto it = overlay_.find(v);
  if (it != overlay_.end()) {
    const auto& removes = it->second.removes;
    const auto [rlo, rhi] =
        std::equal_range(removes.begin(), removes.end(), dst);
    count -= static_cast<uint64_t>(rhi - rlo);
  }
  return count;
}

uint64_t EvolvingGraph::out_degree(VertexId v) const {
  uint64_t degree = base_.out_degree(v);
  const auto it = overlay_.find(v);
  if (it != overlay_.end()) {
    degree += it->second.adds.size();
    degree -= it->second.removes.size();
  }
  return degree;
}

std::span<const VertexId> EvolvingGraph::OutNeighborsInto(
    VertexId v, std::vector<VertexId>* scratch) const {
  if (overlay_.find(v) == overlay_.end()) return base_.out_neighbors(v);
  scratch->clear();
  ForEachOutNeighbor(v, [&](VertexId dst) { scratch->push_back(dst); });
  return {scratch->data(), scratch->data() + scratch->size()};
}

Status EvolvingGraph::Apply(const EdgeDeltaBatch& batch) {
  const uint64_t v_count = num_vertices();

  // Validate the whole batch against the current version before touching
  // anything: replay it against per-vertex occurrence counters so a
  // delete may consume an insert earlier in the same batch, and a batch
  // over-deleting an edge (duplicate removal) is caught here.
  {
    // (src, dst) -> net occurrence delta within this batch.
    std::unordered_map<uint64_t, int64_t> net;
    const auto pack = [](VertexId s, VertexId d) {
      return (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(d);
    };
    for (const EdgeDelta& delta : batch) {
      if (delta.src >= v_count || delta.dst >= v_count) {
        return OffendingEdge(delta.op == EdgeDelta::Op::kInsert
                                 ? "edge insert references an unknown vertex"
                                 : "edge delete references an unknown vertex",
                             delta.src, delta.dst);
      }
      int64_t& n = net[pack(delta.src, delta.dst)];
      if (delta.op == EdgeDelta::Op::kInsert) {
        ++n;
        continue;
      }
      --n;
      const uint64_t existing =
          SurvivingBaseCount(delta.src, delta.dst) +
          [&]() -> uint64_t {
        const auto it = overlay_.find(delta.src);
        if (it == overlay_.end()) return 0;
        const auto& adds = it->second.adds;
        const auto lo = std::lower_bound(
            adds.begin(), adds.end(), delta.dst,
            [](const auto& a, VertexId d) { return a.first < d; });
        const auto hi = std::upper_bound(
            adds.begin(), adds.end(), delta.dst,
            [](VertexId d, const auto& a) { return d < a.first; });
        return static_cast<uint64_t>(hi - lo);
      }();
      if (static_cast<int64_t>(existing) + n < 0) {
        return OffendingEdge("delete of a non-existent edge", delta.src,
                             delta.dst);
      }
    }
  }

  // Apply. Deletes cancel a pending add for the same (src, dst) first
  // (most recent state), else consume a base occurrence.
  for (const EdgeDelta& delta : batch) {
    VertexDelta& vd = overlay_[delta.src];
    if (delta.op == EdgeDelta::Op::kInsert) {
      const std::pair<VertexId, float> entry{delta.dst, delta.weight};
      vd.adds.insert(std::upper_bound(vd.adds.begin(), vd.adds.end(), entry,
                                      CanonicalLess),
                     entry);
      ++overlay_entries_;
      ++edge_count_delta_;
      version_fp_ += Graph::EdgeHash(delta.src, delta.dst, delta.weight);
      continue;
    }
    // Delete: prefer cancelling a pending add (first add with this dst).
    const auto add_it = std::lower_bound(
        vd.adds.begin(), vd.adds.end(), delta.dst,
        [](const auto& a, VertexId d) { return a.first < d; });
    float removed_weight;
    if (add_it != vd.adds.end() && add_it->first == delta.dst) {
      removed_weight = add_it->second;
      vd.adds.erase(add_it);
      --overlay_entries_;
    } else {
      // Consume the next surviving base occurrence: its weight is the
      // (removes-so-far)-th occurrence of dst in the sorted base row.
      const auto targets = base_.out_neighbors(delta.src);
      const auto lo =
          std::lower_bound(targets.begin(), targets.end(), delta.dst);
      const auto [rlo, rhi] = std::equal_range(vd.removes.begin(),
                                               vd.removes.end(), delta.dst);
      const uint64_t prior = static_cast<uint64_t>(rhi - rlo);
      const uint64_t slot =
          static_cast<uint64_t>(lo - targets.begin()) + prior;
      removed_weight = base_.is_weighted()
                           ? base_.out_weights(delta.src)[slot]
                           : 1.0f;
      vd.removes.insert(rhi, delta.dst);
      ++overlay_entries_;
    }
    --edge_count_delta_;
    version_fp_ -= Graph::EdgeHash(delta.src, delta.dst, removed_weight);
    if (vd.adds.empty() && vd.removes.empty()) overlay_.erase(delta.src);
  }

  if (overlay_entries_ >
      CompactionThreshold(compaction_threshold_, base_.num_edges())) {
    return Compact();
  }
  return Status::OK();
}

Status EvolvingGraph::Compact() {
  if (!dirty()) return Status::OK();

  // Everything below builds the fresh CSR off to the side; the members
  // are not touched until the very end (strong exception safety — a
  // fault leaves the current version fully intact).
  //
  // 1. Merge the overlay's rows in ascending order, keeping the ones
  // whose content changed (a delete re-inserted at its old weight nets
  // out): the version's dirty set.
  std::vector<VertexId> overlay_rows;
  overlay_rows.reserve(overlay_.size());
  for (const auto& entry : overlay_) overlay_rows.push_back(entry.first);
  std::sort(overlay_rows.begin(), overlay_rows.end());
  std::vector<VertexId> dirty;
  std::vector<uint64_t> row_offsets{0};
  std::vector<VertexId> row_targets;
  std::vector<float> row_weights;
  uint64_t non_unit_weights = base_non_unit_weights_;
  for (const VertexId v : overlay_rows) {
    const size_t begin = row_targets.size();
    ForEachOutEdge(v, [&](VertexId dst, float w) {
      row_targets.push_back(dst);
      row_weights.push_back(w);
    });
    const std::span<const VertexId> old_targets = base_.out_neighbors(v);
    const std::span<const float> old_weights =
        base_.is_weighted() ? base_.out_weights(v) : std::span<const float>{};
    const std::span<const VertexId> new_targets(row_targets.data() + begin,
                                                row_targets.size() - begin);
    const std::span<const float> new_weights(row_weights.data() + begin,
                                             row_weights.size() - begin);
    if (std::equal(old_targets.begin(), old_targets.end(),
                   new_targets.begin(), new_targets.end()) &&
        SameRowWeights(old_weights, new_weights)) {
      row_targets.resize(begin);
      row_weights.resize(begin);
      continue;
    }
    dirty.push_back(v);
    row_offsets.push_back(row_targets.size());
    non_unit_weights += CountNonUnitWeights(new_weights);
    non_unit_weights -= CountNonUnitWeights(old_weights);
  }

  // 2. The in-rows those out-rows touch: per (target, source), the
  // change in multiplicity, from a merge of the sorted old and new rows.
  struct InChange {
    VertexId target;
    VertexId source;
    int64_t delta;
  };
  std::vector<InChange> changes;
  for (size_t i = 0; i < dirty.size(); ++i) {
    const std::span<const VertexId> a = base_.out_neighbors(dirty[i]);
    const std::span<const VertexId> b(row_targets.data() + row_offsets[i],
                                      row_offsets[i + 1] - row_offsets[i]);
    size_t ai = 0;
    size_t bi = 0;
    while (ai < a.size() || bi < b.size()) {
      const VertexId t = bi == b.size() || (ai < a.size() && a[ai] < b[bi])
                             ? a[ai]
                             : b[bi];
      int64_t delta = 0;
      for (; ai < a.size() && a[ai] == t; ++ai) --delta;
      for (; bi < b.size() && b[bi] == t; ++bi) ++delta;
      if (delta != 0) changes.push_back({t, dirty[i], delta});
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const InChange& x, const InChange& y) {
              return x.target != y.target ? x.target < y.target
                                          : x.source < y.source;
            });
  // Rebuild each touched in-row as a sorted source multiset — the order
  // the canonical in-CSR keeps (sources ascending, as a counting sort
  // over out-rows in vertex order emits them).
  std::vector<VertexId> in_rows;
  std::vector<uint64_t> in_row_offsets{0};
  std::vector<VertexId> in_row_sources;
  for (size_t c = 0; c < changes.size();) {
    const VertexId t = changes[c].target;
    const std::span<const VertexId> old_sources = base_.in_neighbors(t);
    size_t k = 0;
    while (k < old_sources.size() ||
           (c < changes.size() && changes[c].target == t)) {
      const bool change_next =
          c < changes.size() && changes[c].target == t &&
          (k == old_sources.size() || changes[c].source <= old_sources[k]);
      const VertexId s = change_next ? changes[c].source : old_sources[k];
      int64_t count = 0;
      for (; k < old_sources.size() && old_sources[k] == s; ++k) ++count;
      if (change_next) count += changes[c++].delta;
      assert(count >= 0);
      in_row_sources.insert(in_row_sources.end(), static_cast<size_t>(count),
                            s);
    }
    in_rows.push_back(t);
    in_row_offsets.push_back(in_row_sources.size());
  }

  // 3. Splice: bulk-copy the clean row ranges of the base arrays around
  // the replaced rows, then derive the fingerprint from the base's by
  // swapping only the dirty rows' terms.
  std::optional<Graph> fresh;
  uint64_t fingerprint_sum = base_fingerprint_sum_;
  if (!dirty.empty()) {
    const uint64_t e_count = num_edges();
    std::vector<float> out_weights;
    if (non_unit_weights != 0) {
      out_weights = SpliceValues(base_.out_offsets(), base_.out_weights(),
                                 1.0f, dirty, row_offsets, row_weights,
                                 e_count);
    }
    fresh = Graph::FromCsr(
        SpliceOffsets(base_.out_offsets(), dirty, row_offsets),
        SpliceValues(base_.out_offsets(), base_.out_targets(), VertexId{0},
                     dirty, row_offsets, row_targets, e_count),
        std::move(out_weights),
        SpliceOffsets(base_.in_offsets(), in_rows, in_row_offsets),
        SpliceValues(base_.in_offsets(), base_.in_sources(), VertexId{0},
                     in_rows, in_row_offsets, in_row_sources, e_count));
    for (const VertexId v : dirty) {
      fingerprint_sum += fresh->OutRowHash(v) - base_.OutRowHash(v);
    }
    assert(fresh->EdgeSetHash() == VersionFingerprint());
    fresh->StampVersion(fingerprint_sum,
                        std::make_shared<const GraphLineage>(GraphLineage{
                            base_.Fingerprint(), std::move(dirty)}));
  }

  // The fault point sits between building and installing: an injected
  // compaction fault can never leave a half-built CSR visible.
  {
    const Status faulted = [&]() -> Status {
      PREDICT_FAIL_POINT("graph.compact");
      return Status::OK();
    }();
    if (!faulted.ok()) return StatusAnnotate(faulted, "graph_compact");
  }

  // An overlay that nets out to no row change keeps the base (and its
  // lineage) as the current version.
  if (fresh.has_value()) {
    base_ = std::move(*fresh);
    base_fingerprint_sum_ = fingerprint_sum;
    base_non_unit_weights_ = non_unit_weights;
  }
  overlay_.clear();
  overlay_entries_ = 0;
  edge_count_delta_ = 0;
  return Status::OK();
}

Result<const Graph*> EvolvingGraph::Current() {
  if (dirty()) {
    const Status compacted = Compact();
    if (!compacted.ok()) return compacted;
  }
  return &base_;
}

Result<SubgraphResult> InducedSubgraph(const EvolvingGraph& graph,
                                       const std::vector<VertexId>& vertices) {
  // Mirrors transforms.cc's CSR-native InducedSubgraph, reading parent
  // adjacency through the merged view instead of a compacted CSR — the
  // outputs are byte-identical because both consume rows in canonical
  // order.
  const uint64_t v_count = graph.num_vertices();
  const uint64_t k = vertices.size();
  constexpr VertexId kAbsent = 0xFFFFFFFFu;

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

  std::vector<VertexId> out_targets(kept);
  std::vector<float> out_weights(kept);
  std::vector<VertexId> in_sources(kept);
  std::vector<uint64_t> in_cursor(in_offsets.begin(), in_offsets.end() - 1);
  bool any_weight = false;
  uint64_t out_slot = 0;
  for (uint64_t i = 0; i < k; ++i) {
    graph.ForEachOutEdge(vertices[i], [&](VertexId t, float w) {
      const VertexId j = new_id[t];
      if (j == kAbsent) return;
      out_targets[out_slot] = j;
      out_weights[out_slot] = w;
      any_weight |= w != 1.0f;
      ++out_slot;
      in_sources[in_cursor[j]++] = static_cast<VertexId>(i);
    });
  }
  if (!any_weight) out_weights.clear();

  SubgraphResult result;
  result.original_id = vertices;
  result.graph = Graph::FromCsr(std::move(out_offsets), std::move(out_targets),
                                std::move(out_weights), std::move(in_offsets),
                                std::move(in_sources));
  return result;
}

std::vector<VertexId> DirtyOutVertices(const Graph& before,
                                       const Graph& after) {
  std::vector<VertexId> dirty;
  const uint64_t nb = before.num_vertices();
  const uint64_t na = after.num_vertices();
  if (nb != na) {
    const uint64_t n = std::max(nb, na);
    dirty.resize(n);
    for (uint64_t v = 0; v < n; ++v) dirty[v] = static_cast<VertexId>(v);
    return dirty;
  }
  std::vector<VertexId> scratch_b;
  std::vector<VertexId> scratch_a;
  for (uint64_t v = 0; v < nb; ++v) {
    const VertexId id = static_cast<VertexId>(v);
    const auto tb = before.OutNeighborsInto(id, &scratch_b);
    const auto ta = after.OutNeighborsInto(id, &scratch_a);
    const bool differs =
        !std::equal(tb.begin(), tb.end(), ta.begin(), ta.end()) ||
        !SameRowWeights(
            before.is_weighted() ? before.out_weights(id)
                                 : std::span<const float>{},
            after.is_weighted() ? after.out_weights(id)
                                : std::span<const float>{});
    if (differs) dirty.push_back(id);
  }
  return dirty;
}

Result<EdgeDeltaBatch> GenerateChurn(const Graph& graph,
                                     const ChurnOptions& options) {
  const uint64_t v_count = graph.num_vertices();
  const uint64_t e_count = graph.num_edges();
  if (v_count < 2 || e_count == 0) {
    return Status::InvalidArgument("churn needs a non-trivial graph");
  }
  if (options.fraction < 0.0 || options.fraction > 1.0) {
    return Status::InvalidArgument("churn fraction must be in [0, 1]");
  }
  if (!options.avoid.empty() && options.avoid.size() != v_count) {
    return Status::InvalidArgument("avoid mask must have |V| entries");
  }
  const auto avoided = [&](VertexId v) {
    return !options.avoid.empty() && options.avoid[v] != 0;
  };

  const uint64_t total = static_cast<uint64_t>(
      options.fraction * static_cast<double>(e_count) + 0.5);
  const uint64_t want_deletes = total / 2;
  const uint64_t want_inserts = total - want_deletes;
  Rng rng(options.seed);

  // Existing (src, dst) pairs, for insert-collision rejection. Multiset
  // multiplicity is irrelevant: an insert colliding with ANY existing
  // pair is skipped so the batch stays unambiguous.
  std::unordered_map<uint64_t, uint64_t> present;  // pair -> multiplicity
  const auto pack = [](VertexId s, VertexId d) {
    return (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(d);
  };
  std::vector<std::pair<VertexId, VertexId>> deletable;
  std::vector<VertexId> scratch;
  for (uint64_t v = 0; v < v_count; ++v) {
    const VertexId src = static_cast<VertexId>(v);
    for (const VertexId dst : graph.OutNeighborsInto(src, &scratch)) {
      present[pack(src, dst)]++;
      if (!avoided(src) && !avoided(dst)) deletable.emplace_back(src, dst);
    }
  }

  EdgeDeltaBatch batch;
  batch.reserve(total);
  const uint64_t n_deletes = std::min<uint64_t>(want_deletes, deletable.size());
  for (const uint64_t idx :
       rng.SampleWithoutReplacement(deletable.size(), n_deletes)) {
    const auto [src, dst] = deletable[idx];
    batch.push_back(EdgeDelta::Delete(src, dst));
    // A parallel edge may appear several times in `deletable`; deleting
    // each occurrence once is valid (multiplicity covers them).
  }

  uint64_t inserted = 0;
  uint64_t attempts = 0;
  const uint64_t max_attempts = 64 * want_inserts + 1024;
  while (inserted < want_inserts && attempts < max_attempts) {
    ++attempts;
    const VertexId src = static_cast<VertexId>(rng.Uniform(v_count));
    const VertexId dst = static_cast<VertexId>(rng.Uniform(v_count));
    if (src == dst || avoided(src) || avoided(dst)) continue;
    uint64_t& mult = present[pack(src, dst)];
    if (mult != 0) continue;
    mult = 1;
    batch.push_back(EdgeDelta::Insert(src, dst));
    ++inserted;
  }
  return batch;
}

}  // namespace predict
