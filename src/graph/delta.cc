#include "graph/delta.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>
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

// Splices replaced rows into one CSR side in place. `rows` ascending;
// row i's new entries are [row_offsets[i], row_offsets[i+1]) of
// `row_ids` and, when `weights` is non-null, of `row_weights`; the
// arrays' capacity must already hold the new size. Only the clean ranges
// whose offsets shift move: right shifts right to left, then left shifts
// left to right, so a range lands only on its own old slots, on replaced
// rows' slots or on slots a range already left.
void SpliceSide(std::vector<uint64_t>& offsets, std::span<const VertexId> rows,
                std::span<const uint64_t> row_offsets,
                std::vector<VertexId>& ids, std::span<const VertexId> row_ids,
                std::vector<float>* weights,
                std::span<const float> row_weights) {
  const size_t n = rows.size();
  // Replaced row i's size change, from the old offsets.
  const auto change = [&](size_t i) {
    return static_cast<int64_t>(row_offsets[i + 1] - row_offsets[i]) -
           static_cast<int64_t>(offsets[rows[i] + 1] - offsets[rows[i]]);
  };
  int64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += change(i);
  const uint64_t old_size = offsets.back();
  const auto splice = [&](auto& values, auto row_values) {
    constexpr size_t kBytes = sizeof(values[0]);
    values.resize(std::max<uint64_t>(old_size, old_size + total));
    const auto move_range = [&](size_t i, int64_t shift) {  // after row i
      const uint64_t begin = offsets[rows[i] + 1];
      const uint64_t end = i + 1 < n ? offsets[rows[i + 1]] : old_size;
      if (begin == end) return;  // memmove needs non-null pointers
      std::memmove(values.data() + begin + shift, values.data() + begin,
                   (end - begin) * kBytes);
    };
    int64_t shift = total;
    for (size_t i = n; i-- > 0; shift -= change(i)) {
      if (shift > 0) move_range(i, shift);
    }
    for (size_t i = 0; i < n; ++i) {
      shift += change(i);
      if (shift < 0) move_range(i, shift);
    }
    // Row i lands at its old start plus the size change of the rows
    // before it.
    shift = 0;
    for (size_t i = 0; i < n; shift += change(i++)) {
      const uint64_t count = row_offsets[i + 1] - row_offsets[i];
      if (count == 0) continue;  // memcpy needs non-null pointers
      std::memcpy(values.data() + offsets[rows[i]] + shift,
                  row_values.data() + row_offsets[i], count * kBytes);
    }
    values.resize(old_size + total);
  };
  splice(ids, row_ids);
  if (weights != nullptr) splice(*weights, row_weights);
  // Back to front, so change(i) still reads row i's old offsets.
  int64_t shift = total;
  for (size_t i = n; i-- > 0;) {
    const int64_t row_change = change(i);
    const uint64_t last = i + 1 < n ? rows[i + 1] : offsets.size() - 1;
    for (uint64_t v = rows[i] + uint64_t{1}; shift != 0 && v <= last; ++v) {
      offsets[v] += shift;
    }
    shift -= row_change;
  }
}

Status OffendingEdge(const char* what, VertexId src, VertexId dst) {
  return Status::InvalidArgument(std::string(what) + " (" +
                                 std::to_string(src) + " -> " +
                                 std::to_string(dst) + ")");
}

}  // namespace

// Out-rows sorted by (dst, weight bits); in-rows rebuilt by a counting
// sort over targets in (src asc, slot) order, the convention GraphBuilder
// and the CSR-native transforms use.
Graph EvolvingGraph::Canonicalize(Graph g) {
  g = Graph::WithPlainEdges(std::move(g));
  const uint64_t v_count = g.num_vertices();
  const uint64_t e_count = g.num_edges();
  if (v_count == 0) return g;

  std::vector<uint64_t> out_offsets(g.out_offsets().begin(),
                                    g.out_offsets().end());
  std::vector<VertexId> out_targets(e_count);
  std::vector<float> out_weights(e_count, 1.0f);
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
      out_weights[slot++] = w;
    }
  }
  if (CountNonUnitWeights(out_weights) == 0) out_weights.clear();

  std::vector<uint64_t> in_offsets(g.in_offsets().begin(),  // same degrees
                                   g.in_offsets().end());
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

EvolvingGraph::EvolvingGraph(Graph base)
    : current_(Canonicalize(std::move(base))),
      fingerprint_sum_(current_.FingerprintSum()),
      non_unit_weights_(CountNonUnitWeights(current_.out_weights())) {
  current_.StampVersion(fingerprint_sum_, nullptr);
}

Status EvolvingGraph::Apply(const EdgeDeltaBatch& batch) {
  const uint64_t v_count = num_vertices();
  for (const EdgeDelta& delta : batch) {
    if (delta.src >= v_count || delta.dst >= v_count) {
      return OffendingEdge(delta.op == EdgeDelta::Op::kInsert
                               ? "edge insert references an unknown vertex"
                               : "edge delete references an unknown vertex",
                           delta.src, delta.dst);
    }
  }

  // Steps 1 and 2 work off to the side, and every check, the fail point
  // and every allocation come before step 3 writes its first byte, so
  // any error leaves the current version as it was.
  //
  // 1. Visit the touched out-rows in ascending order and replay each
  // one's operations, in batch order, on a copy of the row. Keep the
  // rows whose content changed (a delete re-inserted at its old weight
  // nets out): the version's dirty set.
  std::vector<size_t> order(batch.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return batch[a].src < batch[b].src;
  });
  std::vector<VertexId> dirty;
  std::vector<uint64_t> row_offsets{0};
  std::vector<VertexId> row_targets;
  std::vector<float> row_weights;
  uint64_t e_count = current_.num_edges();  // modular: the sum is exact
  uint64_t non_unit_weights = non_unit_weights_;
  std::vector<std::pair<VertexId, float>> row;
  for (size_t i = 0; i < order.size();) {
    const VertexId v = batch[order[i]].src;
    const std::span<const VertexId> old_targets = current_.out_neighbors(v);
    const std::span<const float> old_weights =
        current_.is_weighted() ? current_.out_weights(v)
                               : std::span<const float>{};
    row.clear();
    for (size_t k = 0; k < old_targets.size(); ++k) {
      row.emplace_back(old_targets[k],
                       old_weights.empty() ? 1.0f : old_weights[k]);
    }
    for (; i < order.size() && batch[order[i]].src == v; ++i) {
      const EdgeDelta& delta = batch[order[i]];
      if (delta.op == EdgeDelta::Op::kInsert) {
        const std::pair<VertexId, float> entry{delta.dst, delta.weight};
        row.insert(std::upper_bound(row.begin(), row.end(), entry,
                                    CanonicalLess),
                   entry);
        continue;
      }
      // A delete removes the first (dst, *) edge in canonical order: the
      // one with the lowest weight bits.
      const auto it = std::lower_bound(
          row.begin(), row.end(), delta.dst,
          [](const auto& e, VertexId d) { return e.first < d; });
      if (it == row.end() || it->first != delta.dst) {
        return OffendingEdge("delete of a non-existent edge", delta.src,
                             delta.dst);
      }
      row.erase(it);
    }
    const size_t begin = row_targets.size();
    for (const auto& [dst, w] : row) {
      row_targets.push_back(dst);
      row_weights.push_back(w);
    }
    const std::span<const VertexId> new_targets(row_targets.data() + begin,
                                                row.size());
    const std::span<const float> new_weights(row_weights.data() + begin,
                                             row.size());
    if (std::equal(old_targets.begin(), old_targets.end(),
                   new_targets.begin(), new_targets.end()) &&
        SameRowWeights(old_weights, new_weights)) {
      row_targets.resize(begin);
      row_weights.resize(begin);
      continue;
    }
    dirty.push_back(v);
    row_offsets.push_back(row_targets.size());
    e_count += new_targets.size() - old_targets.size();
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
    const std::span<const VertexId> a = current_.out_neighbors(dirty[i]);
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
    const std::span<const VertexId> old_sources = current_.in_neighbors(t);
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

  // The fault point: after every check, before step 3 allocates or writes.
  {
    const Status faulted = [&]() -> Status {
      PREDICT_FAIL_POINT("graph.compact");
      return Status::OK();
    }();
    if (!faulted.ok()) return StatusAnnotate(faulted, "graph_compact");
  }
  // A batch that changes no row keeps the current version (and its
  // lineage).
  if (dirty.empty()) return Status::OK();

  // 3. Splice the next version into current_'s own arrays. First every
  // allocation (geometric capacity for the arrays that grow, so a growing
  // stream copies |E| O(log E) times) and the old fingerprint terms.
  Graph& g = current_;
  const bool weighted = non_unit_weights != 0;
  const uint64_t slots = std::max(g.num_edges(), e_count);
  const auto reserve = [slots](auto& v) {
    if (v.capacity() < slots) v.reserve(std::max(slots, 2 * v.capacity()));
  };
  reserve(g.out_targets_);
  reserve(g.in_sources_);
  if (weighted) reserve(g.out_weights_);
  auto lineage = std::make_shared<const GraphLineage>(
      GraphLineage{g.Fingerprint(), std::move(dirty)});
  const std::vector<VertexId>& rows = lineage->dirty;
  uint64_t fingerprint_sum = fingerprint_sum_;
  for (const VertexId v : rows) fingerprint_sum -= g.OutRowHash(v);

  // Nothing below allocates or fails. A graph turning weighted fills
  // its old weights with 1.0 first, O(E).
  if (!weighted) {
    g.out_weights_ = std::vector<float>();
  } else if (!g.is_weighted_) {
    g.out_weights_.assign(g.num_edges(), 1.0f);
  }
  g.is_weighted_ = weighted;
  SpliceSide(g.out_offsets_, rows, row_offsets, g.out_targets_, row_targets,
             weighted ? &g.out_weights_ : nullptr, row_weights);
  SpliceSide(g.in_offsets_, in_rows, in_row_offsets, g.in_sources_,
             in_row_sources, nullptr, {});
  for (const VertexId v : rows) fingerprint_sum += g.OutRowHash(v);
  g.StampVersion(fingerprint_sum, std::move(lineage));
  fingerprint_sum_ = fingerprint_sum;
  non_unit_weights_ = non_unit_weights;
  return Status::OK();
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
