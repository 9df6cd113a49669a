#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace predict {

Graph::Graph(const Graph& other)
    : out_offsets_(other.out_offsets_),
      out_targets_(other.out_targets_),
      out_weights_(other.out_weights_),
      in_offsets_(other.in_offsets_),
      in_sources_(other.in_sources_),
      is_weighted_(other.is_weighted_),
      edges_compressed_(other.edges_compressed_),
      out_packed_(other.out_packed_),
      in_packed_(other.in_packed_),
      out_packed_offsets_(other.out_packed_offsets_),
      in_packed_offsets_(other.in_packed_offsets_),
      fingerprint_cache_(
          other.fingerprint_cache_.load(std::memory_order_relaxed)),
      lineage_(other.lineage_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  out_offsets_ = other.out_offsets_;
  out_targets_ = other.out_targets_;
  out_weights_ = other.out_weights_;
  in_offsets_ = other.in_offsets_;
  in_sources_ = other.in_sources_;
  is_weighted_ = other.is_weighted_;
  edges_compressed_ = other.edges_compressed_;
  out_packed_ = other.out_packed_;
  in_packed_ = other.in_packed_;
  out_packed_offsets_ = other.out_packed_offsets_;
  in_packed_offsets_ = other.in_packed_offsets_;
  fingerprint_cache_.store(
      other.fingerprint_cache_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  lineage_ = other.lineage_;
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : out_offsets_(std::move(other.out_offsets_)),
      out_targets_(std::move(other.out_targets_)),
      out_weights_(std::move(other.out_weights_)),
      in_offsets_(std::move(other.in_offsets_)),
      in_sources_(std::move(other.in_sources_)),
      is_weighted_(other.is_weighted_),
      edges_compressed_(other.edges_compressed_),
      out_packed_(std::move(other.out_packed_)),
      in_packed_(std::move(other.in_packed_)),
      out_packed_offsets_(std::move(other.out_packed_offsets_)),
      in_packed_offsets_(std::move(other.in_packed_offsets_)),
      fingerprint_cache_(
          other.fingerprint_cache_.load(std::memory_order_relaxed)),
      lineage_(std::move(other.lineage_)) {
  other.edges_compressed_ = false;
  other.fingerprint_cache_.store(0, std::memory_order_relaxed);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  out_offsets_ = std::move(other.out_offsets_);
  out_targets_ = std::move(other.out_targets_);
  out_weights_ = std::move(other.out_weights_);
  in_offsets_ = std::move(other.in_offsets_);
  in_sources_ = std::move(other.in_sources_);
  is_weighted_ = other.is_weighted_;
  edges_compressed_ = other.edges_compressed_;
  out_packed_ = std::move(other.out_packed_);
  in_packed_ = std::move(other.in_packed_);
  out_packed_offsets_ = std::move(other.out_packed_offsets_);
  in_packed_offsets_ = std::move(other.in_packed_offsets_);
  fingerprint_cache_.store(
      other.fingerprint_cache_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  lineage_ = std::move(other.lineage_);
  other.edges_compressed_ = false;
  other.fingerprint_cache_.store(0, std::memory_order_relaxed);
  return *this;
}

Result<Graph> Graph::FromEdges(VertexId num_vertices,
                               const std::vector<Edge>& edges) {
  GraphBuilder builder(num_vertices);
  builder.AddEdges(edges);  // one sized allocation + copy
  return builder.Build();
}

Result<Graph> Graph::FromEdges(VertexId num_vertices,
                               std::vector<Edge>&& edges) {
  GraphBuilder builder(num_vertices);
  builder.AddEdges(std::move(edges));
  return builder.Build();
}

Graph Graph::FromCsr(std::vector<uint64_t> out_offsets,
                     std::vector<VertexId> out_targets,
                     std::vector<float> out_weights,
                     std::vector<uint64_t> in_offsets,
                     std::vector<VertexId> in_sources) {
  assert(!out_offsets.empty() && out_offsets.size() == in_offsets.size());
  assert(out_offsets.front() == 0 && in_offsets.front() == 0);
  assert(out_offsets.back() == out_targets.size());
  assert(in_offsets.back() == in_sources.size());
  assert(out_targets.size() == in_sources.size());
  assert(out_weights.empty() || out_weights.size() == out_targets.size());
#ifndef NDEBUG
  const uint64_t v_count = out_offsets.size() - 1;
  for (uint64_t v = 0; v < v_count; ++v) {
    assert(out_offsets[v] <= out_offsets[v + 1]);
    assert(in_offsets[v] <= in_offsets[v + 1]);
  }
  for (const VertexId t : out_targets) assert(t < v_count);
  for (const VertexId s : in_sources) assert(s < v_count);
#endif
  Graph g;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  g.out_weights_ = std::move(out_weights);
  g.in_offsets_ = std::move(in_offsets);
  g.in_sources_ = std::move(in_sources);
  g.is_weighted_ = !g.out_weights_.empty();
  return g;
}

Graph Graph::WithCompressedEdges(Graph g) {
  g.CompressEdgesInPlace();
  return g;
}

Graph Graph::WithPlainEdges(Graph g) {
  g.DecompressEdgesInPlace();
  return g;
}

namespace {

// Re-encodes one adjacency direction as per-vertex varint/delta streams.
// Deltas reset per vertex (prev = 0 at each list head) so any single
// vertex's list can be decoded without touching its neighbors' bytes.
void PackDirection(uint64_t v_count, const std::vector<uint64_t>& offsets,
                   std::vector<VertexId>* ids, std::vector<uint8_t>* packed,
                   std::vector<uint32_t>* packed_offsets) {
  packed->clear();
  packed->reserve(ids->size() * 2);
  packed_offsets->assign(v_count + 1, 0);
  for (uint64_t v = 0; v < v_count; ++v) {
    (*packed_offsets)[v] = static_cast<uint32_t>(packed->size());
    uint32_t prev = 0;
    varint::AppendDeltaList(
        std::span<const VertexId>(ids->data() + offsets[v],
                                  ids->data() + offsets[v + 1]),
        &prev, packed);
  }
  assert(packed->size() < (1ULL << 32));
  (*packed_offsets)[v_count] = static_cast<uint32_t>(packed->size());
  packed->shrink_to_fit();
  ids->clear();
  ids->shrink_to_fit();
}

void UnpackDirection(uint64_t v_count, const std::vector<uint64_t>& offsets,
                     std::vector<uint8_t>* packed,
                     std::vector<uint32_t>* packed_offsets,
                     std::vector<VertexId>* ids) {
  ids->resize(offsets.empty() ? 0 : offsets.back());
  for (uint64_t v = 0; v < v_count; ++v) {
    const uint8_t* p = packed->data() + (*packed_offsets)[v];
    uint32_t prev = 0;
    VertexId* out = ids->data() + offsets[v];
    uint64_t count = offsets[v + 1] - offsets[v];
    while (count != 0) {
      const size_t n = count < varint::kDecodeBlock
                           ? static_cast<size_t>(count)
                           : varint::kDecodeBlock;
      p = varint::DecodeDeltaBlock(p, n, &prev, out);
      out += n;
      count -= n;
    }
  }
  packed->clear();
  packed->shrink_to_fit();
  packed_offsets->clear();
  packed_offsets->shrink_to_fit();
}

}  // namespace

void Graph::CompressEdgesInPlace() {
  if (edges_compressed_) return;
  const uint64_t v_count = num_vertices();
  PackDirection(v_count, out_offsets_, &out_targets_, &out_packed_,
                &out_packed_offsets_);
  PackDirection(v_count, in_offsets_, &in_sources_, &in_packed_,
                &in_packed_offsets_);
  edges_compressed_ = true;
}

void Graph::DecompressEdgesInPlace() {
  if (!edges_compressed_) return;
  const uint64_t v_count = num_vertices();
  UnpackDirection(v_count, out_offsets_, &out_packed_, &out_packed_offsets_,
                  &out_targets_);
  UnpackDirection(v_count, in_offsets_, &in_packed_, &in_packed_offsets_,
                  &in_sources_);
  edges_compressed_ = false;
}

std::vector<Edge> Graph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    uint64_t slot = out_offsets_[v];
    ForEachOutNeighbor(v, [&](VertexId t) {
      edges.push_back({v, t, is_weighted_ ? out_weights_[slot] : 1.0f});
      ++slot;
    });
  }
  return edges;
}

uint64_t Graph::MemoryFootprintBytes() const {
  uint64_t bytes = 0;
  bytes += out_offsets_.size() * sizeof(uint64_t);
  bytes += out_targets_.size() * sizeof(VertexId);
  bytes += out_weights_.size() * sizeof(float);
  bytes += in_offsets_.size() * sizeof(uint64_t);
  bytes += in_sources_.size() * sizeof(VertexId);
  bytes += out_packed_.size() + in_packed_.size();
  bytes += out_packed_offsets_.size() * sizeof(uint32_t);
  bytes += in_packed_offsets_.size() * sizeof(uint32_t);
  return bytes;
}

uint64_t Graph::EdgeStorageBytes() const {
  if (!edges_compressed_) {
    return (out_targets_.size() + in_sources_.size()) * sizeof(VertexId);
  }
  return out_packed_.size() + in_packed_.size() +
         (out_packed_offsets_.size() + in_packed_offsets_.size()) *
             sizeof(uint32_t);
}

namespace {

// splitmix64 finalizer: the mixer behind the row hashes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Folds one (target << 32 | weight bits) edge word into a row hash: a
// multiply and a shift per edge, order-sensitive.
inline uint64_t FoldEdge(uint64_t h, VertexId target, uint32_t wbits) {
  h = (h ^ ((static_cast<uint64_t>(target) << 32) | wbits)) *
      0x9FB21C651E98DF25ULL;
  return h ^ (h >> 32);
}

// One out-row's fingerprint summand: the vertex id seeds the state, each
// edge folds in as one word, and the degree is mixed into the finalizer.
// `weights` is null for unweighted rows, which hash weight 1.0 — so a
// row's hash does not depend on whether other rows carry weights.
inline uint64_t RowHash(uint64_t v, const VertexId* targets,
                        const float* weights, uint64_t degree) {
  uint64_t h = Mix64(v ^ 0x2545F4914F6CDD1DULL);
  if (weights == nullptr) {
    constexpr uint32_t kUnitWeightBits = 0x3F800000u;  // bits of 1.0f
    for (uint64_t i = 0; i < degree; ++i) {
      h = FoldEdge(h, targets[i], kUnitWeightBits);
    }
  } else {
    for (uint64_t i = 0; i < degree; ++i) {
      uint32_t wbits;
      std::memcpy(&wbits, &weights[i], sizeof(wbits));
      h = FoldEdge(h, targets[i], wbits);
    }
  }
  return Mix64(h ^ degree);
}

// Process-wide count of full-CSR fingerprint scans; lets tests assert
// the memoization contract ("hashed exactly once per Graph").
std::atomic<uint64_t> g_fingerprint_computations{0};

}  // namespace

uint64_t Graph::OutRowHash(VertexId v) const {
  assert(!edges_compressed_);
  const uint64_t begin = out_offsets_[v];
  return RowHash(v, out_targets_.data() + begin,
                 is_weighted_ ? out_weights_.data() + begin : nullptr,
                 out_offsets_[v + 1] - begin);
}

uint64_t Graph::FingerprintSum() const {
  g_fingerprint_computations.fetch_add(1, std::memory_order_relaxed);
  const uint64_t v_count = num_vertices();
  uint64_t sum = Mix64(v_count ^ 0x8A5CD789635D2DFFULL);
  std::vector<VertexId> scratch;
  for (uint64_t v = 0; v < v_count; ++v) {
    // Compressed rows hash their decoded targets, so plain and
    // compressed copies of one structure hash equal.
    const auto targets = OutNeighborsInto(static_cast<VertexId>(v), &scratch);
    sum += RowHash(v, targets.data(),
                   is_weighted_ ? out_weights_.data() + out_offsets_[v]
                                : nullptr,
                   targets.size());
  }
  return sum;
}

uint64_t Graph::Fingerprint() const {
  const uint64_t cached = fingerprint_cache_.load(std::memory_order_relaxed);
  if (cached != 0) return cached;
  const uint64_t sum = FingerprintSum();
  const uint64_t hash = sum == 0 ? 1 : sum;
  // Benign race: concurrent first callers compute the same content hash
  // and store the same value.
  fingerprint_cache_.store(hash, std::memory_order_relaxed);
  return hash;
}

void Graph::StampVersion(uint64_t fingerprint_sum,
                         std::shared_ptr<const GraphLineage> lineage) {
  fingerprint_cache_.store(fingerprint_sum == 0 ? 1 : fingerprint_sum,
                           std::memory_order_relaxed);
  lineage_ = std::move(lineage);
}

uint64_t Graph::FingerprintComputationsForTest() {
  return g_fingerprint_computations.load(std::memory_order_relaxed);
}

std::string Graph::ToString() const {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "Graph(|V|=%llu, |E|=%llu%s%s)",
                static_cast<unsigned long long>(num_vertices()),
                static_cast<unsigned long long>(num_edges()),
                is_weighted_ ? ", weighted" : "",
                edges_compressed_ ? ", compressed" : "");
  return buf;
}

Result<Graph> GraphBuilder::Build() {
  // Validate endpoints.
  for (const Edge& e : edges_) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.src) + " -> " + std::to_string(e.dst) +
          ") references a vertex >= num_vertices=" +
          std::to_string(num_vertices_));
    }
  }

  if (drop_self_loops_) {
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [](const Edge& e) { return e.src == e.dst; }),
                 edges_.end());
  }

  if (dedup_parallel_edges_ && !edges_.empty()) {
    // Counting sort by src (stable), then sort + dedup each per-source
    // bucket by dst. Replaces the former O(E log E) whole-list comparator
    // sort with O(E + sum_b |b| log |b|) work, and makes the documented
    // "first weight wins" contract deterministic: the stable bucket pass
    // keeps, among parallel edges, the one added to the builder first.
    std::vector<uint64_t> offsets(num_vertices_ + 1, 0);
    for (const Edge& e : edges_) offsets[e.src + 1]++;
    for (VertexId v = 0; v < num_vertices_; ++v) offsets[v + 1] += offsets[v];
    std::vector<Edge> sorted(edges_.size());
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : edges_) sorted[cursor[e.src]++] = e;
    uint64_t write = 0;
    for (VertexId v = 0; v < num_vertices_; ++v) {
      const auto begin = sorted.begin() + static_cast<int64_t>(offsets[v]);
      const auto end = sorted.begin() + static_cast<int64_t>(offsets[v + 1]);
      std::stable_sort(begin, end, [](const Edge& a, const Edge& b) {
        return a.dst < b.dst;
      });
      for (auto it = begin; it != end; ++it) {
        if (it != begin && it->dst == (it - 1)->dst) continue;
        sorted[write++] = *it;
      }
    }
    sorted.resize(write);
    edges_ = std::move(sorted);
  }

  Graph g;
  const uint64_t v_count = num_vertices_;
  const uint64_t e_count = edges_.size();

  g.is_weighted_ =
      std::any_of(edges_.begin(), edges_.end(),
                  [](const Edge& e) { return e.weight != 1.0f; });

  // Counting sort into CSR; the cursor scratch is sized once and reused
  // for both adjacency directions.
  std::vector<uint64_t> cursor;
  cursor.reserve(v_count);

  // Out direction.
  g.out_offsets_.assign(v_count + 1, 0);
  for (const Edge& e : edges_) g.out_offsets_[e.src + 1]++;
  for (uint64_t v = 0; v < v_count; ++v) g.out_offsets_[v + 1] += g.out_offsets_[v];
  g.out_targets_.resize(e_count);
  if (g.is_weighted_) g.out_weights_.resize(e_count);
  cursor.assign(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
  for (const Edge& e : edges_) {
    const uint64_t slot = cursor[e.src]++;
    g.out_targets_[slot] = e.dst;
    if (g.is_weighted_) g.out_weights_[slot] = e.weight;
  }

  // In direction.
  g.in_offsets_.assign(v_count + 1, 0);
  for (const Edge& e : edges_) g.in_offsets_[e.dst + 1]++;
  for (uint64_t v = 0; v < v_count; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_sources_.resize(e_count);
  cursor.assign(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Edge& e : edges_) g.in_sources_[cursor[e.dst]++] = e.src;

  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace predict
