#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.h"

namespace predict {

namespace {

// Common state for the random-walk family: tracks picked vertices in
// insertion order, stops when the target count is reached. Vertex ids
// are compact [0, |V|), so membership is a dense byte bitmap — every
// walk step costs a branch + store instead of a hash probe.
class PickSet {
 public:
  PickSet(uint64_t num_vertices, uint64_t target)
      : target_(target), in_set_(num_vertices, 0) {
    order_.reserve(target);
  }

  // Returns true if v was newly added.
  bool Add(VertexId v) {
    if (in_set_[v]) return false;
    in_set_[v] = 1;
    order_.push_back(v);
    return true;
  }

  bool Contains(VertexId v) const { return in_set_[v] != 0; }
  bool Done() const { return order_.size() >= target_; }
  std::vector<VertexId>& order() { return order_; }

 private:
  uint64_t target_;
  std::vector<uint8_t> in_set_;
  std::vector<VertexId> order_;
};

// One random-walk step along an outgoing edge; returns false if the
// current vertex has no outgoing edges (walk must restart). `scratch`
// backs the adjacency decode on compressed graphs (unused on plain).
bool Step(const Graph& graph, Rng& rng, std::vector<VertexId>& scratch,
          VertexId& current) {
  const auto targets = graph.OutNeighborsInto(current, &scratch);
  if (targets.empty()) return false;
  current = targets[rng.Uniform(targets.size())];
  return true;
}

std::vector<VertexId> TopOutDegreeSeeds(const Graph& graph, uint64_t k) {
  std::vector<VertexId> vertices(graph.num_vertices());
  std::iota(vertices.begin(), vertices.end(), 0);
  k = std::min<uint64_t>(k, vertices.size());
  std::partial_sort(vertices.begin(), vertices.begin() + k, vertices.end(),
                    [&](VertexId a, VertexId b) {
                      const uint64_t da = graph.out_degree(a);
                      const uint64_t db = graph.out_degree(b);
                      return da != db ? da > db : a < b;  // deterministic ties
                    });
  vertices.resize(k);
  return vertices;
}

// RJ and BRJ share the jump-walk skeleton; they differ only in how a
// restart vertex is chosen.
template <typename RestartFn>
std::vector<VertexId> JumpWalk(const Graph& graph, const SamplerOptions& options,
                               uint64_t target, RestartFn restart) {
  Rng rng(options.seed);
  PickSet picks(graph.num_vertices(), target);
  std::vector<VertexId> scratch;
  VertexId current = restart(rng);
  picks.Add(current);
  // Guard against pathological graphs (e.g. no outgoing edges anywhere):
  // cap total steps at a generous multiple of the target.
  const uint64_t max_steps = 200 * target + 1000;
  uint64_t steps = 0;
  while (!picks.Done() && steps < max_steps) {
    ++steps;
    if (rng.NextBool(options.jump_probability) ||
        !Step(graph, rng, scratch, current)) {
      current = restart(rng);
    }
    picks.Add(current);
  }
  // Degenerate structures may starve the walk (§3.5 limitations); fill the
  // remainder uniformly so the requested ratio is honored.
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(rng.Uniform(graph.num_vertices())));
  }
  return std::move(picks.order());
}

std::vector<VertexId> RunRandomJump(const Graph& graph,
                                    const SamplerOptions& options,
                                    uint64_t target) {
  const uint64_t n = graph.num_vertices();
  return JumpWalk(graph, options, target, [n](Rng& rng) {
    return static_cast<VertexId>(rng.Uniform(n));
  });
}

// --- Segmented walks (walk_segment_steps > 0, RJ/BRJ only) ---
//
// The classic JumpWalk is one sequential RNG stream: any divergence
// cascades through the rest of the walk, so nothing survives a graph
// mutation. Segmented mode chops the walk into fixed-length segments,
// segment i drawing from the independent stream Rng(seed).Fork(i). A
// segment's trajectory then depends only on the out-rows of the vertices
// it visits — the invariant ResampleIncremental's splicing rests on.

// Stream id for the uniform remainder fill; far above any segment index.
constexpr uint64_t kFillStream = ~uint64_t{0};

// Walks exactly walk_segment_steps steps (plus the starting restart),
// appending every visited vertex to *trajectory.
template <typename RestartFn>
void WalkSegment(const Graph& graph, const SamplerOptions& options,
                 uint64_t segment, RestartFn&& restart,
                 std::vector<VertexId>* trajectory) {
  Rng rng = Rng(options.seed).Fork(segment);
  std::vector<VertexId> scratch;
  VertexId current = restart(rng);
  trajectory->push_back(current);
  for (uint64_t s = 0; s < options.walk_segment_steps; ++s) {
    if (rng.NextBool(options.jump_probability) ||
        !Step(graph, rng, scratch, current)) {
      current = restart(rng);
    }
    trajectory->push_back(current);
  }
}

// Composes segments in order, adding trajectory vertices to the pick set
// until the target is reached; generates segment i only while the step
// budget (the classic walk's max_steps cap) allows. Records full
// trajectories when `record` is non-null.
template <typename RestartFn>
std::vector<VertexId> RunSegmented(const Graph& graph,
                                   const SamplerOptions& options,
                                   uint64_t target, RestartFn restart,
                                   SampleWalkRecord* record) {
  const uint64_t n = graph.num_vertices();
  const uint64_t segment_steps = options.walk_segment_steps;
  const uint64_t max_steps = 200 * target + 1000;
  PickSet picks(n, target);
  std::vector<VertexId> visits;
  std::vector<uint64_t> offsets{0};
  for (uint64_t i = 0; !picks.Done() && i * segment_steps < max_steps; ++i) {
    const size_t begin = visits.size();
    WalkSegment(graph, options, i, restart, &visits);
    offsets.push_back(visits.size());
    for (size_t p = begin; p < visits.size() && !picks.Done(); ++p) {
      picks.Add(visits[p]);
    }
  }
  Rng fill = Rng(options.seed).Fork(kFillStream);
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(fill.Uniform(n)));
  }
  if (record != nullptr) {
    record->segment_offsets = std::move(offsets);
    record->touched.assign(n, 0);
    for (const VertexId v : visits) record->touched[v] = 1;
    record->visits = std::move(visits);
  }
  return std::move(picks.order());
}

std::vector<VertexId> BrjSeeds(const Graph& graph,
                               const SamplerOptions& options) {
  const uint64_t k = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.seed_fraction *
                          static_cast<double>(graph.num_vertices()))));
  return TopOutDegreeSeeds(graph, k);
}

// Dispatches a segmented RJ/BRJ run; `record`, when non-null, also
// receives the BRJ seed set.
Result<std::vector<VertexId>> RunSegmentedKind(const Graph& graph,
                                               const SamplerOptions& options,
                                               uint64_t target,
                                               SampleWalkRecord* record) {
  const uint64_t n = graph.num_vertices();
  switch (options.kind) {
    case SamplerKind::kRandomJump:
      return RunSegmented(
          graph, options, target,
          [n](Rng& rng) { return static_cast<VertexId>(rng.Uniform(n)); },
          record);
    case SamplerKind::kBiasedRandomJump: {
      const std::vector<VertexId> seeds = BrjSeeds(graph, options);
      auto picked = RunSegmented(
          graph, options, target,
          [&seeds](Rng& rng) { return seeds[rng.Uniform(seeds.size())]; },
          record);
      if (record != nullptr) record->brj_seeds = seeds;
      return picked;
    }
    default:
      return Status::InvalidArgument(
          "walk_segment_steps requires the RJ or BRJ sampler");
  }
}

std::vector<VertexId> RunBiasedRandomJump(const Graph& graph,
                                          const SamplerOptions& options,
                                          uint64_t target) {
  const std::vector<VertexId> seeds = BrjSeeds(graph, options);
  return JumpWalk(graph, options, target, [&seeds](Rng& rng) {
    return seeds[rng.Uniform(seeds.size())];
  });
}

// Undirected degree used by MHRW's acceptance ratio.
uint64_t UndirectedDegree(const Graph& graph, VertexId v) {
  return graph.out_degree(v) + graph.in_degree(v);
}

// One undirected neighbor pick (walks ignore direction, as in Gjoka et al.).
bool UndirectedStep(const Graph& graph, Rng& rng,
                    std::vector<VertexId>& out_scratch,
                    std::vector<VertexId>& in_scratch, VertexId& current) {
  const uint64_t out_degree = graph.out_degree(current);
  const uint64_t degree = out_degree + graph.in_degree(current);
  if (degree == 0) return false;
  const uint64_t pick = rng.Uniform(degree);
  current = pick < out_degree
                ? graph.OutNeighborsInto(current, &out_scratch)[pick]
                : graph.InSourcesInto(current, &in_scratch)[pick - out_degree];
  return true;
}

std::vector<VertexId> RunMetropolisHastings(const Graph& graph,
                                            const SamplerOptions& options,
                                            uint64_t target) {
  const uint64_t n = graph.num_vertices();
  Rng rng(options.seed);
  PickSet picks(graph.num_vertices(), target);
  std::vector<VertexId> out_scratch, in_scratch;
  VertexId current = static_cast<VertexId>(rng.Uniform(n));
  picks.Add(current);
  const uint64_t max_steps = 400 * target + 1000;
  uint64_t steps = 0;
  while (!picks.Done() && steps < max_steps) {
    ++steps;
    if (rng.NextBool(options.jump_probability)) {
      current = static_cast<VertexId>(rng.Uniform(n));
      picks.Add(current);
      continue;
    }
    VertexId proposal = current;
    if (!UndirectedStep(graph, rng, out_scratch, in_scratch, proposal)) {
      current = static_cast<VertexId>(rng.Uniform(n));
      picks.Add(current);
      continue;
    }
    // MH acceptance removes the walk's bias towards high-degree vertices:
    // accept with probability min(1, deg(current)/deg(proposal)).
    const double ratio = static_cast<double>(UndirectedDegree(graph, current)) /
                         static_cast<double>(UndirectedDegree(graph, proposal));
    if (ratio >= 1.0 || rng.NextDouble() < ratio) current = proposal;
    picks.Add(current);
  }
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(rng.Uniform(n)));
  }
  return std::move(picks.order());
}

std::vector<VertexId> RunForestFire(const Graph& graph,
                                    const SamplerOptions& options,
                                    uint64_t target) {
  const uint64_t n = graph.num_vertices();
  Rng rng(options.seed);
  PickSet picks(graph.num_vertices(), target);
  std::vector<VertexId> frontier;
  std::vector<VertexId> scratch;
  while (!picks.Done()) {
    // Ignite at a random unvisited vertex.
    VertexId seed = static_cast<VertexId>(rng.Uniform(n));
    picks.Add(seed);
    frontier.assign(1, seed);
    while (!frontier.empty() && !picks.Done()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      // Burn a geometric number of untouched out-neighbors.
      for (const VertexId u : graph.OutNeighborsInto(v, &scratch)) {
        if (picks.Done()) break;
        if (!rng.NextBool(options.forward_burning_p)) continue;
        if (picks.Add(u)) frontier.push_back(u);
      }
    }
  }
  return std::move(picks.order());
}

}  // namespace

const char* SamplerKindName(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kRandomJump:
      return "RJ";
    case SamplerKind::kBiasedRandomJump:
      return "BRJ";
    case SamplerKind::kMetropolisHastingsRW:
      return "MHRW";
    case SamplerKind::kForestFire:
      return "FF";
  }
  return "unknown";
}

std::string SamplerOptionsKey(const SamplerOptions& options) {
  // Cache keys must never truncate: two distinct options differing only
  // past a fixed buffer's end would silently collide. snprintf reports
  // the full untruncated length, so retry with an exact-sized buffer if
  // the stack buffer ever proves too small.
  const auto format = [&](char* out, size_t size) {
    return std::snprintf(
        out, size,
        "%s;ratio=%.17g;jump=%.17g;seedfrac=%.17g;burn=%.17g;seed=%llu",
        SamplerKindName(options.kind), options.sampling_ratio,
        options.jump_probability, options.seed_fraction,
        options.forward_burning_p,
        static_cast<unsigned long long>(options.seed));
  };
  char buf[192];
  const int len = format(buf, sizeof(buf));
  if (len < 0) return SamplerKindName(options.kind);  // cannot happen
  std::string key;
  if (static_cast<size_t>(len) < sizeof(buf)) {
    key.assign(buf, static_cast<size_t>(len));
  } else {
    key.assign(static_cast<size_t>(len) + 1, '\0');
    format(key.data(), key.size());
    key.resize(static_cast<size_t>(len));
  }
  // Segmented walks sample a different (equally valid) vertex set, so
  // the segment length is part of the key; the suffix is appended only
  // when the feature is on, keeping classic keys byte-identical.
  if (options.walk_segment_steps != 0) {
    key += ";seg=" + std::to_string(options.walk_segment_steps);
  }
  return key;
}

namespace {

// Shared validation + dispatch behind SampleVertices and the recorded
// variant; `record` non-null captures segment trajectories (segmented
// runs only).
Result<std::vector<VertexId>> SampleVerticesInternal(
    const Graph& graph, const SamplerOptions& options,
    SampleWalkRecord* record) {
  const uint64_t n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.sampling_ratio <= 0.0 || options.sampling_ratio > 1.0) {
    return Status::InvalidArgument("sampling_ratio must be in (0, 1]");
  }
  if (options.jump_probability < 0.0 || options.jump_probability > 1.0) {
    return Status::InvalidArgument("jump_probability must be in [0, 1]");
  }
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.sampling_ratio * static_cast<double>(n))));

  if (options.walk_segment_steps != 0) {
    return RunSegmentedKind(graph, options, target, record);
  }
  switch (options.kind) {
    case SamplerKind::kRandomJump:
      return RunRandomJump(graph, options, target);
    case SamplerKind::kBiasedRandomJump:
      return RunBiasedRandomJump(graph, options, target);
    case SamplerKind::kMetropolisHastingsRW:
      return RunMetropolisHastings(graph, options, target);
    case SamplerKind::kForestFire:
      return RunForestFire(graph, options, target);
  }
  return Status::InvalidArgument("unknown sampler kind");
}

Sample AssembleSample(const Graph& graph, SubgraphResult sub) {
  Sample sample;
  sample.vertices = std::move(sub.original_id);
  sample.subgraph = std::move(sub.graph);
  sample.original_num_vertices = graph.num_vertices();
  sample.realized_ratio = static_cast<double>(sample.vertices.size()) /
                          static_cast<double>(sample.original_num_vertices);
  return sample;
}

}  // namespace

Result<std::vector<VertexId>> SampleVertices(const Graph& graph,
                                             const SamplerOptions& options) {
  return SampleVerticesInternal(graph, options, nullptr);
}

Result<Sample> SampleGraph(const Graph& graph, const SamplerOptions& options) {
  PREDICT_ASSIGN_OR_RETURN(std::vector<VertexId> vertices,
                           SampleVertices(graph, options));
  PREDICT_ASSIGN_OR_RETURN(SubgraphResult sub, InducedSubgraph(graph, vertices));
  return AssembleSample(graph, std::move(sub));
}

Result<Sample> SampleGraphRecorded(const Graph& graph,
                                   const SamplerOptions& options,
                                   SampleWalkRecord* record) {
  *record = SampleWalkRecord{};
  record->options = options;
  record->graph_fingerprint = graph.Fingerprint();
  record->num_vertices = graph.num_vertices();
  record->supports_incremental =
      options.walk_segment_steps != 0 &&
      (options.kind == SamplerKind::kRandomJump ||
       options.kind == SamplerKind::kBiasedRandomJump);
  PREDICT_ASSIGN_OR_RETURN(std::vector<VertexId> vertices,
                           SampleVerticesInternal(graph, options, record));
  PREDICT_ASSIGN_OR_RETURN(SubgraphResult sub, InducedSubgraph(graph, vertices));
  return AssembleSample(graph, std::move(sub));
}

Result<IncrementalSampleResult> ResampleIncremental(
    const Graph& graph, const std::vector<VertexId>& dirty,
    const SampleWalkRecord& record, SampleWalkRecord* updated) {
  const uint64_t n = graph.num_vertices();
  const SamplerOptions& options = record.options;

  const auto full = [&]() -> Result<IncrementalSampleResult> {
    IncrementalSampleResult result;
    PREDICT_ASSIGN_OR_RETURN(result.sample,
                             SampleGraphRecorded(graph, options, updated));
    result.full_resample = true;
    result.segments_total = updated->segment_offsets.empty()
                                ? 0
                                : updated->segment_offsets.size() - 1;
    result.segments_reused = 0;
    return result;
  };

  if (!record.supports_incremental || record.num_vertices != n) return full();

  // BRJ restarts draw from the top-out-degree seed set; the recorded
  // trajectories are only reusable if the mutated graph reproduces it
  // exactly (every segment's restarts would shift otherwise).
  std::vector<VertexId> seeds;
  if (options.kind == SamplerKind::kBiasedRandomJump) {
    seeds = BrjSeeds(graph, options);
    if (seeds != record.brj_seeds) return full();
  }

  std::vector<uint8_t> is_dirty(n, 0);
  for (const VertexId v : dirty) {
    if (v >= n) return Status::InvalidArgument("dirty vertex out of range");
    is_dirty[v] = 1;
  }

  const uint64_t segment_steps = options.walk_segment_steps;
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.sampling_ratio * static_cast<double>(n))));
  const uint64_t max_steps = 200 * target + 1000;
  const uint64_t recorded_segments =
      record.segment_offsets.empty() ? 0 : record.segment_offsets.size() - 1;

  const auto restart = [&](Rng& rng) {
    return options.kind == SamplerKind::kBiasedRandomJump
               ? seeds[rng.Uniform(seeds.size())]
               : static_cast<VertexId>(rng.Uniform(n));
  };

  IncrementalSampleResult result;
  PickSet picks(n, target);
  std::vector<VertexId> visits;
  std::vector<uint64_t> offsets{0};
  for (uint64_t i = 0; !picks.Done() && i * segment_steps < max_steps; ++i) {
    const size_t begin = visits.size();
    bool reused = false;
    if (i < recorded_segments) {
      const uint64_t s0 = record.segment_offsets[i];
      const uint64_t s1 = record.segment_offsets[i + 1];
      bool clean = true;
      for (uint64_t p = s0; p < s1; ++p) {
        if (is_dirty[record.visits[p]]) {
          clean = false;
          break;
        }
      }
      if (clean) {
        // No visited vertex's out-row changed, so the segment walks
        // identically on the mutated graph: splice the recording through.
        visits.insert(visits.end(), record.visits.begin() + s0,
                      record.visits.begin() + s1);
        reused = true;
        ++result.segments_reused;
      }
    }
    if (!reused) WalkSegment(graph, options, i, restart, &visits);
    offsets.push_back(visits.size());
    for (size_t p = begin; p < visits.size() && !picks.Done(); ++p) {
      picks.Add(visits[p]);
    }
  }
  Rng fill = Rng(options.seed).Fork(kFillStream);
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(fill.Uniform(n)));
  }
  result.segments_total = offsets.size() - 1;

  *updated = SampleWalkRecord{};
  updated->options = options;
  updated->graph_fingerprint = graph.Fingerprint();
  updated->num_vertices = n;
  updated->supports_incremental = true;
  updated->brj_seeds = std::move(seeds);
  updated->segment_offsets = std::move(offsets);
  updated->touched.assign(n, 0);
  for (const VertexId v : visits) updated->touched[v] = 1;
  updated->visits = std::move(visits);

  std::vector<VertexId> vertices = std::move(picks.order());
  PREDICT_ASSIGN_OR_RETURN(SubgraphResult sub,
                           InducedSubgraph(graph, vertices));
  result.sample = AssembleSample(graph, std::move(sub));
  return result;
}

}  // namespace predict
