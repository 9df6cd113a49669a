#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.h"

namespace predict {

namespace {

// Common state for the random-walk family, owned by the caller and filled
// by the walk: tracks picked vertices in insertion order, stops when the
// target count is reached. Vertex ids are compact [0, |V|), so
// membership is a dense byte bitmap — every walk step costs a branch +
// store instead of a hash probe.
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
  uint64_t target() const { return target_; }
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

std::vector<VertexId> BrjSeeds(const Graph& graph,
                               const SamplerOptions& options) {
  const uint64_t k = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.seed_fraction *
                          static_cast<double>(graph.num_vertices()))));
  return TopOutDegreeSeeds(graph, k);
}

// How many vertices `options` asks of an n-vertex graph: the ratio of n,
// rounded, and at least one.
uint64_t TargetCount(const SamplerOptions& options, uint64_t n) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(options.sampling_ratio * static_cast<double>(n))));
}

// Steps a jump walk may take before the uniform fill takes over: a
// generous multiple of the target, so a pathological graph (e.g. no
// outgoing edges anywhere) cannot stall the walk.
uint64_t StepBudget(uint64_t target) { return 200 * target + 1000; }

// RJ and BRJ share the jump-walk skeleton; they differ only in how a
// restart vertex is chosen.
template <typename RestartFn>
void JumpWalk(const Graph& graph, const SamplerOptions& options,
              RestartFn restart, PickSet& picks) {
  Rng rng(options.seed);
  std::vector<VertexId> scratch;
  VertexId current = restart(rng);
  picks.Add(current);
  const uint64_t max_steps = StepBudget(picks.target());
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

// A walk record to splice from, the vertices whose out-rows changed since
// it was walked, and how many of its segments the walk replayed.
struct SpliceSource {
  const SampleWalkRecord& record;
  std::vector<uint8_t> dirty;  // dense |V| mask
  uint64_t reused = 0;

  // True iff recorded segment i visits no dirty vertex.
  bool Clean(uint64_t i) const {
    for (uint64_t p = record.segment_offsets[i];
         p < record.segment_offsets[i + 1]; ++p) {
      if (dirty[record.visits[p]]) return false;
    }
    return true;
  }
};

// Composes segments in order, adding trajectory vertices to the pick set
// until the target is reached; generates segment i only while the step
// budget allows. A recorded segment of `splice` (may be null) that visits
// no dirty vertex walks identically on this graph, so its recording is
// spliced through instead of re-walked. Records full trajectories when
// `record` is non-null.
template <typename RestartFn>
void RunSegmented(const Graph& graph, const SamplerOptions& options,
                  RestartFn restart, SpliceSource* splice,
                  SampleWalkRecord* record, PickSet& picks) {
  const uint64_t n = graph.num_vertices();
  const uint64_t segment_steps = options.walk_segment_steps;
  const uint64_t max_steps = StepBudget(picks.target());
  const uint64_t recorded =
      splice == nullptr ? 0 : splice->record.segment_count();
  std::vector<VertexId> visits;
  std::vector<uint64_t> offsets{0};
  for (uint64_t i = 0; !picks.Done() && i * segment_steps < max_steps; ++i) {
    const size_t begin = visits.size();
    if (i < recorded && splice->Clean(i)) {
      const SampleWalkRecord& from = splice->record;
      visits.insert(visits.end(),
                    from.visits.begin() + from.segment_offsets[i],
                    from.visits.begin() + from.segment_offsets[i + 1]);
      ++splice->reused;
    } else {
      WalkSegment(graph, options, i, restart, &visits);
    }
    offsets.push_back(visits.size());
    for (size_t p = begin; p < visits.size() && !picks.Done(); ++p) {
      picks.Add(visits[p]);
    }
  }
  Rng fill = Rng(options.seed).Fork(kFillStream);
  const uint64_t walked = picks.order().size();
  while (!picks.Done()) {
    picks.Add(static_cast<VertexId>(fill.Uniform(n)));
  }
  if (record != nullptr) {
    record->fill_picks = picks.order().size() - walked;
    record->segment_offsets = std::move(offsets);
    record->touched.assign(n, 0);
    for (const VertexId v : visits) record->touched[v] = 1;
    record->visits = std::move(visits);
  }
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

void RunMetropolisHastings(const Graph& graph, const SamplerOptions& options,
                           PickSet& picks) {
  const uint64_t n = graph.num_vertices();
  Rng rng(options.seed);
  std::vector<VertexId> out_scratch, in_scratch;
  VertexId current = static_cast<VertexId>(rng.Uniform(n));
  picks.Add(current);
  const uint64_t max_steps = 400 * picks.target() + 1000;
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
}

void RunForestFire(const Graph& graph, const SamplerOptions& options,
                   PickSet& picks) {
  const uint64_t n = graph.num_vertices();
  Rng rng(options.seed);
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

Result<SamplerKind> ParseSamplerKind(const std::string& name) {
  std::string known;
  for (const SamplerKind kind :
       {SamplerKind::kRandomJump, SamplerKind::kBiasedRandomJump,
        SamplerKind::kMetropolisHastingsRW, SamplerKind::kForestFire}) {
    if (name == SamplerKindName(kind)) return kind;
    known += known.empty() ? "" : "|";
    known += SamplerKindName(kind);
  }
  return Status::InvalidArgument("unknown sampler '" + name + "'; known: " +
                                 known);
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

// What one draw needs besides the graph and the options, each worked out
// once per call: the target count and, for BRJ, the restart seed set.
struct DrawPlan {
  uint64_t target = 0;
  std::vector<VertexId> brj_seeds;
};

// The splice rules: whether `record` may be spliced on an n-vertex
// graph drawn under `plan` whose changed rows number `dirty_count`. A
// segment is only replayable from a segmented walk of a graph with the
// same |V|; BRJ restarts must draw from the same seed set (every
// segment's restarts would shift otherwise); and past |V|/4 dirty
// vertices the splice check itself stops paying.
bool Spliceable(const SampleWalkRecord& record, const DrawPlan& plan,
                uint64_t n, uint64_t dirty_count) {
  return record.supports_incremental && record.touched.size() == n &&
         record.brj_seeds == plan.brj_seeds && dirty_count * 4 <= n;
}

// Validates `options` against `graph` before anything walks. Every range
// is checked for every kind, each as the condition that must hold: NaN
// fails any comparison, so it fails these.
Result<DrawPlan> PlanDraw(const Graph& graph, const SamplerOptions& options) {
  const uint64_t n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (!(options.sampling_ratio > 0.0 && options.sampling_ratio <= 1.0)) {
    return Status::InvalidArgument("sampling_ratio must be in (0, 1]");
  }
  if (!(options.jump_probability >= 0.0 && options.jump_probability <= 1.0)) {
    return Status::InvalidArgument("jump_probability must be in [0, 1]");
  }
  if (!(options.seed_fraction > 0.0 && options.seed_fraction <= 1.0)) {
    return Status::InvalidArgument("seed_fraction must be in (0, 1]");
  }
  if (!(options.forward_burning_p >= 0.0 &&
        options.forward_burning_p <= 1.0)) {
    return Status::InvalidArgument("forward_burning_p must be in [0, 1]");
  }
  DrawPlan plan;
  plan.target = TargetCount(options, n);
  if (options.walk_segment_steps != 0) {
    if (options.kind != SamplerKind::kRandomJump &&
        options.kind != SamplerKind::kBiasedRandomJump) {
      return Status::InvalidArgument(
          "walk_segment_steps requires the RJ or BRJ sampler");
    }
    // Segment 0 always walks in full, so a longer segment would overrun
    // the budget that caps the whole walk.
    if (options.walk_segment_steps > StepBudget(plan.target)) {
      return Status::InvalidArgument(
          "walk_segment_steps exceeds the walk's step budget of " +
          std::to_string(StepBudget(plan.target)));
    }
  }
  if (options.kind == SamplerKind::kBiasedRandomJump) {
    plan.brj_seeds = BrjSeeds(graph, options);
  }
  return plan;
}

// The one dispatch: RJ and BRJ walk classic or segmented by
// walk_segment_steps. `splice` and `record` (either may be null) apply
// to segmented walks only.
Status Walk(const Graph& graph, const SamplerOptions& options,
            const DrawPlan& plan, SpliceSource* splice,
            SampleWalkRecord* record, PickSet& picks) {
  const auto jump_walk = [&](auto restart) {
    if (options.walk_segment_steps == 0) {
      JumpWalk(graph, options, restart, picks);
    } else {
      RunSegmented(graph, options, restart, splice, record, picks);
    }
  };
  const uint64_t n = graph.num_vertices();
  const std::vector<VertexId>& seeds = plan.brj_seeds;
  switch (options.kind) {
    case SamplerKind::kRandomJump:
      jump_walk(
          [n](Rng& rng) { return static_cast<VertexId>(rng.Uniform(n)); });
      break;
    case SamplerKind::kBiasedRandomJump:
      jump_walk(
          [&seeds](Rng& rng) { return seeds[rng.Uniform(seeds.size())]; });
      break;
    case SamplerKind::kMetropolisHastingsRW:
      RunMetropolisHastings(graph, options, picks);
      break;
    case SamplerKind::kForestFire:
      RunForestFire(graph, options, picks);
      break;
    default:
      return Status::InvalidArgument("unknown sampler kind");
  }
  return Status::OK();
}

// The one body behind SampleGraph, SampleGraphRecorded and
// ResampleIncremental: walk, then extract the induced subgraph. `record`
// (may be null) is rewritten for `graph`. The pick set lives until the
// extraction is done: freeing it first read 1.1% higher peak RSS on
// churn_stream (10 seeds, 4-core host), from heap layout alone.
Result<Sample> DrawSample(const Graph& graph, const SamplerOptions& options,
                          const DrawPlan& plan, SpliceSource* splice,
                          SampleWalkRecord* record) {
  if (record != nullptr) {
    *record = SampleWalkRecord{};
    record->options = options;
    // PlanDraw admits segmented walks for RJ and BRJ only.
    record->supports_incremental = options.walk_segment_steps != 0;
    if (record->supports_incremental) record->brj_seeds = plan.brj_seeds;
  }
  PickSet picks(graph.num_vertices(), plan.target);
  PREDICT_RETURN_NOT_OK(Walk(graph, options, plan, splice, record, picks));
  PREDICT_ASSIGN_OR_RETURN(SubgraphResult sub,
                           InducedSubgraph(graph, picks.order()));
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
  PREDICT_ASSIGN_OR_RETURN(const DrawPlan plan, PlanDraw(graph, options));
  PickSet picks(graph.num_vertices(), plan.target);
  PREDICT_RETURN_NOT_OK(Walk(graph, options, plan, nullptr, nullptr, picks));
  return std::move(picks.order());
}

Result<Sample> SampleGraph(const Graph& graph, const SamplerOptions& options) {
  PREDICT_ASSIGN_OR_RETURN(const DrawPlan plan, PlanDraw(graph, options));
  return DrawSample(graph, options, plan, nullptr, nullptr);
}

Result<Sample> SampleGraphRecorded(const Graph& graph,
                                   const SamplerOptions& options,
                                   SampleWalkRecord* record) {
  PREDICT_ASSIGN_OR_RETURN(const DrawPlan plan, PlanDraw(graph, options));
  return DrawSample(graph, options, plan, nullptr, record);
}

Result<IncrementalSampleResult> ResampleIncremental(
    const Graph& graph, const std::vector<VertexId>& dirty,
    const SampleWalkRecord& record, SampleWalkRecord* updated) {
  const uint64_t n = graph.num_vertices();
  for (const VertexId v : dirty) {
    if (v >= n) return Status::InvalidArgument("dirty vertex out of range");
  }
  const SamplerOptions& options = record.options;
  PREDICT_ASSIGN_OR_RETURN(const DrawPlan plan, PlanDraw(graph, options));

  // A record the splice rules refuse walks from scratch.
  const bool splice = Spliceable(record, plan, n, dirty.size());
  SpliceSource source{record, {}};
  if (splice) {
    source.dirty.assign(n, 0);
    for (const VertexId v : dirty) source.dirty[v] = 1;
  }

  IncrementalSampleResult result;
  PREDICT_ASSIGN_OR_RETURN(
      result.sample, DrawSample(graph, options, plan,
                                splice ? &source : nullptr, updated));
  result.segments_total = updated->segment_count();
  result.segments_reused = source.reused;
  result.full_resample = !splice;
  return result;
}

bool KeepsSample(const Graph& graph, const std::vector<VertexId>& dirty,
                 const SampleWalkRecord& record) {
  // Why the sample is the record's, byte for byte. No dirty vertex lies
  // on a recorded trajectory, so every recorded segment is clean and
  // RunSegmented splices each one through, in order: the picks are the
  // record's, in its order. The fill never ran, so those segments alone
  // reached the target: the walk stops after the same segment, and every
  // pick is a touched vertex. InducedSubgraph builds the subgraph from
  // the picks' out-rows alone, and no pick's row is dirty: same targets,
  // same weights. (It stores weights only when a kept one is not 1.0, so
  // a flip of the graph's weightedness, which dirties no row, changes
  // nothing.) |V|, and with it the realized ratio, is the record's too.
  const uint64_t n = graph.num_vertices();
  const Result<DrawPlan> plan = PlanDraw(graph, record.options);
  if (!plan.ok() || !Spliceable(record, *plan, n, dirty.size()) ||
      record.fill_picks != 0) {
    return false;
  }
  return std::none_of(dirty.begin(), dirty.end(), [&](VertexId v) {
    return v >= n || record.touched[v] != 0;
  });
}

}  // namespace predict
