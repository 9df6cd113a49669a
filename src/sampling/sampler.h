// Graph sampling techniques (§3.2.1 of the paper).
//
// A sampler picks a vertex subset whose induced subgraph preserves the
// key properties of the original graph (connectivity, in/out degree
// proportionality, effective diameter). PREDIcT's default is Biased
// Random Jump (BRJ), the paper's contribution: Random Jump seeded at the
// k highest-out-degree vertices, trading sampling uniformity for
// connectivity of the sampled "core of the network".

#ifndef PREDICT_SAMPLING_SAMPLER_H_
#define PREDICT_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/transforms.h"

namespace predict {

/// Which sampling technique to use.
enum class SamplerKind {
  kRandomJump,            ///< RJ, Leskovec & Faloutsos
  kBiasedRandomJump,      ///< BRJ, this paper's default (§3.2.1)
  kMetropolisHastingsRW,  ///< MHRW, Gjoka et al. (removes degree bias)
  kForestFire,            ///< FF, Leskovec & Faloutsos (extension)
};

const char* SamplerKindName(SamplerKind kind);

/// Parses exactly the names SamplerKindName prints (RJ, BRJ, MHRW, FF);
/// anything else is InvalidArgument.
Result<SamplerKind> ParseSamplerKind(const std::string& name);

/// Parameters shared by the random-walk samplers.
struct SamplerOptions {
  SamplerKind kind = SamplerKind::kBiasedRandomJump;

  // Every kind checks all four ranges below before walking; a value
  // outside one, NaN included, is InvalidArgument.

  /// Fraction of vertices to sample, in (0, 1].
  double sampling_ratio = 0.1;

  /// Walk restart probability (the paper's p = 0.15), in [0, 1].
  double jump_probability = 0.15;

  /// BRJ: seed-set size as a fraction of |V| (the paper's k = 1%), in
  /// (0, 1].
  double seed_fraction = 0.01;

  /// Forest fire: forward burning probability, in [0, 1].
  double forward_burning_p = 0.35;

  uint64_t seed = 1;

  /// RJ/BRJ only: when nonzero, the walk runs as fixed-length segments
  /// of this many steps, segment i drawing from the independent stream
  /// Rng(seed).Fork(i). Each segment's trajectory is then a pure
  /// function of (graph, options, i) — the property incremental
  /// re-sampling (ResampleIncremental) splices unaffected segments
  /// through on. 0 (default) keeps the classic single-stream walk;
  /// nonzero with MHRW/FF is InvalidArgument, and so is a segment longer
  /// than the walk's whole step budget, 200 * target + 1000 steps for a
  /// target of round(sampling_ratio * |V|) vertices. Different values
  /// sample different (equally valid) vertex sets, so this is part of
  /// the cache key (";seg=N" suffix, appended only when nonzero).
  uint64_t walk_segment_steps = 0;

  bool operator==(const SamplerOptions& other) const = default;
};

/// Canonical textual form of the options, e.g.
/// "BRJ;ratio=0.1;jump=0.15;seedfrac=0.01;burn=0.35;seed=1". Two options
/// structs produce the same string iff they compare equal; cache keys
/// (PredictionService) and log lines are built on it.
std::string SamplerOptionsKey(const SamplerOptions& options);

/// A sampled vertex set plus its induced subgraph. Self-contained: it
/// records the original graph's size, so the realized ratio stays
/// meaningful when the Sample is cached and consulted without the
/// original graph at hand.
struct Sample {
  /// Vertices of the original graph, in sampling order; position i became
  /// vertex i of `subgraph`.
  std::vector<VertexId> vertices;
  Graph subgraph;
  /// |V| of the graph the sample was drawn from.
  uint64_t original_num_vertices = 0;
  /// |vertices| / |V_original|, the realized sampling ratio. Set once at
  /// sampling time; consumers (transform, reports) must read it from
  /// here rather than recomputing it.
  double realized_ratio = 0.0;
};

/// Runs the sampler described by `options` and returns the sampled
/// vertices together with their induced subgraph.
Result<Sample> SampleGraph(const Graph& graph, const SamplerOptions& options);

/// Returns just the sampled vertex ids (no subgraph extraction).
Result<std::vector<VertexId>> SampleVertices(const Graph& graph,
                                             const SamplerOptions& options);

/// \brief Everything needed to maintain a characterized sample under
/// graph mutation: the full per-segment walk trajectories, a
/// touched-vertex bitmap and whether the uniform fill ran, recorded while
/// sampling.
///
/// A segment whose trajectory avoids every mutated vertex walks
/// identically on the mutated graph, so ResampleIncremental replays its
/// recorded trajectory instead of re-walking it, and when the mutation
/// misses every trajectory KeepsSample says the sample itself survives.
/// Which records may be spliced or kept is decided by those two
/// functions alone, on one shared set of preconditions.
struct SampleWalkRecord {
  SamplerOptions options;
  /// True iff the walk was segmented (walk_segment_steps > 0, RJ/BRJ);
  /// false means ResampleIncremental always falls back to a full
  /// resample.
  bool supports_incremental = false;
  /// BRJ: the top-out-degree seed set the restarts drew from. Incremental
  /// reuse requires the mutated graph to reproduce it exactly.
  std::vector<VertexId> brj_seeds;
  /// Trajectory of segment i = visits[segment_offsets[i] ..
  /// segment_offsets[i+1]). Every visited vertex appears, in walk order.
  std::vector<uint64_t> segment_offsets;
  std::vector<VertexId> visits;
  /// Dense byte bitmap over the walked graph's |V| vertices (so its size
  /// is that |V|): 1 iff any segment visited the vertex. Empty for an
  /// unsegmented walk. Vertices the uniform fill picked are not marked.
  std::vector<uint8_t> touched;
  /// Vertices the uniform fill added after the segments ran out of step
  /// budget short of the target; 0 = the walk alone reached it (and for
  /// an unsegmented walk). Fill picks sit in the sample untouched.
  uint64_t fill_picks = 0;

  /// Number of recorded segments.
  uint64_t segment_count() const {
    return segment_offsets.empty() ? 0 : segment_offsets.size() - 1;
  }
};

/// SampleGraph, additionally filling `record` (must be non-null) so the
/// sample can later be maintained incrementally. The returned Sample is
/// bit-identical to SampleGraph(graph, options).
Result<Sample> SampleGraphRecorded(const Graph& graph,
                                   const SamplerOptions& options,
                                   SampleWalkRecord* record);

/// How ResampleIncremental got its sample.
struct IncrementalSampleStats {
  /// Segments composing the new sample / of those, replayed from the
  /// record without re-walking.
  uint64_t segments_total = 0;
  uint64_t segments_reused = 0;
  /// True when the record could not be spliced (see ResampleIncremental)
  /// and the sample was drawn from scratch instead.
  bool full_resample = false;
};

/// Outcome of an incremental re-sample: the stats plus the sample.
struct IncrementalSampleResult : IncrementalSampleStats {
  Sample sample;
};

/// \brief Re-derives the sample on a mutated graph, re-walking only
/// segments whose recorded trajectory touched a vertex in `dirty`: the
/// DirtyOutVertices set between `graph` and a version whose walk `record`
/// is — the one it was walked on, or a later one that KeepsSample kept
/// the sample for.
///
/// The splice rules, shared with KeepsSample and checked before anything
/// walks: the record must be a segmented RJ/BRJ walk
/// (supports_incremental) of a graph with `graph`'s |V| (touched.size()),
/// its BRJ seed set must be the one `graph` yields, and `dirty` may name
/// at most |V|/4 vertices — past that the splice check itself stops
/// paying. Otherwise the sample is drawn from scratch and the result says
/// full_resample. A dirty id >= |V| is InvalidArgument, checked first.
///
/// Either way the result is bit-identical to SampleGraphRecorded(graph,
/// record.options, ...) — a from-scratch resample of the mutated graph —
/// at a fraction of the walk cost when the churn misses most
/// trajectories. `updated` (non-null, distinct from `record`) receives
/// the record for the new graph, equal to the one that cold walk writes.
Result<IncrementalSampleResult> ResampleIncremental(
    const Graph& graph, const std::vector<VertexId>& dirty,
    const SampleWalkRecord& record, SampleWalkRecord* updated);

/// \brief The kept-sample rule: true iff the sample of `graph` is the
/// sample the walk `record` drew, byte for byte, so a caller holding that
/// sample may keep it instead of calling ResampleIncremental. `dirty` is
/// as for ResampleIncremental.
///
/// It holds when all three of these do: ResampleIncremental's splice
/// rules admit the record; no dirty vertex is touched; and the recorded
/// walk needed no uniform fill (fill_picks == 0). Then every segment
/// splices through, the picks come out in the record's order, and the
/// induced subgraph is built from out-rows the mutation left alone. The
/// walk is then also `graph`'s own, so `record` stays the splice source
/// for the next version. Anything else, an invalid `dirty` id included,
/// is false. Cost: O(|dirty|), plus for BRJ the seed set's O(|V| log k)
/// selection.
bool KeepsSample(const Graph& graph, const std::vector<VertexId>& dirty,
                 const SampleWalkRecord& record);

}  // namespace predict

#endif  // PREDICT_SAMPLING_SAMPLER_H_
