// Tests for sampling/: RJ, BRJ, MHRW, FF and the sample-quality report.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "sampling/quality.h"
#include "sampling/sampler.h"

namespace predict {
namespace {

Graph ScaleFree(VertexId n = 20000, uint64_t seed = 5) {
  return GeneratePreferentialAttachment({n, 8, 0.3, seed}).MoveValue();
}

SamplerOptions Options(SamplerKind kind, double ratio, uint64_t seed = 1) {
  SamplerOptions options;
  options.kind = kind;
  options.sampling_ratio = ratio;
  options.seed = seed;
  return options;
}

// -------------------------------------------------------------- validation

TEST(SamplerTest, RejectsBadRatio) {
  const Graph g = ScaleFree(1000);
  EXPECT_TRUE(SampleVertices(g, Options(SamplerKind::kRandomJump, 0.0))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SampleVertices(g, Options(SamplerKind::kRandomJump, 1.5))
                  .status()
                  .IsInvalidArgument());
}

TEST(SamplerTest, RejectsEmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.Build().MoveValue();
  EXPECT_TRUE(SampleVertices(g, Options(SamplerKind::kRandomJump, 0.1))
                  .status()
                  .IsInvalidArgument());
}

TEST(SamplerTest, RejectsBadJumpProbability) {
  const Graph g = ScaleFree(1000);
  SamplerOptions options = Options(SamplerKind::kRandomJump, 0.1);
  options.jump_probability = 2.0;
  EXPECT_TRUE(SampleVertices(g, options).status().IsInvalidArgument());
}

constexpr SamplerKind kAllKinds[] = {
    SamplerKind::kRandomJump, SamplerKind::kBiasedRandomJump,
    SamplerKind::kMetropolisHastingsRW, SamplerKind::kForestFire};

// Every kind checks every range, and NaN or an infinity is out of all of
// them.
TEST(SamplerTest, RejectsNonFiniteAndOutOfRangeOptionsForEveryKind) {
  const Graph g = ScaleFree(2000);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double SamplerOptions::*, double> bad[] = {
      {&SamplerOptions::sampling_ratio, nan},
      {&SamplerOptions::sampling_ratio, inf},
      {&SamplerOptions::jump_probability, nan},
      {&SamplerOptions::jump_probability, -0.5},
      {&SamplerOptions::seed_fraction, nan},
      {&SamplerOptions::seed_fraction, -1.0},
      {&SamplerOptions::seed_fraction, 0.0},
      {&SamplerOptions::seed_fraction, 5.0},
      {&SamplerOptions::forward_burning_p, nan},
      {&SamplerOptions::forward_burning_p, 1.5},
      {&SamplerOptions::forward_burning_p, -inf},
  };
  for (const SamplerKind kind : kAllKinds) {
    for (const auto& [field, value] : bad) {
      SamplerOptions options = Options(kind, 0.1);
      options.*field = value;
      EXPECT_TRUE(SampleGraph(g, options).status().IsInvalidArgument())
          << SamplerOptionsKey(options);
    }
  }
}

TEST(SamplerTest, KindNames) {
  EXPECT_STREQ(SamplerKindName(SamplerKind::kRandomJump), "RJ");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kBiasedRandomJump), "BRJ");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kMetropolisHastingsRW), "MHRW");
  EXPECT_STREQ(SamplerKindName(SamplerKind::kForestFire), "FF");
}

TEST(SamplerTest, ParsesExactlyTheKindNames) {
  for (const SamplerKind kind : kAllKinds) {
    auto parsed = ParseSamplerKind(SamplerKindName(kind));
    ASSERT_TRUE(parsed.ok()) << SamplerKindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  for (const char* name : {"rj", "", "XYZ"}) {
    EXPECT_TRUE(ParseSamplerKind(name).status().IsInvalidArgument()) << name;
  }
}

// ---------------------------------------------- ratio honored, all kinds

class RatioSweep
    : public ::testing::TestWithParam<std::tuple<SamplerKind, double>> {};

TEST_P(RatioSweep, SampleSizeMatchesRatioAndIsDistinct) {
  const auto [kind, ratio] = GetParam();
  const Graph g = ScaleFree(10000);
  auto vertices = SampleVertices(g, Options(kind, ratio));
  ASSERT_TRUE(vertices.ok());
  const uint64_t expected =
      static_cast<uint64_t>(std::llround(ratio * 10000.0));
  EXPECT_EQ(vertices->size(), expected);
  std::set<VertexId> unique(vertices->begin(), vertices->end());
  EXPECT_EQ(unique.size(), vertices->size());
  for (const VertexId v : *vertices) EXPECT_LT(v, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndRatios, RatioSweep,
    ::testing::Combine(::testing::Values(SamplerKind::kRandomJump,
                                         SamplerKind::kBiasedRandomJump,
                                         SamplerKind::kMetropolisHastingsRW,
                                         SamplerKind::kForestFire),
                       ::testing::Values(0.01, 0.1, 0.25)));

TEST(SamplerTest, FullRatioReturnsEveryVertex) {
  const Graph g = ScaleFree(500);
  auto vertices =
      SampleVertices(g, Options(SamplerKind::kBiasedRandomJump, 1.0));
  ASSERT_TRUE(vertices.ok());
  EXPECT_EQ(vertices->size(), 500u);
}

TEST(SamplerTest, DeterministicForSeed) {
  const Graph g = ScaleFree(5000);
  auto a = SampleVertices(g, Options(SamplerKind::kBiasedRandomJump, 0.1, 3));
  auto b = SampleVertices(g, Options(SamplerKind::kBiasedRandomJump, 0.1, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SamplerTest, DifferentSeedsDiffer) {
  const Graph g = ScaleFree(5000);
  auto a = SampleVertices(g, Options(SamplerKind::kRandomJump, 0.1, 3));
  auto b = SampleVertices(g, Options(SamplerKind::kRandomJump, 0.1, 4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

// ------------------------------------------------------------------- BRJ

TEST(BrjTest, SeedsAreHighOutDegreeVertices) {
  // Star graph: vertex 0 has out-degree n-1, everyone else 0. BRJ must
  // start from vertex 0 and reach spokes; RJ may start anywhere.
  const Graph g = GenerateStar(1000).MoveValue();
  SamplerOptions options = Options(SamplerKind::kBiasedRandomJump, 0.05, 1);
  options.seed_fraction = 0.001;  // exactly 1 seed = the hub
  auto vertices = SampleVertices(g, options);
  ASSERT_TRUE(vertices.ok());
  EXPECT_EQ((*vertices)[0], 0u);  // the hub is the first pick
}

TEST(BrjTest, BetterConnectivityThanRjAtSmallRatios) {
  // On a scale-free graph, hub-seeded samples should keep a larger
  // connected fraction than uniform-restart samples.
  const Graph g = ScaleFree(20000, 9);
  double brj_lcc = 0.0, rj_lcc = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto brj = SampleGraph(g, Options(SamplerKind::kBiasedRandomJump, 0.05, seed));
    auto rj = SampleGraph(g, Options(SamplerKind::kRandomJump, 0.05, seed));
    ASSERT_TRUE(brj.ok());
    ASSERT_TRUE(rj.ok());
    brj_lcc += LargestComponentFraction(brj->subgraph);
    rj_lcc += LargestComponentFraction(rj->subgraph);
  }
  EXPECT_GE(brj_lcc, rj_lcc);
}

// ----------------------------------------------------------- sample graph

TEST(SampleGraphTest, InducedSubgraphAndRatio) {
  const Graph g = ScaleFree(10000);
  auto sample = SampleGraph(g, Options(SamplerKind::kBiasedRandomJump, 0.1));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->subgraph.num_vertices(), 1000u);
  EXPECT_NEAR(sample->realized_ratio, 0.1, 1e-9);
  EXPECT_GT(sample->subgraph.num_edges(), 0u);
  EXPECT_EQ(sample->vertices.size(), 1000u);
}

TEST(SampleGraphTest, SampleEdgesExistInOriginal) {
  const Graph g = ScaleFree(2000);
  auto sample = SampleGraph(g, Options(SamplerKind::kRandomJump, 0.2));
  ASSERT_TRUE(sample.ok());
  for (VertexId s = 0; s < sample->subgraph.num_vertices(); ++s) {
    const VertexId orig_src = sample->vertices[s];
    for (const VertexId t : sample->subgraph.out_neighbors(s)) {
      const VertexId orig_dst = sample->vertices[t];
      const auto neighbors = g.out_neighbors(orig_src);
      EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), orig_dst),
                neighbors.end());
    }
  }
}

TEST(SamplerTest, ChainDoesNotStarve) {
  // Degenerate structure (§3.5): the walk starves, but the sampler must
  // still honor the requested ratio via uniform fill.
  const Graph g = GenerateChain(1000).MoveValue();
  auto vertices = SampleVertices(g, Options(SamplerKind::kRandomJump, 0.2));
  ASSERT_TRUE(vertices.ok());
  EXPECT_EQ(vertices->size(), 200u);
}

// ---------------------------------------------------------------- quality

TEST(QualityTest, IdenticalSampleScoresPerfectly) {
  const Graph g = ScaleFree(2000);
  Sample sample;
  sample.vertices.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) sample.vertices[v] = v;
  sample.subgraph = ScaleFree(2000);
  sample.realized_ratio = 1.0;
  const SampleQualityReport report = EvaluateSampleQuality(g, sample, 16);
  EXPECT_NEAR(report.out_degree_d_statistic, 0.0, 1e-9);
  EXPECT_NEAR(report.in_degree_d_statistic, 0.0, 1e-9);
  EXPECT_NEAR(report.MeanDStatistic(), 0.0, 1e-9);
}

TEST(QualityTest, BrjSampleTracksDegreeShape) {
  const Graph g = ScaleFree(20000);
  auto sample = SampleGraph(g, Options(SamplerKind::kBiasedRandomJump, 0.1));
  ASSERT_TRUE(sample.ok());
  const SampleQualityReport report = EvaluateSampleQuality(g, *sample, 16);
  // Loose bound: degree D-statistics under 0.5 for a reasonable sampler.
  EXPECT_LT(report.MeanDStatistic(), 0.5);
  EXPECT_GT(report.sample_largest_component, 0.3);
}

TEST(QualityTest, ToStringContainsFields) {
  SampleQualityReport report;
  report.out_degree_d_statistic = 0.25;
  EXPECT_NE(report.ToString().find("D(out)=0.250"), std::string::npos);
}

// --------------------------------------------------------- segmented walks

SamplerOptions SegmentedOptions(SamplerKind kind, double ratio,
                                uint64_t segment_steps, uint64_t seed = 1) {
  SamplerOptions options = Options(kind, ratio, seed);
  options.walk_segment_steps = segment_steps;
  return options;
}

TEST(SegmentedSamplerTest, DeterministicForSeed) {
  const Graph g = ScaleFree(6000);
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 128);
  auto a = SampleVertices(g, options);
  auto b = SampleVertices(g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 600u);
}

TEST(SegmentedSamplerTest, SegmentLengthIsPartOfTheCacheKey) {
  SamplerOptions classic = Options(SamplerKind::kRandomJump, 0.1);
  EXPECT_EQ(SamplerOptionsKey(classic).find(";seg="), std::string::npos);
  SamplerOptions segmented =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 128);
  EXPECT_NE(SamplerOptionsKey(segmented).find(";seg=128"), std::string::npos);
  EXPECT_NE(SamplerOptionsKey(classic), SamplerOptionsKey(segmented));
}

TEST(SegmentedSamplerTest, RejectsNonJumpSamplers) {
  const Graph g = ScaleFree(2000);
  for (const SamplerKind kind :
       {SamplerKind::kMetropolisHastingsRW, SamplerKind::kForestFire}) {
    EXPECT_TRUE(SampleVertices(g, SegmentedOptions(kind, 0.1, 64))
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(SegmentedSamplerTest, RejectsSegmentsLongerThanTheStepBudget) {
  // 100-vertex chain at ratio 0.1: a target of 10 vertices, so the walk's
  // step budget is 200 * 10 + 1000 = 3000 steps. Segment 0 always walks
  // in full, so a longer segment would overrun the budget.
  const Graph g = GenerateChain(100).MoveValue();
  for (const SamplerKind kind :
       {SamplerKind::kRandomJump, SamplerKind::kBiasedRandomJump}) {
    EXPECT_TRUE(SampleVertices(g, SegmentedOptions(kind, 0.1, 3001))
                    .status()
                    .IsInvalidArgument());
    SampleWalkRecord record;
    auto at_budget =
        SampleGraphRecorded(g, SegmentedOptions(kind, 0.1, 3000), &record);
    ASSERT_TRUE(at_budget.ok()) << at_budget.status().ToString();
    EXPECT_EQ(at_budget->vertices.size(), 10u);
    EXPECT_EQ(record.visits.size(), 3001u);
  }
}

TEST(SegmentedSamplerTest, RecordedSampleMatchesPlainSample) {
  const Graph g = ScaleFree(6000);
  for (const SamplerKind kind :
       {SamplerKind::kRandomJump, SamplerKind::kBiasedRandomJump}) {
    const SamplerOptions options = SegmentedOptions(kind, 0.1, 200);
    SampleWalkRecord record;
    auto recorded = SampleGraphRecorded(g, options, &record);
    auto plain = SampleGraph(g, options);
    ASSERT_TRUE(recorded.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(recorded->vertices, plain->vertices);
    EXPECT_EQ(recorded->subgraph.Fingerprint(), plain->subgraph.Fingerprint());
    EXPECT_TRUE(record.supports_incremental);
    ASSERT_GT(record.segment_offsets.size(), 1u);
    EXPECT_EQ(record.segment_offsets.back(), record.visits.size());
    // Every recorded visit is marked touched.
    for (const VertexId v : record.visits) EXPECT_TRUE(record.touched[v]);
    if (kind == SamplerKind::kBiasedRandomJump) {
      EXPECT_FALSE(record.brj_seeds.empty());
    }
  }
}

TEST(SegmentedSamplerTest, ClassicRecordDoesNotSupportIncremental) {
  const Graph g = ScaleFree(2000);
  SampleWalkRecord record;
  auto sample =
      SampleGraphRecorded(g, Options(SamplerKind::kRandomJump, 0.1), &record);
  ASSERT_TRUE(sample.ok());
  EXPECT_FALSE(record.supports_incremental);
}

// ----------------------------------------------------- incremental resample

// Applies deterministic churn to `base` and returns (mutated graph,
// dirty vertex set). `base` must already be canonical.
std::pair<Graph, std::vector<VertexId>> Mutate(const Graph& base,
                                               double fraction,
                                               uint64_t seed) {
  EvolvingGraph evolving(base);
  auto batch = GenerateChurn(base, {.fraction = fraction, .seed = seed});
  EXPECT_TRUE(batch.ok());
  EXPECT_TRUE(evolving.Apply(*batch).ok());
  auto current = evolving.Current();
  EXPECT_TRUE(current.ok());
  Graph mutated = **current;
  std::vector<VertexId> dirty = DirtyOutVertices(base, mutated);
  return {std::move(mutated), std::move(dirty)};
}

TEST(IncrementalSampleTest, BitIdenticalToColdResampleOnMutatedGraph) {
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(8000));
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 256);
  SampleWalkRecord record;
  auto original = SampleGraphRecorded(base, options, &record);
  ASSERT_TRUE(original.ok());

  // Surgical churn: mutate the out-row of (a) the least-visited walked
  // vertex — only the few segments that stepped on it must re-walk — and
  // (b) an unvisited vertex, which no segment needs to care about.
  std::vector<uint64_t> visit_count(base.num_vertices(), 0);
  for (const VertexId v : record.visits) ++visit_count[v];
  VertexId rare = 0;
  uint64_t rare_count = ~uint64_t{0};
  VertexId unvisited = 0;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (visit_count[v] != 0 && visit_count[v] < rare_count) {
      rare = v;
      rare_count = visit_count[v];
    }
    if (!record.touched[v]) unvisited = v;
  }
  ASSERT_FALSE(record.touched[unvisited]);
  EvolvingGraph evolving(base);
  ASSERT_TRUE(evolving
                  .Apply({EdgeDelta::Insert(rare, unvisited),
                          EdgeDelta::Insert(unvisited, rare)})
                  .ok());
  auto current = evolving.Current();
  ASSERT_TRUE(current.ok());
  const Graph mutated = **current;
  const std::vector<VertexId> dirty = DirtyOutVertices(base, mutated);
  ASSERT_FALSE(dirty.empty());

  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());
  EXPECT_FALSE(incremental->full_resample);
  EXPECT_GT(incremental->segments_reused, 0u);
  EXPECT_LE(incremental->segments_reused, incremental->segments_total);

  SampleWalkRecord cold_record;
  auto cold = SampleGraphRecorded(mutated, options, &cold_record);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
  EXPECT_EQ(incremental->sample.subgraph.Fingerprint(),
            cold->subgraph.Fingerprint());
  EXPECT_EQ(incremental->sample.realized_ratio, cold->realized_ratio);
  // The updated record must be exactly what a cold recorded walk writes:
  // it is the splice source for the *next* mutation.
  EXPECT_EQ(updated.segment_offsets, cold_record.segment_offsets);
  EXPECT_EQ(updated.visits, cold_record.visits);
  EXPECT_EQ(updated.touched, cold_record.touched);
}

TEST(IncrementalSampleTest, BrjReusesWhenSeedSetIsStable) {
  // Scale-free hubs have a wide degree margin: sub-percent churn does
  // not reorder the top-degree seed set, so BRJ stays incremental.
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(8000, 11));
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kBiasedRandomJump, 0.1, 256);
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(base, options, &record).ok());

  auto [mutated, dirty] = Mutate(base, 0.001, 13);
  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());

  SampleWalkRecord cold_record;
  auto cold = SampleGraphRecorded(mutated, options, &cold_record);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
  EXPECT_EQ(incremental->sample.subgraph.Fingerprint(),
            cold->subgraph.Fingerprint());
  EXPECT_EQ(updated.brj_seeds, cold_record.brj_seeds);
}

TEST(IncrementalSampleTest, BrjSeedShiftForcesFullResample) {
  // 200 vertices, BRJ keeps k = 2 seeds. Vertices 0 and 1 are the hubs;
  // the churn promotes vertex 5 past both, shifting the seed set.
  std::vector<Edge> edges;
  for (VertexId d = 10; d < 60; ++d) edges.push_back({0, d, 1.0f});
  for (VertexId d = 10; d < 50; ++d) edges.push_back({1, d, 1.0f});
  for (VertexId v = 2; v < 199; ++v) edges.push_back({v, v + 1, 1.0f});
  const Graph base = EvolvingGraph::Canonicalize(
      Graph::FromEdges(200, std::move(edges)).MoveValue());

  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kBiasedRandomJump, 0.2, 64);
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(base, options, &record).ok());

  EvolvingGraph evolving(base);
  EdgeDeltaBatch batch;
  for (VertexId d = 100; d < 180; ++d) batch.push_back(EdgeDelta::Insert(5, d));
  ASSERT_TRUE(evolving.Apply(batch).ok());
  auto current = evolving.Current();
  ASSERT_TRUE(current.ok());
  const Graph& mutated = **current;
  const std::vector<VertexId> dirty = DirtyOutVertices(base, mutated);

  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->full_resample);
  auto cold = SampleGraph(mutated, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
  // Vertex 5 is dirty but off every trajectory: only the seed shift
  // stops the sample from being kept.
  ASSERT_EQ(dirty, std::vector<VertexId>{5});
  ASSERT_FALSE(record.touched[5]);
  EXPECT_FALSE(KeepsSample(mutated, dirty, record));
}

// Churn on rows no trajectory read keeps the sample, byte for byte, and
// the record with it: the cold walk of the mutated graph writes the same
// trajectories. A dirty row on a trajectory, or an invalid id, does not.
TEST(IncrementalSampleTest, KeepsSampleWhenNoWalkedRowChanged) {
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(8000));
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 256);
  SampleWalkRecord record;
  auto original = SampleGraphRecorded(base, options, &record);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(record.fill_picks, 0u);

  std::vector<VertexId> untouched;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (!record.touched[v]) untouched.push_back(v);
  }
  ASSERT_GE(untouched.size(), 2u);
  EvolvingGraph evolving(base);
  ASSERT_TRUE(evolving
                  .Apply({EdgeDelta::Insert(untouched[0], record.visits[0]),
                          EdgeDelta::Insert(untouched[1], untouched[0], 2.0f)})
                  .ok());
  const Graph mutated = **evolving.Current();
  const std::vector<VertexId> dirty = mutated.lineage()->dirty;
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_TRUE(KeepsSample(mutated, dirty, record));

  SampleWalkRecord cold_record;
  auto cold = SampleGraphRecorded(mutated, options, &cold_record);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->vertices, original->vertices);
  EXPECT_EQ(cold->subgraph.Fingerprint(), original->subgraph.Fingerprint());
  EXPECT_EQ(cold->subgraph.is_weighted(), original->subgraph.is_weighted());
  EXPECT_EQ(cold->realized_ratio, original->realized_ratio);
  EXPECT_EQ(cold_record.segment_offsets, record.segment_offsets);
  EXPECT_EQ(cold_record.visits, record.visits);
  EXPECT_EQ(cold_record.fill_picks, 0u);

  EXPECT_FALSE(KeepsSample(mutated, {record.visits[0]}, record));
  EXPECT_FALSE(KeepsSample(
      mutated, {static_cast<VertexId>(base.num_vertices())}, record));
}

// BRJ restarts trapped in a 4-vertex component reach 4 of the 40
// vertices asked for; the uniform fill picks the rest. A fill pick is in
// the sample but off every trajectory, so churn on its row must not keep
// the sample: its row is part of the induced subgraph.
TEST(IncrementalSampleTest, KeepsSampleDeclinesAFilledVertex) {
  std::vector<Edge> edges;
  for (int copy = 0; copy < 8; ++copy) {
    for (VertexId v = 0; v < 4; ++v) {
      for (VertexId d = 0; d < 4; ++d) {
        if (d != v) edges.push_back({v, d, 1.0f});
      }
    }
  }
  const Graph base = EvolvingGraph::Canonicalize(
      Graph::FromEdges(200, std::move(edges)).MoveValue());
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kBiasedRandomJump, 0.2, 64);
  SampleWalkRecord record;
  auto original = SampleGraphRecorded(base, options, &record);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(original->vertices.size(), 40u);
  ASSERT_EQ(record.fill_picks, 36u);

  // Two fill picks: an edge between them lands in the induced subgraph.
  const VertexId filled = original->vertices[4];
  const VertexId other = original->vertices[5];
  ASSERT_FALSE(record.touched[filled]);
  EvolvingGraph evolving(base);
  ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(filled, other)}).ok());
  const Graph mutated = **evolving.Current();
  const std::vector<VertexId> dirty = mutated.lineage()->dirty;
  ASSERT_EQ(dirty, std::vector<VertexId>{filled});

  EXPECT_FALSE(KeepsSample(mutated, dirty, record));
  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());
  SampleWalkRecord cold_record;
  auto cold = SampleGraphRecorded(mutated, options, &cold_record);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
  EXPECT_EQ(incremental->sample.subgraph.Fingerprint(),
            cold->subgraph.Fingerprint());
  EXPECT_NE(cold->subgraph.Fingerprint(), original->subgraph.Fingerprint());
  EXPECT_EQ(updated.fill_picks, cold_record.fill_picks);
}

TEST(IncrementalSampleTest, UnsegmentedRecordFallsBackToFullResample) {
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(2000));
  const SamplerOptions options = Options(SamplerKind::kRandomJump, 0.1);
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(base, options, &record).ok());

  auto [mutated, dirty] = Mutate(base, 0.01, 3);
  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->full_resample);
  EXPECT_EQ(incremental->segments_reused, 0u);
  auto cold = SampleGraph(mutated, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
}

TEST(IncrementalSampleTest, MoreThanAQuarterDirtyResamplesInFull) {
  // Past |V|/4 dirty vertices the splice check stops paying: the sampler
  // walks from scratch and says so, with the cold sample and record.
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(2000));
  const VertexId n = static_cast<VertexId>(base.num_vertices());
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 128);
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(base, options, &record).ok());

  EvolvingGraph evolving(base);
  EdgeDeltaBatch batch;
  for (VertexId v = 0; v <= n / 4; ++v) {
    batch.push_back(EdgeDelta::Insert(v, (v + n / 2) % n));
  }
  ASSERT_TRUE(evolving.Apply(batch).ok());
  auto current = evolving.Current();
  ASSERT_TRUE(current.ok());
  const Graph& mutated = **current;
  const std::vector<VertexId> dirty = DirtyOutVertices(base, mutated);
  ASSERT_GT(dirty.size() * 4, base.num_vertices());

  SampleWalkRecord updated;
  auto incremental = ResampleIncremental(mutated, dirty, record, &updated);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->full_resample);
  EXPECT_EQ(incremental->segments_reused, 0u);

  SampleWalkRecord cold_record;
  auto cold = SampleGraphRecorded(mutated, options, &cold_record);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(incremental->sample.vertices, cold->vertices);
  EXPECT_EQ(incremental->sample.subgraph.Fingerprint(),
            cold->subgraph.Fingerprint());
  EXPECT_EQ(incremental->segments_total, cold_record.segment_offsets.size() - 1);
  EXPECT_TRUE(updated.supports_incremental);
  EXPECT_EQ(updated.segment_offsets, cold_record.segment_offsets);
  EXPECT_EQ(updated.visits, cold_record.visits);
  EXPECT_EQ(updated.touched, cold_record.touched);
}

TEST(IncrementalSampleTest, RejectsOutOfRangeDirtyVertex) {
  const Graph base = EvolvingGraph::Canonicalize(ScaleFree(2000));
  const SamplerOptions options =
      SegmentedOptions(SamplerKind::kRandomJump, 0.1, 128);
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(base, options, &record).ok());
  SampleWalkRecord updated;
  EXPECT_TRUE(ResampleIncremental(base, {99999}, record, &updated)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace predict
