// Property-style parameterized sweeps over the whole stack: counter
// conservation laws in the engine, extrapolation identities, transform
// round-trips, and predictor invariants across sampling ratios, worker
// counts and seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/runner.h"
#include "core/predictor.h"
#include "core/transform.h"
#include "common/rng.h"
#include "graph/delta.h"
#include "graph/generators.h"

namespace predict {
namespace {

// ----------------------------- engine counter conservation across workers

class WorkerSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WorkerSweep, CounterConservationLaws) {
  const uint32_t workers = GetParam();
  const Graph g = GeneratePreferentialAttachment({4000, 6, 0.3, 17}).MoveValue();
  bsp::EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;
  options.max_supersteps = 4;
  PageRankProgram program(ResolveConfig(PageRankSpec(), {}).MoveValue());
  bsp::Engine<PageRankValue, double> engine(options);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  for (const auto& step : stats->supersteps) {
    const bsp::WorkerCounters totals = step.Totals();
    // Every vertex is assigned exactly once.
    EXPECT_EQ(totals.total_vertices, g.num_vertices());
    // PageRank: every vertex computes every superstep; every edge carries
    // exactly one message (no dangling vertices in PA graphs).
    EXPECT_EQ(totals.active_vertices, g.num_vertices());
    EXPECT_EQ(totals.total_messages(), g.num_edges());
    // Bytes = 12 per message (the program's MessageBytes).
    EXPECT_EQ(totals.total_message_bytes(), 12 * g.num_edges());
    // With one worker nothing is remote; with W workers the expected
    // remote fraction is (W-1)/W, so for W >= 4 remote dominates.
    if (workers == 1) {
      EXPECT_EQ(totals.remote_messages, 0u);
    } else {
      EXPECT_GT(totals.remote_messages, 0u);
      if (workers >= 4) {
        EXPECT_GT(totals.remote_messages, totals.local_messages);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep,
                         ::testing::Values(1u, 2u, 7u, 29u, 64u));

// --------------------------------------- extrapolation identity at sr = 1

TEST(PropertyTest, FullSampleExtrapolationIsIdentity) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.3, 19}).MoveValue();
  auto factors = ComputeExtrapolationFactors(g, g);
  ASSERT_TRUE(factors.ok());
  EXPECT_DOUBLE_EQ(factors->vertex_factor, 1.0);
  EXPECT_DOUBLE_EQ(factors->edge_factor, 1.0);
  FeatureVector features{};
  for (int i = 0; i < kNumFeatures; ++i) features[i] = i * 3.7;
  const FeatureVector scaled = ExtrapolateFeatures(features, *factors);
  for (int i = 0; i < kNumFeatures; ++i) {
    EXPECT_DOUBLE_EQ(scaled[i], features[i]);
  }
}

// ----------------------------- transform scaling is multiplicative in sr

class TransformSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransformSweep, TauScalesExactlyByInverseRatio) {
  const double ratio = GetParam();
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 3e-9}};
  auto sample = DefaultTransform::Instance().Apply(PageRankSpec(), config, ratio);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 3e-9 / ratio);
  // Applying the inverse recovers the original.
  EXPECT_NEAR(sample->at("tau") * ratio, 3e-9, 1e-24);
}

INSTANTIATE_TEST_SUITE_P(Ratios, TransformSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5, 1.0));

// --------------------------------------------- predictor invariant sweeps

struct PredictorCase {
  double ratio;
  uint64_t seed;
};

class PredictorSweep : public ::testing::TestWithParam<PredictorCase> {};

TEST_P(PredictorSweep, ReportsAreWellFormed) {
  const PredictorCase& c = GetParam();
  const Graph g = GeneratePreferentialAttachment({12000, 6, 0.3, 23}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = c.ratio;
  options.sampler.seed = c.seed;
  options.engine.num_workers = 8;
  Predictor predictor(options);
  const AlgorithmConfig config = {
      {"tau", 0.001 / static_cast<double>(g.num_vertices())}};
  auto report = predictor.PredictRuntime("pagerank", g, "sweep", config);
  ASSERT_TRUE(report.ok());

  // Invariants that must hold at every ratio and seed:
  EXPECT_GT(report->predicted_iterations, 0);
  EXPECT_EQ(report->per_iteration_seconds.size(),
            static_cast<size_t>(report->predicted_iterations));
  for (const double s : report->per_iteration_seconds) EXPECT_GE(s, 0.0);
  EXPECT_NEAR(report->realized_sampling_ratio, c.ratio, 0.01);
  EXPECT_NEAR(report->factors.vertex_factor, 1.0 / c.ratio, 0.15 / c.ratio);
  EXPECT_GE(report->factors.edge_factor, report->factors.vertex_factor);
  // Extrapolated TotVert of iteration 0 equals the full graph's
  // per-worker share (TotVert_S * eV = (V_S/W) * (V_G/V_S) = V_G/W).
  const double tot_vert =
      report->extrapolated_profile.iterations[0]
          .critical_features[static_cast<int>(Feature::kTotVert)];
  EXPECT_NEAR(tot_vert, static_cast<double>(g.num_vertices()) / 8.0,
              static_cast<double>(g.num_vertices()) / 8.0 * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndSeeds, PredictorSweep,
    ::testing::Values(PredictorCase{0.05, 1}, PredictorCase{0.05, 2},
                      PredictorCase{0.10, 1}, PredictorCase{0.10, 2},
                      PredictorCase{0.20, 1}, PredictorCase{0.25, 3}));

// ------------------------------------------ sample run respects transform

class SampleTauSweep : public ::testing::TestWithParam<double> {};

TEST_P(SampleTauSweep, SampleRunUsesScaledThreshold) {
  const double ratio = GetParam();
  const Graph g = GeneratePreferentialAttachment({10000, 6, 0.3, 29}).MoveValue();
  const double tau = 0.001 / static_cast<double>(g.num_vertices());
  PredictorOptions options;
  options.sampler.sampling_ratio = ratio;
  options.engine.num_workers = 4;
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("pagerank", g, "", {{"tau", tau}});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->sample_config.at("tau"),
              tau / report->realized_sampling_ratio, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Ratios, SampleTauSweep,
                         ::testing::Values(0.05, 0.1, 0.2));

// -------------------------------- per-iteration runtimes are predictions
// for the *matching* iteration (variable-runtime algorithms)

TEST(PropertyTest, PerIterationPredictionsTrackActualShape) {
  // Connected components: first iterations heavy, tail light. The
  // prediction vector must reproduce that decaying shape, not just the
  // total (the paper's core claim for variable-runtime algorithms).
  const Graph g = GeneratePreferentialAttachment({30000, 6, 0.3, 31}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.15;
  options.engine.num_workers = 8;
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("connected_components", g, "", {});
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->per_iteration_seconds.size(), 3u);
  // Superstep 0 floods all edges: it must be predicted as the (or near
  // the) most expensive iteration; the last must be cheaper.
  const double first = report->per_iteration_seconds.front();
  const double last = report->per_iteration_seconds.back();
  EXPECT_GT(first, last);
}

// ------------------------------------- delta versioning soundness sweep

std::vector<Edge> MergedEdges(const EvolvingGraph& g) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.ForEachOutEdge(v, [&](VertexId dst, float w) {
      edges.push_back({v, dst, w});
    });
  }
  return edges;
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// A batch steering the walk through the corner cases of splice
// compaction, by `kind`: 10 a weighted insert (the first one flips an
// unweighted graph to weighted), 11 a parallel copy of a present edge
// plus a self-loop, 12 deleting every occurrence of each edge with a
// weight other than 1.0 (the last one flips the graph back to
// unweighted), 13 deleting a whole row, leaving it at degree 0, 14
// deleting a present edge and re-inserting it, so its row's overlay
// nets out (unless parallel copies differ in weight).
EdgeDeltaBatch CornerCaseBatch(const EvolvingGraph& g, uint64_t kind,
                               Rng& rng) {
  const std::vector<Edge> edges = MergedEdges(g);
  const auto any_vertex = [&] {
    return static_cast<VertexId>(rng.Uniform(g.num_vertices()));
  };
  EdgeDeltaBatch batch;
  if (kind == 10) {
    const VertexId src = any_vertex();
    batch.push_back(EdgeDelta::Insert(
        src, any_vertex(), 0.5f + static_cast<float>(rng.Uniform(4))));
  } else if (kind == 11) {
    if (!edges.empty()) {
      const Edge& e = edges[rng.Uniform(edges.size())];
      batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight));
    }
    const VertexId v = any_vertex();
    batch.push_back(EdgeDelta::Insert(v, v));
  } else if (kind == 12) {
    std::set<std::pair<VertexId, VertexId>> weighted;
    for (const Edge& e : edges) {
      if (e.weight != 1.0f) weighted.emplace(e.src, e.dst);
    }
    for (const Edge& e : edges) {
      if (weighted.count({e.src, e.dst}) != 0) {
        batch.push_back(EdgeDelta::Delete(e.src, e.dst));
      }
    }
  } else if (kind == 13 && !edges.empty()) {
    const VertexId src = edges[rng.Uniform(edges.size())].src;
    for (const Edge& e : edges) {
      if (e.src == src) batch.push_back(EdgeDelta::Delete(e.src, e.dst));
    }
  } else if (!edges.empty()) {
    const Edge& e = edges[rng.Uniform(edges.size())];
    batch.push_back(EdgeDelta::Delete(e.src, e.dst));
    batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight));
  }
  return batch;
}

// The version-fingerprint contract: across ANY interleaving of insert
// batches, delete batches and compactions, two reached states have equal
// VersionFingerprints iff their compacted edge multisets are equal. Each
// random walk snapshots (canonical edge list, fingerprint) after every
// batch — compacting a *copy* so the original keeps its overlay state —
// then all snapshots from all walks are cross-compared.
//
// Every compacted version is also checked against a cold canonical
// rebuild of the same edges (byte-identical CSR arrays, stamped
// Fingerprint() equal to the rebuild's from-scratch one) and against its
// parent (lineage parent = the parent's Fingerprint(), lineage dirty set
// = DirtyOutVertices(parent, version)).
TEST(DeltaVersioningProperty, FingerprintEqualsEdgeSetAcrossInterleavings) {
  const Graph base =
      GeneratePreferentialAttachment({120, 4, 0.3, 71}).MoveValue();
  struct Snapshot {
    std::vector<Edge> edges;  // canonical (sorted) — multiset identity
    uint64_t fp = 0;
  };
  std::vector<Snapshot> snapshots;

  // Corner cases the walks must have reached (counted over versions).
  int weighted_flips = 0;
  int unweighted_flips = 0;
  int dirty_rows_with_parallel_edges = 0;
  int dirty_rows_with_self_loops = 0;
  int dirty_rows_emptied = 0;
  // `version` is `parent` or a version compacted from it.
  const auto expect_derived = [&](const Graph& parent, const Graph& version) {
    const std::vector<VertexId> dirty = DirtyOutVertices(parent, version);
    if (dirty.empty()) {
      EXPECT_EQ(version.Fingerprint(), parent.Fingerprint());
      return;
    }
    const GraphLineage* lineage = version.lineage();
    ASSERT_NE(lineage, nullptr);
    EXPECT_EQ(lineage->parent_fingerprint, parent.Fingerprint());
    EXPECT_EQ(lineage->dirty, dirty);
    weighted_flips += !parent.is_weighted() && version.is_weighted();
    unweighted_flips += parent.is_weighted() && !version.is_weighted();
    for (const VertexId v : dirty) {
      const auto row = version.out_neighbors(v);
      dirty_rows_emptied += row.empty() && parent.out_degree(v) != 0;
      dirty_rows_with_self_loops +=
          std::find(row.begin(), row.end(), v) != row.end();
      dirty_rows_with_parallel_edges +=
          std::adjacent_find(row.begin(), row.end()) != row.end();
    }
  };
  const auto expect_matches_cold = [](const Graph& version,
                                      std::vector<Edge> edges) {
    auto cold = Graph::FromEdges(static_cast<VertexId>(version.num_vertices()),
                                 std::move(edges));
    ASSERT_TRUE(cold.ok());
    const Graph rebuilt = EvolvingGraph::Canonicalize(cold.MoveValue());
    EXPECT_EQ(version.Fingerprint(), rebuilt.Fingerprint());
    EXPECT_EQ(version.is_weighted(), rebuilt.is_weighted());
    EXPECT_TRUE(SameBytes(version.out_offsets(), rebuilt.out_offsets()));
    EXPECT_TRUE(SameBytes(version.out_targets(), rebuilt.out_targets()));
    EXPECT_TRUE(SameBytes(version.out_weights(), rebuilt.out_weights()));
    EXPECT_TRUE(SameBytes(version.in_offsets(), rebuilt.in_offsets()));
    EXPECT_TRUE(SameBytes(version.in_sources(), rebuilt.in_sources()));
  };

  // Each walk opens with the corner cases in an order that reaches both
  // weightedness flips (insert a weight, compact, delete it), then
  // continues at random.
  constexpr uint64_t kOpening[] = {10, 0, 12, 11, 13, 14};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EvolvingGraph g(base);
    Rng rng(seed * 977);
    for (size_t step = 0; step < 25; ++step) {
      const uint64_t kind =
          step < std::size(kOpening) ? kOpening[step] : rng.Uniform(15);
      const Graph previous = g.base();
      if (kind == 0) {
        ASSERT_TRUE(g.Compact().ok());
      } else if (kind >= 10) {
        ASSERT_TRUE(g.Apply(CornerCaseBatch(g, kind, rng)).ok());
      } else {
        EdgeDeltaBatch batch;
        const uint64_t batch_size = 1 + rng.Uniform(4);
        for (uint64_t i = 0; i < batch_size; ++i) {
          if (kind < 6 || g.num_edges() == 0) {
            batch.push_back(EdgeDelta::Insert(
                static_cast<VertexId>(rng.Uniform(g.num_vertices())),
                static_cast<VertexId>(rng.Uniform(g.num_vertices()))));
          } else {
            // Delete a random currently-present edge (sampled off a
            // compacted copy so the pick is valid for the live graph).
            EvolvingGraph copy = g;
            auto current = copy.Current();
            ASSERT_TRUE(current.ok());
            const std::vector<Edge> edges = (*current)->ToEdgeList();
            const Edge& victim = edges[rng.Uniform(edges.size())];
            batch.push_back(EdgeDelta::Delete(victim.src, victim.dst));
          }
          // One mutation per batch when deleting: a second delete of the
          // same pick could over-delete and invalidate the batch.
          if (kind >= 6) break;
        }
        ASSERT_TRUE(g.Apply(batch).ok());
      }
      // g's own compactions (explicit or automatic) derive from its
      // previous base.
      expect_derived(previous, g.base());
      EvolvingGraph copy = g;
      const Graph parent = copy.base();
      auto current = copy.Current();
      ASSERT_TRUE(current.ok());
      expect_derived(parent, **current);
      expect_matches_cold(**current, MergedEdges(g));
      Snapshot snap;
      snap.edges = (*current)->ToEdgeList();
      snap.fp = g.VersionFingerprint();
      // Compaction preserves the version, and the version always equals
      // the compacted edge set's hash.
      EXPECT_EQ(copy.VersionFingerprint(), snap.fp);
      EXPECT_EQ((*current)->EdgeSetHash(), snap.fp);
      snapshots.push_back(std::move(snap));
    }
  }
  EXPECT_GT(weighted_flips, 0);
  EXPECT_GT(unweighted_flips, 0);
  EXPECT_GT(dirty_rows_with_parallel_edges, 0);
  EXPECT_GT(dirty_rows_with_self_loops, 0);
  EXPECT_GT(dirty_rows_emptied, 0);

  int equal_pairs = 0;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    for (size_t j = i + 1; j < snapshots.size(); ++j) {
      const bool same_edges = snapshots[i].edges == snapshots[j].edges;
      const bool same_fp = snapshots[i].fp == snapshots[j].fp;
      EXPECT_EQ(same_edges, same_fp)
          << "snapshot " << i << " vs " << j << ": edge sets "
          << (same_edges ? "equal" : "differ") << " but fingerprints "
          << (same_fp ? "equal" : "differ");
      equal_pairs += same_edges ? 1 : 0;
    }
  }
  // The walks share a base and revisit states (insert then delete), so
  // the iff has to have been exercised in both directions.
  EXPECT_GT(equal_pairs, 0);
}

// Insert-then-delete of the same edge is a version no-op even when a
// compaction lands between the two mutations.
TEST(DeltaVersioningProperty, CancellationSurvivesInterposedCompaction) {
  const Graph base =
      GeneratePreferentialAttachment({80, 3, 0.3, 73}).MoveValue();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EvolvingGraph g(base);
    Rng rng(seed);
    const auto src = static_cast<VertexId>(rng.Uniform(80));
    const auto dst = static_cast<VertexId>(rng.Uniform(80));
    const uint64_t fp0 = g.VersionFingerprint();
    ASSERT_TRUE(g.Apply({EdgeDelta::Insert(src, dst)}).ok());
    if (seed % 2 == 0) ASSERT_TRUE(g.Compact().ok());
    ASSERT_TRUE(g.Apply({EdgeDelta::Delete(src, dst)}).ok());
    EXPECT_EQ(g.VersionFingerprint(), fp0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace predict
