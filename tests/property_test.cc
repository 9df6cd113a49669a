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
#include <tuple>
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

// Canonical edge order: (src, dst, weight bits), the order ToEdgeList()
// of a canonical graph yields.
bool CanonicalEdgeLess(const Edge& a, const Edge& b) {
  uint32_t aw;
  uint32_t bw;
  std::memcpy(&aw, &a.weight, sizeof(aw));
  std::memcpy(&bw, &b.weight, sizeof(bw));
  return std::tie(a.src, a.dst, aw) < std::tie(b.src, b.dst, bw);
}

// The test's own model of a version: its edges in canonical order,
// updated by the documented operation rules. An insert adds one edge; a
// delete removes the first (src, dst) edge in canonical order, in the
// version the batch's earlier operations reached. `weight_choices`
// counts the deletes that had a parallel copy of another weight left.
void ApplyToModel(const EdgeDeltaBatch& batch, std::vector<Edge>* edges,
                  int* weight_choices) {
  for (const EdgeDelta& delta : batch) {
    const Edge edge{delta.src, delta.dst, delta.weight};
    if (delta.op == EdgeDelta::Op::kInsert) {
      edges->insert(std::upper_bound(edges->begin(), edges->end(), edge,
                                     CanonicalEdgeLess),
                    edge);
      continue;
    }
    const auto it = std::lower_bound(
        edges->begin(), edges->end(), edge, [](const Edge& e, const Edge& d) {
          return std::tie(e.src, e.dst) < std::tie(d.src, d.dst);
        });
    ASSERT_TRUE(it != edges->end() && it->src == delta.src &&
                it->dst == delta.dst)
        << "model has no edge (" << delta.src << " -> " << delta.dst << ")";
    const auto next = it + 1;
    *weight_choices += next != edges->end() && next->src == delta.src &&
                       next->dst == delta.dst && next->weight != it->weight;
    edges->erase(it);
  }
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Out-rows 0 (+1), a (-2), b (+2), c (-2) and |V|-1 (+1), with
// 0 < a < b < c < |V|-1, so the clean out-ranges between them shift
// right and left in turn within one Apply. The inserts land in in-row 0
// (from b twice and from |V|-1) and in-row |V|-1 (from 0), and the
// deletes leave in-rows in between, so the in side shifts both ways
// too. An empty batch when the model has no such a and c.
EdgeDeltaBatch ShiftBothWaysBatch(const std::vector<Edge>& edges,
                                  uint64_t num_vertices, Rng& rng) {
  const VertexId last = static_cast<VertexId>(num_vertices - 1);
  std::vector<uint64_t> degree(num_vertices, 0);
  for (const Edge& e : edges) ++degree[e.src];
  std::vector<VertexId> low;   // candidates for a
  std::vector<VertexId> high;  // candidates for c
  for (VertexId v = 1; v < last; ++v) {
    if (degree[v] < 2) continue;
    (v < num_vertices / 2 ? low : high).push_back(v);
  }
  if (low.empty() || high.empty()) return {};
  const VertexId a = low[rng.Uniform(low.size())];
  const VertexId c = high[rng.Uniform(high.size())];
  if (c - a < 2) return {};
  const VertexId b = a + 1 + static_cast<VertexId>(rng.Uniform(c - a - 1));
  // The first two out-edges of `src` in the model, deleted.
  const auto delete_two = [&](VertexId src, EdgeDeltaBatch* batch) {
    const auto it = std::find_if(edges.begin(), edges.end(),
                                 [&](const Edge& e) { return e.src == src; });
    batch->push_back(EdgeDelta::Delete(src, it[0].dst));
    batch->push_back(EdgeDelta::Delete(src, it[1].dst));
  };
  EdgeDeltaBatch batch{EdgeDelta::Insert(0, last)};
  delete_two(a, &batch);
  batch.push_back(EdgeDelta::Insert(b, 0));
  batch.push_back(EdgeDelta::Insert(b, 0));
  delete_two(c, &batch);
  batch.push_back(EdgeDelta::Insert(last, 0));
  return batch;
}

// A batch steering the walk through the corner cases of splice
// compaction, by `kind`: 10 a weighted insert (the first one flips an
// unweighted graph to weighted), 11 two parallel copies of a present
// edge, one at its weight and one heavier, plus a self-loop, 12 deleting every occurrence of each edge with a
// weight other than 1.0 (the last one flips the graph back to
// unweighted), 13 deleting a whole row, leaving it at degree 0, 14
// deleting a present edge and re-inserting it, so its row nets out
// (unless a parallel copy has lower weight bits), 15 rows that grow and
// shrink in turn (see ShiftBothWaysBatch). `edges` is the model of the
// current version.
EdgeDeltaBatch CornerCaseBatch(const std::vector<Edge>& edges,
                               uint64_t num_vertices, uint64_t kind,
                               Rng& rng) {
  const auto any_vertex = [&] {
    return static_cast<VertexId>(rng.Uniform(num_vertices));
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
      batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight + 1.0f));
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
  } else if (kind == 15) {
    batch = ShiftBothWaysBatch(edges, num_vertices, rng);
  } else if (!edges.empty()) {
    const Edge& e = edges[rng.Uniform(edges.size())];
    batch.push_back(EdgeDelta::Delete(e.src, e.dst));
    batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight));
  }
  return batch;
}

// Whether some offset moved right and some moved left between two CSR
// offset arrays of one side.
bool ShiftedBothWays(std::span<const uint64_t> before,
                     std::span<const uint64_t> after) {
  bool right = false;
  bool left = false;
  for (size_t v = 0; v < before.size(); ++v) {
    right |= after[v] > before[v];
    left |= after[v] < before[v];
  }
  return right && left;
}

// The version-fingerprint contract: across ANY sequence of insert and
// delete batches, two reached versions have equal Fingerprint()s iff
// their edge multisets are equal. Each random walk keeps its own model
// of the edges (ApplyToModel) and snapshots (model edges, fingerprint)
// after every batch; then all snapshots from all walks are
// cross-compared.
//
// Every version is also checked against a cold canonical rebuild of the
// model's edges (byte-identical CSR arrays, stamped Fingerprint() equal
// to the rebuild's from-scratch one) and against its parent (lineage
// parent = the parent's Fingerprint(), lineage dirty set =
// DirtyOutVertices(parent, version)).
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
  int weight_choices = 0;
  int shifted_both_ways = 0;  // on the out side and the in side
  // `version` is `parent` or a version built from it.
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
  // weightedness flips (insert a weight, then delete it), then continues
  // at random: kinds 1-5 insert, 6-9 delete, 10-15 are corner cases.
  constexpr uint64_t kOpening[] = {10, 12, 11, 13, 14, 15};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EvolvingGraph g(base);
    std::vector<Edge> model = base.ToEdgeList();
    std::sort(model.begin(), model.end(), CanonicalEdgeLess);
    Rng rng(seed * 977);
    for (size_t step = 0; step < 25; ++step) {
      const uint64_t kind = step < std::size(kOpening) ? kOpening[step]
                                                       : 1 + rng.Uniform(15);
      EdgeDeltaBatch batch;
      if (kind >= 10) {
        batch = CornerCaseBatch(model, g.num_vertices(), kind, rng);
      } else {
        const uint64_t batch_size = 1 + rng.Uniform(4);
        for (uint64_t i = 0; i < batch_size; ++i) {
          if (kind < 6 || model.empty()) {
            batch.push_back(EdgeDelta::Insert(
                static_cast<VertexId>(rng.Uniform(g.num_vertices())),
                static_cast<VertexId>(rng.Uniform(g.num_vertices()))));
          } else {
            const Edge& victim = model[rng.Uniform(model.size())];
            batch.push_back(EdgeDelta::Delete(victim.src, victim.dst));
          }
          // One mutation per batch when deleting: a second delete of the
          // same pick could over-delete and invalidate the batch.
          if (kind >= 6) break;
        }
      }
      const Graph parent = **g.Current();
      ASSERT_TRUE(g.Apply(batch).ok());
      ASSERT_NO_FATAL_FAILURE(ApplyToModel(batch, &model, &weight_choices));
      const Graph& version = **g.Current();
      expect_derived(parent, version);
      expect_matches_cold(version, model);
      shifted_both_ways +=
          ShiftedBothWays(parent.out_offsets(), version.out_offsets()) &&
          ShiftedBothWays(parent.in_offsets(), version.in_offsets());
      snapshots.push_back({model, version.Fingerprint()});
    }
  }
  EXPECT_GT(weighted_flips, 0);
  EXPECT_GT(unweighted_flips, 0);
  EXPECT_GT(dirty_rows_with_parallel_edges, 0);
  EXPECT_GT(dirty_rows_with_self_loops, 0);
  EXPECT_GT(dirty_rows_emptied, 0);
  EXPECT_GT(weight_choices, 0);
  EXPECT_GT(shifted_both_ways, 0);

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

}  // namespace
}  // namespace predict
