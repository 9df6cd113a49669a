// Tests for algorithms/: PageRank vs. a reference power iteration,
// connected components vs. union-find, semi-clustering invariants, top-k
// vs. brute-force reachability, neighborhood estimation accuracy, and the
// type-erased runner registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

#include "algorithms/connected_components.h"
#include "algorithms/neighborhood.h"
#include "algorithms/pagerank.h"
#include "algorithms/runner.h"
#include "algorithms/semiclustering.h"
#include "algorithms/topk_ranking.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "graph/transforms.h"

namespace predict {
namespace {

bsp::EngineOptions FastEngine(uint32_t workers = 4) {
  bsp::EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;
  options.cost_profile.noise_sigma = 0.0;
  options.cost_profile.setup_seconds = 0.0;
  options.cost_profile.read_bytes_per_second = 0.0;
  options.cost_profile.write_bytes_per_second = 0.0;
  return options;
}

// Reference PageRank: synchronous power iteration with the paper's §4.1
// formula and average-delta convergence.
std::pair<std::vector<double>, int> ReferencePageRank(const Graph& g, double d,
                                                      double tau,
                                                      int max_iters = 500) {
  const uint64_t n = g.num_vertices();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  int iterations = 1;  // superstep 0 (initial sends) counts as the first
  for (int it = 1; it < max_iters; ++it) {
    ++iterations;
    std::fill(next.begin(), next.end(),
              (1.0 - d) / static_cast<double>(n));
    for (VertexId v = 0; v < n; ++v) {
      const uint64_t degree = g.out_degree(v);
      if (degree == 0) continue;
      const double share = d * rank[v] / static_cast<double>(degree);
      for (const VertexId u : g.out_neighbors(v)) next[u] += share;
    }
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta / static_cast<double>(n) < tau) break;
  }
  return {rank, iterations};
}

// ---------------------------------------------------------------- PageRank

TEST(PageRankTest, MatchesReferenceOnScaleFreeGraph) {
  const Graph g = GeneratePreferentialAttachment({3000, 5, 0.3, 3}).MoveValue();
  const double tau = 1e-9;
  auto result = RunPageRank(g, {{"tau", tau}}, FastEngine());
  ASSERT_TRUE(result.ok());
  const auto [expected, expected_iters] = ReferencePageRank(g, 0.85, tau);
  ASSERT_EQ(result->ranks.size(), expected.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(result->ranks[v], expected[v], 1e-10);
  }
  EXPECT_EQ(result->stats.num_supersteps(), expected_iters);
}

TEST(PageRankTest, UniformRankOnCompleteGraph) {
  const Graph g = GenerateComplete(10).MoveValue();
  auto result = RunPageRank(g, {{"tau", 1e-12}}, FastEngine());
  ASSERT_TRUE(result.ok());
  for (const double r : result->ranks) EXPECT_NEAR(r, 0.1, 1e-9);
}

TEST(PageRankTest, RanksSumToOneWithoutDanglingVertices) {
  const Graph g = GeneratePreferentialAttachment({2000, 4, 0.5, 7}).MoveValue();
  // Preferential attachment leaves no dangling vertices, so no rank leaks.
  auto result = RunPageRank(g, {{"tau", 1e-12}}, FastEngine());
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const double r : result->ranks) total += r;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(PageRankTest, HubOutranksSpokesInStar) {
  const Graph g = GenerateStar(20, /*bidirectional=*/true).MoveValue();
  auto result = RunPageRank(g, {{"tau", 1e-10}}, FastEngine());
  ASSERT_TRUE(result.ok());
  for (VertexId v = 1; v < 20; ++v) {
    EXPECT_GT(result->ranks[0], result->ranks[v]);
  }
}

TEST(PageRankTest, SmallerTauNeedsMoreIterations) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.3, 5}).MoveValue();
  auto coarse = RunPageRank(g, {{"tau", 1e-6}}, FastEngine());
  auto fine = RunPageRank(g, {{"tau", 1e-10}}, FastEngine());
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_LT(coarse->stats.num_supersteps(), fine->stats.num_supersteps());
}

TEST(PageRankTest, TauZeroRunsToMaxSupersteps) {
  const Graph g = GenerateComplete(5).MoveValue();
  bsp::EngineOptions engine = FastEngine();
  engine.max_supersteps = 7;
  auto result = RunPageRank(g, {{"tau", 0.0}}, engine);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_supersteps(), 7);
  EXPECT_EQ(result->stats.halt_reason, bsp::HaltReason::kMaxSupersteps);
}

TEST(PageRankTest, RejectsUnknownConfigKey) {
  const Graph g = GenerateComplete(5).MoveValue();
  EXPECT_TRUE(
      RunPageRank(g, {{"bogus", 1.0}}, FastEngine()).status().IsInvalidArgument());
}

TEST(PageRankTest, DeltaAggregateDecreasesMonotonicallyEventually) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.3, 5}).MoveValue();
  auto result = RunPageRank(g, {{"tau", 1e-10}}, FastEngine());
  ASSERT_TRUE(result.ok());
  const auto& steps = result->stats.supersteps;
  ASSERT_GE(steps.size(), 4u);
  // After mixing starts, the delta shrinks superstep over superstep.
  for (size_t s = 3; s < steps.size(); ++s) {
    EXPECT_LT(steps[s].aggregates.at(PageRankProgram::kDeltaAggregate),
              steps[s - 1].aggregates.at(PageRankProgram::kDeltaAggregate));
  }
}

// ---------------------------------------------------- connected components

TEST(ConnectedComponentsTest, MatchesUnionFind) {
  GraphBuilder b(12);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(5, 4);
  b.AddEdge(6, 7);
  b.AddEdge(8, 6);
  // 9, 10, 11 isolated.
  const Graph g = b.Build().MoveValue();
  auto result = RunConnectedComponents(g, FastEngine(3));
  ASSERT_TRUE(result.ok());
  const auto expected = WeaklyConnectedComponents(g);
  for (VertexId v = 0; v < 12; ++v) {
    for (VertexId u = 0; u < 12; ++u) {
      EXPECT_EQ(result->labels[v] == result->labels[u],
                expected[v] == expected[u])
          << "vertices " << v << "," << u;
    }
  }
}

TEST(ConnectedComponentsTest, LabelsAreComponentMinima) {
  GraphBuilder b(5);
  b.AddEdge(4, 2);
  b.AddEdge(2, 3);
  const Graph g = b.Build().MoveValue();
  auto result = RunConnectedComponents(g, FastEngine(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels[2], 2u);
  EXPECT_EQ(result->labels[3], 2u);
  EXPECT_EQ(result->labels[4], 2u);
  EXPECT_EQ(result->labels[0], 0u);
  EXPECT_EQ(result->labels[1], 1u);
}

TEST(ConnectedComponentsTest, ChainTakesDiameterSupersteps) {
  const Graph g = GenerateChain(20).MoveValue();
  auto result = RunConnectedComponents(g, FastEngine(2));
  ASSERT_TRUE(result.ok());
  // Label 0 must travel 19 hops.
  EXPECT_GE(result->stats.num_supersteps(), 19);
  for (const VertexId label : result->labels) EXPECT_EQ(label, 0u);
}

TEST(ConnectedComponentsTest, MessageCountDecaysAcrossSupersteps) {
  // The paper's "sparse computation" pattern: early supersteps move many
  // labels, late ones only a trickle. A long path maximizes the tail —
  // label 0 crawls one hop per superstep while everyone else is settled.
  const Graph g = GenerateChain(300).MoveValue();
  bsp::EngineOptions engine = FastEngine();
  engine.max_supersteps = 400;
  auto result = RunConnectedComponents(g, engine);
  ASSERT_TRUE(result.ok());
  const auto& steps = result->stats.supersteps;
  ASSERT_GE(steps.size(), 3u);
  // The first superstep floods every edge; the tail moves only the last
  // few label improvements.
  uint64_t smallest_nonzero = UINT64_MAX;
  for (size_t s = 1; s < steps.size(); ++s) {
    const uint64_t messages = steps[s].Totals().total_messages();
    if (messages > 0) smallest_nonzero = std::min(smallest_nonzero, messages);
  }
  const uint64_t first = steps[0].Totals().total_messages();
  ASSERT_NE(smallest_nonzero, UINT64_MAX);
  EXPECT_GT(first, 10 * smallest_nonzero);
}

// ----------------------------------------------------------- semiclustering

TEST(SemiClusteringTest, ScoreFormula) {
  SemiCluster c;
  c.members = {1, 2, 3};
  c.internal_weight = 3.0;  // triangle
  c.boundary_weight = 2.0;
  // S = (3 - 0.1*2) / (3*2/2) = 2.8 / 3.
  EXPECT_NEAR(c.Score(0.1), 2.8 / 3.0, 1e-12);
}

TEST(SemiClusteringTest, SingletonScoreUsesDenominatorOne) {
  SemiCluster c;
  c.members = {4};
  c.internal_weight = 0.0;
  c.boundary_weight = 5.0;
  EXPECT_NEAR(c.Score(0.2), -1.0, 1e-12);
}

TEST(SemiClusteringTest, ContainsVertexUsesBinarySearch) {
  SemiCluster c;
  c.members = {2, 5, 9};
  EXPECT_TRUE(c.ContainsVertex(5));
  EXPECT_FALSE(c.ContainsVertex(4));
}

TEST(SemiClusteringTest, FindsCliqueOnCliquePlusBridge) {
  // Two 4-cliques joined by one bridge edge. With f_b small, each clique
  // is the best semi-cluster for its members.
  GraphBuilder b(8);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) b.AddUndirectedEdge(i, j);
  }
  for (VertexId i = 4; i < 8; ++i) {
    for (VertexId j = i + 1; j < 8; ++j) b.AddUndirectedEdge(i, j);
  }
  b.AddUndirectedEdge(3, 4);  // bridge
  const Graph g = b.Build().MoveValue();
  AlgorithmConfig config = {{"v_max", 4}, {"f_b", 0.05}, {"tau", 0.0001}};
  auto result = RunSemiClustering(g, config, FastEngine(3));
  ASSERT_TRUE(result.ok());
  // Vertex 0's best cluster should be exactly clique {0,1,2,3}.
  const auto& clusters = result->clusters[0].clusters;
  ASSERT_FALSE(clusters.empty());
  EXPECT_EQ(clusters[0].members, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(SemiClusteringTest, ClusterSizeBoundedByVmax) {
  const Graph g = GenerateComplete(12).MoveValue();
  AlgorithmConfig config = {{"v_max", 3}, {"tau", 0.001}};
  auto result = RunSemiClustering(g, config, FastEngine(3));
  ASSERT_TRUE(result.ok());
  for (const SemiClusterValue& value : result->clusters) {
    for (const SemiCluster& cluster : value.clusters) {
      EXPECT_LE(cluster.members.size(), 3u);
    }
  }
}

TEST(SemiClusteringTest, EveryVertexKeepsAtMostCmaxClustersContainingIt) {
  const Graph g = GeneratePreferentialAttachment({500, 4, 0.4, 2}).MoveValue();
  AlgorithmConfig config = {{"c_max", 2}, {"tau", 0.01}};
  auto result = RunSemiClustering(g, config, FastEngine(3));
  ASSERT_TRUE(result.ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& clusters = result->clusters[v].clusters;
    EXPECT_LE(clusters.size(), 2u);
    for (const SemiCluster& cluster : clusters) {
      EXPECT_TRUE(cluster.ContainsVertex(v));
    }
  }
}

TEST(SemiClusteringTest, MessageBytesGrowWithClusterSize) {
  SemiClusteringProgram program(
      ResolveConfig(SemiClusteringSpec(), {}).MoveValue(), 1);
  SemiCluster small, large;
  small.members = {1};
  large.members = {1, 2, 3, 4, 5};
  const SemiClusterMessage small_msg =
      SemiClusterMessage::Pack(std::vector<SemiCluster>{small});
  const SemiClusterMessage large_msg =
      SemiClusterMessage::Pack(std::vector<SemiCluster>{large});
  EXPECT_GT(program.MessageBytes(large_msg), program.MessageBytes(small_msg));
}

TEST(SemiClusteringTest, DeterministicAcrossRuns) {
  const Graph g = GeneratePreferentialAttachment({800, 4, 0.4, 6}).MoveValue();
  auto a = RunSemiClustering(g, {}, FastEngine(3));
  auto b = RunSemiClustering(g, {}, FastEngine(3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->stats.num_supersteps(), b->stats.num_supersteps());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(a->clusters[v].clusters.size(), b->clusters[v].clusters.size());
    for (size_t i = 0; i < a->clusters[v].clusters.size(); ++i) {
      EXPECT_EQ(a->clusters[v].clusters[i].members,
                b->clusters[v].clusters[i].members);
    }
  }
}

// ------------------------------------------------------------------ top-k

// Brute force: for every vertex, the k largest ranks among vertices that
// can reach it (including itself).
std::vector<std::vector<double>> BruteForceTopK(const Graph& g,
                                                const std::vector<double>& ranks,
                                                size_t k) {
  const uint64_t n = g.num_vertices();
  std::vector<std::vector<double>> result(n);
  for (VertexId src = 0; src < n; ++src) {
    // BFS forward: src's rank reaches everything reachable from src.
    std::vector<bool> visited(n, false);
    std::queue<VertexId> queue;
    queue.push(src);
    visited[src] = true;
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      result[v].push_back(ranks[src]);
      for (const VertexId u : g.out_neighbors(v)) {
        if (!visited[u]) {
          visited[u] = true;
          queue.push(u);
        }
      }
    }
  }
  for (auto& list : result) {
    std::sort(list.begin(), list.end(), std::greater<double>());
    if (list.size() > k) list.resize(k);
  }
  return result;
}

TEST(TopKTest, MatchesBruteForceOnSmallGraph) {
  const Graph g = GeneratePreferentialAttachment({200, 3, 0.3, 4}).MoveValue();
  // Distinct ranks so comparisons are unambiguous.
  std::vector<double> ranks(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ranks[v] = 1.0 + static_cast<double>(v) * 0.001;
  }
  const size_t k = 5;
  AlgorithmConfig config = {{"k", static_cast<double>(k)}, {"tau", 0.0}};
  bsp::EngineOptions engine = FastEngine(3);
  engine.max_supersteps = 300;
  auto result = RunTopKRanking(g, config, engine, ranks);
  ASSERT_TRUE(result.ok());
  const auto expected = BruteForceTopK(g, ranks, k);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& list = result->lists[v].entries;
    ASSERT_EQ(list.size(), expected[v].size()) << "vertex " << v;
    for (size_t i = 0; i < list.size(); ++i) {
      EXPECT_DOUBLE_EQ(list[i].rank, expected[v][i]) << "vertex " << v;
    }
  }
}

TEST(TopKTest, ListsSortedDescendingAndBounded) {
  const Graph g = GeneratePreferentialAttachment({1000, 4, 0.3, 5}).MoveValue();
  auto result = RunTopKRanking(g, {{"k", 3.0}}, FastEngine());
  ASSERT_TRUE(result.ok());
  for (const TopKValue& value : result->lists) {
    EXPECT_LE(value.entries.size(), 3u);
    for (size_t i = 1; i < value.entries.size(); ++i) {
      EXPECT_GE(value.entries[i - 1].rank, value.entries[i].rank);
    }
  }
}

TEST(TopKTest, OriginsAreUnique) {
  const Graph g = GeneratePreferentialAttachment({500, 4, 0.3, 6}).MoveValue();
  auto result = RunTopKRanking(g, {{"k", 5.0}}, FastEngine());
  ASSERT_TRUE(result.ok());
  for (const TopKValue& value : result->lists) {
    std::set<VertexId> origins;
    for (const RankEntry& entry : value.entries) {
      EXPECT_TRUE(origins.insert(entry.origin).second);
    }
  }
}

TEST(TopKTest, ComputesRanksWhenNotProvided) {
  const Graph g = GeneratePreferentialAttachment({500, 4, 0.3, 7}).MoveValue();
  auto result = RunTopKRanking(g, {}, FastEngine());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.num_supersteps(), 1);
}

TEST(TopKTest, RejectsWrongRankVectorSize) {
  const Graph g = GenerateComplete(5).MoveValue();
  EXPECT_TRUE(RunTopKRanking(g, {}, FastEngine(), {1.0, 2.0})
                  .status()
                  .IsInvalidArgument());
}

TEST(TopKTest, RejectsCapacityOutsideOneToMax) {
  const Graph g = GenerateComplete(5).MoveValue();
  for (const double k : {0.0, static_cast<double>(kMaxTopK) + 1.0}) {
    SCOPED_TRACE(k);
    EXPECT_TRUE(
        RunTopKRanking(g, {{"k", k}}, FastEngine()).status().IsInvalidArgument());
  }
  auto full = RunTopKRanking(g, {{"k", static_cast<double>(kMaxTopK)}},
                             FastEngine());
  ASSERT_TRUE(full.ok());
  for (const TopKValue& value : full->lists) {
    EXPECT_EQ(value.entries.size(), 5u);  // every vertex reaches all five
  }
}

TEST(TopKTest, MessageCountDecaysAcrossSupersteps) {
  const Graph g = GeneratePreferentialAttachment({3000, 5, 0.3, 8}).MoveValue();
  auto result = RunTopKRanking(g, {{"tau", 0.001}}, FastEngine());
  ASSERT_TRUE(result.ok());
  const auto& steps = result->stats.supersteps;
  ASSERT_GE(steps.size(), 3u);
  EXPECT_GT(steps[0].Totals().total_messages(),
            steps.back().Totals().total_messages());
}

// ------------------------------------------------------------ neighborhood

TEST(NeighborhoodTest, EstimatesWithinToleranceOnSmallGraph) {
  const Graph g = GeneratePreferentialAttachment({400, 4, 0.5, 3}).MoveValue();
  auto result = RunNeighborhoodEstimation(g, {{"tau", 0.0}}, FastEngine());
  ASSERT_TRUE(result.ok());
  // The graph is connected and undirected for NH, so every vertex
  // eventually reaches all 400. FM with 16 registers: ~25% typical error.
  double mean_estimate = 0.0;
  for (const double estimate : result->neighborhood_sizes) {
    mean_estimate += estimate;
  }
  mean_estimate /= static_cast<double>(result->neighborhood_sizes.size());
  EXPECT_NEAR(mean_estimate, 400.0, 160.0);
}

TEST(NeighborhoodTest, EstimateCardinalityMonotonicInSketchBits) {
  NeighborhoodValue sparse, dense;
  for (size_t r = 0; r < kNeighborhoodRegisters; ++r) {
    sparse.sketch[r] = 0b1;      // lowest zero at 1
    dense.sketch[r] = 0b111111;  // lowest zero at 6
  }
  EXPECT_GT(EstimateCardinality(dense), EstimateCardinality(sparse));
}

TEST(NeighborhoodTest, ConvergesOnChainSlowly) {
  const Graph g = GenerateChain(30).MoveValue();
  auto result = RunNeighborhoodEstimation(g, {{"tau", 0.0}}, FastEngine(2));
  ASSERT_TRUE(result.ok());
  // Sketches must propagate along the chain: at least ~diameter supersteps.
  EXPECT_GE(result->stats.num_supersteps(), 15);
}

TEST(NeighborhoodTest, HigherTauStopsEarlier) {
  const Graph g = GeneratePreferentialAttachment({2000, 4, 0.3, 9}).MoveValue();
  auto strict = RunNeighborhoodEstimation(g, {{"tau", 0.0001}}, FastEngine());
  auto loose = RunNeighborhoodEstimation(g, {{"tau", 0.2}}, FastEngine());
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_LE(loose->stats.num_supersteps(), strict->stats.num_supersteps());
}

// ----------------------------------------------------------------- runner

TEST(RunnerTest, AllBuiltinsRegistered) {
  const auto names = RegisteredAlgorithmNames();
  for (const char* expected :
       {"pagerank", "semiclustering", "topk_ranking", "connected_components",
        "neighborhood"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(RunnerTest, UnknownAlgorithmIsNotFound) {
  EXPECT_TRUE(FindAlgorithmSpec("kmeans").status().IsNotFound());
  const Graph g = GenerateComplete(4).MoveValue();
  RunOptions options;
  EXPECT_TRUE(RunAlgorithmByName("kmeans", g, options).status().IsNotFound());
}

TEST(RunnerTest, SpecsDeclareConvergenceKinds) {
  EXPECT_EQ(FindAlgorithmSpec("pagerank")->convergence,
            ConvergenceKind::kAbsoluteAggregate);
  EXPECT_EQ(FindAlgorithmSpec("semiclustering")->convergence,
            ConvergenceKind::kRelativeRatio);
  EXPECT_EQ(FindAlgorithmSpec("topk_ranking")->convergence,
            ConvergenceKind::kRelativeRatio);
  EXPECT_EQ(FindAlgorithmSpec("connected_components")->convergence,
            ConvergenceKind::kFixedPoint);
  EXPECT_EQ(FindAlgorithmSpec("neighborhood")->convergence,
            ConvergenceKind::kRelativeRatio);
}

TEST(RunnerTest, RunsPageRankAndReturnsRanks) {
  const Graph g = GenerateComplete(6).MoveValue();
  RunOptions options;
  options.engine = FastEngine(2);
  options.config_overrides = {{"tau", 1e-10}};
  auto result = RunAlgorithmByName("pagerank", g, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.num_supersteps(), 0);
  // The registry returns the profile; the ranks are RunPageRank's own.
  auto pr = RunPageRank(g, options.config_overrides, options.engine);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->ranks.size(), 6u);
  EXPECT_EQ(pr->stats.num_supersteps(), result->stats.num_supersteps());
}

TEST(RunnerTest, ConnectedComponentsRejectsConfig) {
  const Graph g = GenerateComplete(4).MoveValue();
  RunOptions options;
  options.engine = FastEngine(2);
  options.config_overrides = {{"tau", 0.1}};
  EXPECT_TRUE(RunAlgorithmByName("connected_components", g, options)
                  .status()
                  .IsInvalidArgument());
}

TEST(RunnerTest, RegisterCustomAlgorithm) {
  AlgorithmSpec spec;
  spec.name = "custom_noop_for_test";
  spec.convergence = ConvergenceKind::kFixedPoint;
  ASSERT_TRUE(RegisterAlgorithm(spec,
                                [](const Graph&, const RunOptions&)
                                    -> Result<AlgorithmRunResult> {
                                  AlgorithmRunResult result;
                                  result.stats.total_seconds = 1.0;
                                  return result;
                                })
                  .ok());
  EXPECT_TRUE(FindAlgorithmSpec("custom_noop_for_test").ok());
  // Double registration fails.
  EXPECT_TRUE(RegisterAlgorithm(spec, nullptr).IsAlreadyExists());
  // Empty name fails.
  EXPECT_TRUE(RegisterAlgorithm(AlgorithmSpec{}, nullptr).IsInvalidArgument());
}

TEST(RunnerTest, ResolveConfigMergesAndValidates) {
  const AlgorithmSpec& spec = SemiClusteringSpec();
  auto merged = ResolveConfig(spec, {{"v_max", 5.0}});
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged->at("v_max"), 5.0);
  EXPECT_DOUBLE_EQ(merged->at("f_b"), 0.1);  // default untouched
  EXPECT_TRUE(ResolveConfig(spec, {{"nope", 1.0}}).status().IsInvalidArgument());
}

TEST(RunnerTest, GetConfigValue) {
  const AlgorithmConfig config = {{"tau", 0.5}};
  EXPECT_DOUBLE_EQ(GetConfigValue(config, "tau").value(), 0.5);
  EXPECT_TRUE(GetConfigValue(config, "missing").status().IsNotFound());
}

TEST(RunnerTest, ConvergenceKindNames) {
  EXPECT_STREQ(ConvergenceKindName(ConvergenceKind::kAbsoluteAggregate),
               "absolute_aggregate");
  EXPECT_STREQ(ConvergenceKindName(ConvergenceKind::kRelativeRatio),
               "relative_ratio");
  EXPECT_STREQ(ConvergenceKindName(ConvergenceKind::kFixedPoint),
               "fixed_point");
}

}  // namespace
}  // namespace predict
