// Message combiners and the kernels' fast paths, pinned bit for bit.
//
// A program whose concrete type declares Combine() gets one inbox slot
// per messaged vertex, folded in delivery order (as each message is sent
// on an inline run, at the barrier on a pooled one); run through the
// VertexProgram<V, M> base pointer, the same program gets every message
// placed. The combiner contract says Compute's result on the folded
// inbox equals its result on the full one, and every counter is charged
// at send time, so the two runs must agree on every final value and the
// whole run fingerprint, for every superstep path, host thread count and
// partitioner. Five programs combine: PageRank, RWR, connected
// components, neighborhood and top-k. The counted barrier work is where
// the runs differ: the messages staged through an outbox, checked across
// that matrix, and the payload slots written, pinned for PageRank and
// top-k.
//
// The kernel goldens pin semi-clustering's and top-k's final values.
// Semi-clustering ranks its candidates through handles instead of
// copies, in reused scratch and with its adjacency searched in place;
// top-k stops merging a message once no later entry can enter the list,
// and folds origin-only lists on send. All are pure host-time
// optimisations, so the final clusters (members plus the bit patterns of
// both weights), the final top-k lists (rank bits plus origins) and the
// full run fingerprint must equal the constants below, which were
// captured from the copying selection, the exhaustive merge and, for
// k = kMaxTopK, the uncombined shared-list messages.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/neighborhood.h"
#include "algorithms/pagerank.h"
#include "algorithms/rwr_proximity.h"
#include "algorithms/semiclustering.h"
#include "algorithms/topk_ranking.h"
#include "bsp/engine.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "sampling/sampler.h"
#include "tests/run_fingerprint.h"

namespace predict {
namespace {

using bsp::Engine;
using bsp::EngineOptions;
using bsp::PartitionStrategy;
using bsp::SuperstepPath;
using testing::FingerprintRunStats;
using testing::FnvMix;
using testing::FnvMixDouble;

// The determinism goldens' graphs (tests/determinism_test.cc).
const Graph& GoldenScGraph() {
  static const Graph g =
      GeneratePreferentialAttachment({800, 4, 0.4, 7}).MoveValue();
  return g;
}
const Graph& GoldenPrGraph() {
  static const Graph g =
      GeneratePreferentialAttachment({4000, 6, 0.3, 29}).MoveValue();
  return g;
}
const Graph& GoldenCcGraph() {
  static const Graph g =
      GeneratePreferentialAttachment({3000, 3, 0.5, 31}).MoveValue();
  return g;
}

// A sample run's input: a BRJ sample of a scaled-down wiki stand-in.
const Graph& SampledStandIn() {
  static const Graph g = [] {
    const Graph wiki = MakeDataset("wiki", 0.2).MoveValue();
    SamplerOptions options;
    options.sampling_ratio = 0.1;
    options.seed = 5;
    return SampleGraph(wiki, options).MoveValue().subgraph;
  }();
  return g;
}

EngineOptions GoldenOptions(int num_threads) {
  EngineOptions options;
  options.num_workers = 29;
  options.num_threads = num_threads;
  return options;
}

// ------------------------------------------- combined vs uncombined

std::vector<const Graph*> EquivalenceGraphs() {
  return {&GoldenPrGraph(), &GoldenCcGraph(), &GoldenScGraph(),
          &SampledStandIn()};
}

uint64_t FingerprintTopK(const std::vector<TopKValue>& lists, uint64_t h) {
  for (const TopKValue& list : lists) {
    h = FnvMix(h, list.entries.size());
    for (const RankEntry& entry : list.entries) {
      h = FnvMixDouble(h, entry.rank);
      h = FnvMix(h, entry.origin);
    }
  }
  return h;
}

// The final values' digest: the bytes of flat values, and the entries of
// top-k lists, whose vectors hold their entries on the heap.
template <typename T>
uint64_t FingerprintValues(const std::vector<T>& values) {
  return testing::FnvMixBytes(testing::kFnvOffsetBasis, values.data(),
                              values.size() * sizeof(T));
}
uint64_t FingerprintValues(const std::vector<TopKValue>& lists) {
  return FingerprintTopK(lists, testing::kFnvOffsetBasis);
}

// The input ranks RunTopKRanking's PageRank pre-pass computes.
std::vector<double> TopKInputRanks(const Graph& graph,
                                   const AlgorithmConfig& config) {
  EngineOptions options;
  options.num_workers = 29;
  options.num_threads = 0;
  options.max_supersteps = static_cast<int>(config.at("rank_iterations"));
  return RunPageRank(graph, {{"tau", 0.0}}, options).MoveValue().ranks;
}

// Runs a fresh program from `make` through its concrete type (combined)
// and through the base pointer (every message placed) across paths x
// host threads x partitioners; both runs must agree on the run
// fingerprint and on every final vertex value.
template <typename V, typename M, typename Make>
void ExpectCombinerTransparent(const Graph& graph, const Make& make) {
  for (const SuperstepPath path :
       {SuperstepPath::kSparse, SuperstepPath::kDense,
        SuperstepPath::kAdaptive}) {
    for (const int threads : {0, 1, 2, 8}) {
      for (const PartitionStrategy partition :
           {PartitionStrategy::kHashModulo, PartitionStrategy::kContiguousRange,
            PartitionStrategy::kGreedyEdgeBalanced}) {
        SCOPED_TRACE(std::string(bsp::SuperstepPathName(path)) + " threads=" +
                     std::to_string(threads) + " " +
                     PartitionStrategyName(partition));
        EngineOptions options;
        options.num_workers = 29;
        options.num_threads = threads;
        options.superstep_path = path;
        options.partition = partition;

        auto combined_program = make();
        Engine<V, M> combined(options);
        auto combined_stats = combined.Run(graph, &combined_program);
        auto placed_program = make();
        Engine<V, M> placed(options);
        auto placed_stats = placed.Run(
            graph, static_cast<bsp::VertexProgram<V, M>*>(&placed_program));
        ASSERT_TRUE(combined_stats.ok());
        ASSERT_TRUE(placed_stats.ok());
        EXPECT_EQ(FingerprintRunStats(*combined_stats),
                  FingerprintRunStats(*placed_stats));
        EXPECT_EQ(FingerprintValues(combined.vertex_values()),
                  FingerprintValues(placed.vertex_values()));
        // Each barrier drains what its superstep sent: an inline combined
        // run folds every message as it is sent and stages none, a pooled
        // or placed run stages every one.
        ASSERT_EQ(combined_stats->num_supersteps(),
                  placed_stats->num_supersteps());
        for (int s = 0; s < placed_stats->num_supersteps(); ++s) {
          const uint64_t messages =
              placed_stats->supersteps[s].Totals().total_messages();
          EXPECT_EQ(combined_stats->supersteps[s].barrier_work.messages_staged,
                    threads == 0 ? 0 : messages)
              << "superstep " << s;
          EXPECT_EQ(placed_stats->supersteps[s].barrier_work.messages_staged,
                    messages)
              << "superstep " << s;
        }
      }
    }
  }
}

TEST(CombinerTest, PageRankCombinedMatchesUncombined) {
  const AlgorithmConfig config =
      ResolveConfig(PageRankSpec(), {{"tau", 1e-6}}).MoveValue();
  for (const Graph* graph : EquivalenceGraphs()) {
    ExpectCombinerTransparent<PageRankValue, double>(
        *graph, [&] { return PageRankProgram(config); });
  }
}

TEST(CombinerTest, RwrCombinedMatchesUncombined) {
  const AlgorithmConfig config =
      ResolveConfig(RwrProximitySpec(), {{"tau", 1e-6}}).MoveValue();
  for (const Graph* graph : EquivalenceGraphs()) {
    const VertexId source = ResolveRwrSource(config, *graph);
    ExpectCombinerTransparent<RwrValue, double>(
        *graph, [&] { return RwrProximityProgram(config, source); });
  }
}

TEST(CombinerTest, ConnectedComponentsCombinedMatchesUncombined) {
  for (const Graph* graph : EquivalenceGraphs()) {
    const Graph undirected = ToUndirected(*graph).MoveValue();
    ExpectCombinerTransparent<ComponentValue, VertexId>(
        undirected, [] { return ConnectedComponentsProgram(); });
  }
}

TEST(CombinerTest, NeighborhoodCombinedMatchesUncombined) {
  const AlgorithmConfig config =
      ResolveConfig(NeighborhoodSpec(), {}).MoveValue();
  for (const Graph* graph : EquivalenceGraphs()) {
    const Graph undirected = ToUndirected(*graph).MoveValue();
    ExpectCombinerTransparent<NeighborhoodValue, NeighborhoodMessage>(
        undirected, [&] { return NeighborhoodProgram(config); });
  }
}

TEST(CombinerTest, TopKCombinedMatchesUncombined) {
  for (const double k : {3.0, 10.0}) {
    SCOPED_TRACE(k);
    const AlgorithmConfig config =
        ResolveConfig(TopKRankingSpec(), {{"k", k}}).MoveValue();
    for (const Graph* graph : EquivalenceGraphs()) {
      const std::vector<double> ranks = TopKInputRanks(*graph, config);
      ExpectCombinerTransparent<TopKValue, TopKMessage>(
          *graph, [&] { return TopKRankingProgram(config, ranks); });
    }
  }
}

// Top-k's saving, as a count: every vertex votes to halt, so a sparse
// superstep's worklist is exactly the vertices messaged before it. An
// inline run stages no message and writes one payload slot per messaged
// vertex, where the placed run writes one per message.
TEST(CombinerTest, InlineTopKWritesOneSlotPerMessagedVertex) {
  const Graph& graph = SampledStandIn();
  const AlgorithmConfig config =
      ResolveConfig(TopKRankingSpec(), {}).MoveValue();
  const std::vector<double> ranks = TopKInputRanks(graph, config);
  EngineOptions options;
  options.num_workers = 29;
  options.num_threads = 0;
  options.superstep_path = SuperstepPath::kSparse;
  TopKRankingProgram program(config, ranks);
  Engine<TopKValue, TopKMessage> engine(options);
  auto stats = engine.Run(graph, &program);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->num_supersteps(), 2);
  uint64_t slots = 0;
  uint64_t messages = 0;
  for (const bsp::SuperstepStats& step : stats->supersteps) {
    SCOPED_TRACE(step.superstep);
    EXPECT_EQ(step.barrier_work.messages_staged, 0u);
    EXPECT_EQ(step.barrier_work.payload_slots,
              step.barrier_work.worklist_entries);
    slots += step.barrier_work.payload_slots;
    messages += step.Totals().total_messages();
  }
  EXPECT_LT(slots, messages);
}

// The saving, as a count: every PageRank vertex with an out-edge sends
// along each of them every superstep, so a vertex is messaged iff it has
// an in-edge. Combined, the barrier writes one payload slot per messaged
// vertex; placed, one per message.
TEST(CombinerTest, CombinedBarrierWritesOneSlotPerMessagedVertex) {
  const Graph& graph = GoldenPrGraph();
  uint64_t messaged = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    messaged += graph.in_degree(v) > 0;
  }
  const AlgorithmConfig config =
      ResolveConfig(PageRankSpec(), {{"tau", 1e-4}}).MoveValue();
  for (const SuperstepPath path :
       {SuperstepPath::kSparse, SuperstepPath::kDense}) {
    SCOPED_TRACE(bsp::SuperstepPathName(path));
    EngineOptions options;
    options.num_workers = 29;
    options.num_threads = 2;
    options.superstep_path = path;

    PageRankProgram combined_program(config);
    Engine<PageRankValue, double> combined(options);
    auto combined_stats = combined.Run(graph, &combined_program);
    PageRankProgram placed_program(config);
    Engine<PageRankValue, double> placed(options);
    auto placed_stats = placed.Run(
        graph, static_cast<bsp::VertexProgram<PageRankValue, double>*>(
                   &placed_program));
    ASSERT_TRUE(combined_stats.ok());
    ASSERT_TRUE(placed_stats.ok());
    ASSERT_EQ(combined_stats->num_supersteps(), placed_stats->num_supersteps());
    ASSERT_GT(combined_stats->num_supersteps(), 2);
    for (int s = 0; s < combined_stats->num_supersteps(); ++s) {
      const bsp::SuperstepStats& c = combined_stats->supersteps[s];
      const bsp::SuperstepStats& p = placed_stats->supersteps[s];
      const uint64_t messages = c.Totals().total_messages();
      EXPECT_EQ(messages, graph.num_edges()) << "superstep " << s;
      EXPECT_EQ(c.barrier_work.payload_slots, messaged) << "superstep " << s;
      EXPECT_EQ(p.barrier_work.payload_slots, messages) << "superstep " << s;
      // The path's own bookkeeping does not depend on combining.
      EXPECT_EQ(c.barrier_work.entries_sorted, p.barrier_work.entries_sorted);
      EXPECT_EQ(c.barrier_work.slots_swept, p.barrier_work.slots_swept);
      EXPECT_EQ(c.barrier_work.worklist_entries,
                p.barrier_work.worklist_entries);
    }
  }
}

// ------------------------------------------------------ kernel goldens

uint64_t FingerprintClusters(const std::vector<SemiClusterValue>& values,
                             uint64_t h) {
  for (const SemiClusterValue& value : values) {
    h = FnvMix(h, value.clusters.size());
    for (const SemiCluster& cluster : value.clusters) {
      h = FnvMix(h, cluster.members.size());
      for (const VertexId m : cluster.members) h = FnvMix(h, m);
      h = FnvMixDouble(h, cluster.internal_weight);
      h = FnvMixDouble(h, cluster.boundary_weight);
    }
  }
  return h;
}

struct KernelGolden {
  const char* graph;
  const char* config;
  uint64_t fingerprint;  // RunStats, then every final vertex value
};

const Graph& GraphByName(const std::string& name) {
  if (name == "sc") return GoldenScGraph();
  if (name == "pr") return GoldenPrGraph();
  return SampledStandIn();
}

TEST(KernelGoldenTest, SemiClusteringFinalClusters) {
  const KernelGolden goldens[] = {
      {"sc", "defaults", 0xbeaf356c908fa5e6ull},
      {"sc", "s3c2v5", 0xc747417e6f7cf8a3ull},
      {"sampled", "defaults", 0x399f0f39e0881390ull},
      {"sampled", "s3c2v5", 0x345f25e5bd57e586ull},
  };
  for (const KernelGolden& golden : goldens) {
    const AlgorithmConfig config =
        std::string(golden.config) == "defaults"
            ? AlgorithmConfig{}
            : AlgorithmConfig{{"s_max", 3}, {"c_max", 2}, {"v_max", 5}};
    for (const int threads : {0, 2}) {
      SCOPED_TRACE(std::string(golden.graph) + " " + golden.config +
                   " threads=" + std::to_string(threads));
      auto sc = RunSemiClustering(GraphByName(golden.graph), config,
                                  GoldenOptions(threads));
      ASSERT_TRUE(sc.ok());
      const uint64_t fp =
          FingerprintClusters(sc->clusters, FingerprintRunStats(sc->stats));
      EXPECT_EQ(fp, golden.fingerprint);
    }
  }
}

TEST(KernelGoldenTest, TopKFinalLists) {
  const KernelGolden goldens[] = {
      {"pr", "k10", 0x67b618f35a446005ull},
      {"pr", "k3", 0xcf8eee25de6f3452ull},
      {"sampled", "k10", 0x6939ad84e1f004acull},
      {"sampled", "k3", 0x4872d4273d3c5621ull},
      {"sampled", "k16", 0x300db85b315f798eull},  // k = kMaxTopK
  };
  for (const KernelGolden& golden : goldens) {
    const AlgorithmConfig config = {{"k", std::stod(golden.config + 1)}};
    for (const int threads : {0, 2}) {
      SCOPED_TRACE(std::string(golden.graph) + " " + golden.config +
                   " threads=" + std::to_string(threads));
      // Empty ranks: RunTopKRanking computes them with its PageRank
      // pre-pass, so the golden also pins that pre-pass.
      auto topk = RunTopKRanking(GraphByName(golden.graph), config,
                                 GoldenOptions(threads));
      ASSERT_TRUE(topk.ok());
      const uint64_t fp =
          FingerprintTopK(topk->lists, FingerprintRunStats(topk->stats));
      EXPECT_EQ(fp, golden.fingerprint);
    }
  }
}

}  // namespace
}  // namespace predict
