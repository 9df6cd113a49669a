// Cold-path equivalence suite: the CSR-native transforms, bitmap
// sampler, and parallel statistics must be bit-identical to the
// original (seed) implementations, frozen in coldpath_reference.h. Also pins the two cold-path contracts that are not plain
// equivalence: Graph::Fingerprint() memoization (the full-CSR scan runs
// exactly once per Graph across arbitrarily many SampleKey
// constructions) and SamplerOptionsKey never truncating.
//
// The parallel statistics are additionally checked across thread counts
// {0, 1, 2, 8}: host threads only accelerate the computation, never
// change the result (the repo's standing determinism contract).
//
// The graph readers, where a cold request's input enters, get a
// deterministic mutation test: damaged headers must read or fail with a
// status, never abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include <unistd.h>

#include "bsp/thread_pool.h"
#include "common/rng.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/transforms.h"
#include "pipeline/stages.h"
#include "sampling/sampler.h"
#include "tests/coldpath_reference.h"

namespace predict {
namespace {

// The frozen seed implementations live in tests/coldpath_reference.h
// (shared with bench/cold_path.cc so the equivalence suite and the
// speedup gate pin against one baseline).
namespace refimpl = ::predict::coldpath_reference;

// ===================================================================
// Helpers and fixtures
// ===================================================================

// Bit-level graph equality: structure, weights, fingerprint, and the
// derived in-CSR (order included — algorithms iterate it).
void ExpectGraphsIdentical(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.num_vertices(), expected.num_vertices());
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_EQ(actual.is_weighted(), expected.is_weighted());
  EXPECT_EQ(actual.Fingerprint(), expected.Fingerprint());
  const auto actual_edges = actual.ToEdgeList();
  const auto expected_edges = expected.ToEdgeList();
  ASSERT_EQ(actual_edges.size(), expected_edges.size());
  for (size_t i = 0; i < actual_edges.size(); ++i) {
    ASSERT_EQ(actual_edges[i], expected_edges[i]) << "edge " << i;
  }
  for (VertexId v = 0; v < actual.num_vertices(); ++v) {
    const auto a_in = actual.in_neighbors(v);
    const auto e_in = expected.in_neighbors(v);
    ASSERT_EQ(a_in.size(), e_in.size()) << "in-degree of " << v;
    for (size_t i = 0; i < a_in.size(); ++i) {
      ASSERT_EQ(a_in[i], e_in[i]) << "in-neighbor " << i << " of " << v;
    }
  }
}

// A messy directed multigraph: parallel edges, self-loops, sinks.
Graph MessyGraph(VertexId n, uint64_t num_edges, uint64_t seed,
                 bool weighted) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    const auto src = static_cast<VertexId>(rng.Uniform(n));
    // Bias towards low ids so parallel edges and self-loops occur.
    const auto dst = static_cast<VertexId>(rng.Uniform(n / 4 + 1));
    const float w =
        weighted ? 0.25f * static_cast<float>(1 + rng.Uniform(8)) : 1.0f;
    edges.push_back({src, dst, w});
  }
  return Graph::FromEdges(n, std::move(edges)).MoveValue();
}

// Weighted graph whose unordered pairs carry one weight in both
// directions, so ToUndirected's duplicate resolution cannot be
// order-sensitive.
Graph SymmetricWeightGraph(VertexId n, uint64_t num_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (uint64_t i = 0; i < num_edges; ++i) {
    const auto a = static_cast<VertexId>(rng.Uniform(n));
    const auto b = static_cast<VertexId>(rng.Uniform(n));
    const float w =
        0.5f * static_cast<float>(1 + (std::min(a, b) + std::max(a, b)) % 7);
    edges.push_back({a, b, w});
    if (rng.NextBool(0.4)) edges.push_back({b, a, w});
  }
  return Graph::FromEdges(n, std::move(edges)).MoveValue();
}

std::vector<std::pair<std::string, Graph>> EquivalenceGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back(
      "pa", GeneratePreferentialAttachment({2000, 6, 0.3, 7}).MoveValue());
  graphs.emplace_back("copy", GenerateCopyModelWebGraph(
                                  {1500, 12, 0.7, 0.0, 4, 2000, 11})
                                  .MoveValue());
  graphs.emplace_back("er", GenerateErdosRenyi({1200, 6000, 5}).MoveValue());
  graphs.emplace_back("rmat",
                      GenerateRmat({10, 8192, 0.57, 0.19, 0.19, 3}).MoveValue());
  graphs.emplace_back("chain", GenerateChain(101).MoveValue());
  graphs.emplace_back("star", GenerateStar(64, true).MoveValue());
  graphs.emplace_back("complete", GenerateComplete(12).MoveValue());
  graphs.emplace_back("messy", MessyGraph(300, 2500, 13, false));
  graphs.emplace_back("messy_weighted", MessyGraph(300, 2500, 17, true));
  return graphs;
}

// A deterministic sampled vertex subset in shuffled (non-monotonic)
// order — sampling order defines the subgraph's ids, so it must be
// exercised, not normalized away.
std::vector<VertexId> ShuffledSubset(const Graph& graph, double ratio,
                                     uint64_t seed) {
  Rng rng(seed);
  const uint64_t n = graph.num_vertices();
  const uint64_t k = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(ratio * static_cast<double>(n))));
  const auto picks = rng.SampleWithoutReplacement(n, std::min(k, n));
  return {picks.begin(), picks.end()};
}

// ===================================================================
// Transforms
// ===================================================================

TEST(ColdPathTransforms, InducedSubgraphMatchesReference) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    SCOPED_TRACE(name);
    for (const double ratio : {0.1, 0.5, 1.0}) {
      SCOPED_TRACE(ratio);
      const auto vertices = ShuffledSubset(graph, ratio, 99);
      auto actual = InducedSubgraph(graph, vertices);
      auto expected = refimpl::InducedSubgraph(graph, vertices);
      ASSERT_TRUE(actual.ok());
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(actual->original_id, expected->original_id);
      ExpectGraphsIdentical(actual->graph, expected->graph);
    }
  }
}

TEST(ColdPathTransforms, InducedSubgraphRejectsBadInputLikeReference) {
  const Graph g = GenerateChain(10).MoveValue();
  EXPECT_TRUE(InducedSubgraph(g, {1, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(refimpl::InducedSubgraph(g, {1, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(InducedSubgraph(g, {3, 42}).status().IsInvalidArgument());
  EXPECT_TRUE(
      refimpl::InducedSubgraph(g, {3, 42}).status().IsInvalidArgument());
}

TEST(ColdPathTransforms, InducedSubgraphDropsWeightsWhenKeptEdgesUnweighted) {
  // Parent is weighted, but the only surviving edge weighs 1.0; the
  // edge-list implementation rebuilt is_weighted from the kept edges.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(2, 3, 7.0f);
  const Graph g = b.Build().MoveValue();
  ASSERT_TRUE(g.is_weighted());
  auto actual = InducedSubgraph(g, {0, 1});
  auto expected = refimpl::InducedSubgraph(g, {0, 1});
  ASSERT_TRUE(actual.ok());
  EXPECT_FALSE(actual->graph.is_weighted());
  ExpectGraphsIdentical(actual->graph, expected->graph);
}

TEST(ColdPathTransforms, DefaultConstructedGraphHandledLikeReference) {
  // A default Graph has empty (not size-1) offset arrays; transforms
  // must normalize it exactly as the edge-list implementations did.
  const Graph empty;
  ExpectGraphsIdentical(ToUndirected(empty).MoveValue(),
                        refimpl::ToUndirected(empty).MoveValue());
  ExpectGraphsIdentical(Transpose(empty).MoveValue(),
                        refimpl::Transpose(empty).MoveValue());
  auto actual = InducedSubgraph(empty, {});
  auto expected = refimpl::InducedSubgraph(empty, {});
  ASSERT_TRUE(actual.ok());
  ASSERT_TRUE(expected.ok());
  ExpectGraphsIdentical(actual->graph, expected->graph);
}

TEST(ColdPathTransforms, TransposeMatchesReference) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    SCOPED_TRACE(name);
    auto actual = Transpose(graph);
    auto expected = refimpl::Transpose(graph);
    ASSERT_TRUE(actual.ok());
    ASSERT_TRUE(expected.ok());
    ExpectGraphsIdentical(*actual, *expected);
  }
}

TEST(ColdPathTransforms, ToUndirectedMatchesReference) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    if (graph.is_weighted()) continue;  // covered below with symmetric weights
    SCOPED_TRACE(name);
    auto actual = ToUndirected(graph);
    auto expected = refimpl::ToUndirected(graph);
    ASSERT_TRUE(actual.ok());
    ASSERT_TRUE(expected.ok());
    ExpectGraphsIdentical(*actual, *expected);
  }
}

// The unweighted build reads its input through ForEachOutNeighbor and
// ForEachInSource, which decode compressed storage block-wise; the
// result must not depend on how the input stores its edges.
TEST(ColdPathTransforms, ToUndirectedOnCompressedInputMatchesReference) {
  const Graph messy = MessyGraph(300, 2500, 13, false);
  const Graph compressed = Graph::WithCompressedEdges(messy);
  ASSERT_TRUE(compressed.edges_compressed());
  auto actual = ToUndirected(compressed);
  auto expected = refimpl::ToUndirected(messy);
  ASSERT_TRUE(actual.ok());
  ASSERT_TRUE(expected.ok());
  ExpectGraphsIdentical(*actual, *expected);
}

TEST(ColdPathTransforms, ToUndirectedMatchesReferenceOnSymmetricWeights) {
  // Weighted equivalence needs pair-symmetric weights: when (u,v) and
  // (v,u) disagree, the seed's non-stable sort left the surviving weight
  // unspecified (the rewrite fixes it to "forward edge wins").
  const Graph g = SymmetricWeightGraph(200, 1500, 23);
  ASSERT_TRUE(g.is_weighted());
  auto actual = ToUndirected(g);
  auto expected = refimpl::ToUndirected(g);
  ASSERT_TRUE(actual.ok());
  ASSERT_TRUE(expected.ok());
  ExpectGraphsIdentical(*actual, *expected);
}

TEST(ColdPathTransforms, ToUndirectedForwardWeightWinsOverReverse) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(1, 0, 5.0f);
  auto und = ToUndirected(b.Build().MoveValue());
  ASSERT_TRUE(und.ok());
  ASSERT_EQ(und->num_edges(), 2u);
  // Each direction keeps its own forward edge's weight.
  EXPECT_EQ(und->out_weights(0)[0], 2.0f);
  EXPECT_EQ(und->out_weights(1)[0], 5.0f);
}

TEST(ColdPathTransforms, BuilderDedupMatchesReferenceSort) {
  for (const uint64_t seed : {29ull, 31ull}) {
    SCOPED_TRACE(seed);
    const Graph messy = MessyGraph(150, 4000, seed, false);
    std::vector<Edge> edges = messy.ToEdgeList();

    GraphBuilder b(150);
    b.AddEdges(edges);
    b.set_dedup_parallel_edges(true);
    const Graph actual = b.Build().MoveValue();

    // Reference: the seed's whole-list comparator sort + unique.
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
    const Graph expected = Graph::FromEdges(150, std::move(edges)).MoveValue();
    ExpectGraphsIdentical(actual, expected);
  }
}

TEST(ColdPathTransforms, BuilderDedupKeepsFirstAddedWeight) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(0, 1, 3.0f);
  b.set_dedup_parallel_edges(true);
  const Graph g = b.Build().MoveValue();
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_weights(0)[0], 2.0f);
}

// ===================================================================
// Samplers (bitmap PickSet vs. the seed's hash set)
// ===================================================================

TEST(ColdPathSamplers, SampleVerticesMatchesReference) {
  const Graph pa = GeneratePreferentialAttachment({2000, 6, 0.3, 7}).MoveValue();
  const Graph er = GenerateErdosRenyi({1200, 6000, 5}).MoveValue();
  for (const Graph* graph : {&pa, &er}) {
    for (const SamplerKind kind :
         {SamplerKind::kRandomJump, SamplerKind::kBiasedRandomJump,
          SamplerKind::kMetropolisHastingsRW, SamplerKind::kForestFire}) {
      for (const uint64_t seed : {1ull, 42ull}) {
        SamplerOptions options;
        options.kind = kind;
        options.sampling_ratio = 0.1;
        options.seed = seed;
        SCOPED_TRACE(std::string(SamplerKindName(kind)) + " seed=" +
                     std::to_string(seed));
        auto actual = SampleVertices(*graph, options);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(*actual, refimpl::SampleVertices(*graph, options));
      }
    }
  }
}

// ===================================================================
// Parallel statistics: seed-equivalent and thread-count invariant
// ===================================================================

TEST(ColdPathStats, EffectiveDiameterBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    SCOPED_TRACE(name);
    const double expected = refimpl::EffectiveDiameter(graph, 0.9, 24, 7);
    EXPECT_EQ(EffectiveDiameter(graph, 0.9, 24, 7), expected) << "no pool";
    for (const uint32_t threads : {0u, 1u, 2u, 8u}) {
      bsp::ThreadPool pool(threads);
      EXPECT_EQ(EffectiveDiameter(graph, 0.9, 24, 7, &pool), expected)
          << "threads=" << threads;
    }
  }
}

TEST(ColdPathStats, ClusteringBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    SCOPED_TRACE(name);
    // Sampled estimate and the exhaustive (num_samples >= |V|) path.
    for (const uint32_t samples : {150u, 1u << 20}) {
      SCOPED_TRACE(samples);
      const double expected =
          refimpl::AverageClusteringCoefficient(graph, samples, 7);
      EXPECT_EQ(AverageClusteringCoefficient(graph, samples, 7), expected)
          << "no pool";
      for (const uint32_t threads : {0u, 1u, 2u, 8u}) {
        bsp::ThreadPool pool(threads);
        EXPECT_EQ(AverageClusteringCoefficient(graph, samples, 7, &pool),
                  expected)
            << "threads=" << threads;
      }
    }
  }
}

// ===================================================================
// Fingerprint memoization
// ===================================================================

TEST(ColdPathFingerprint, SampleKeyHashesCsrExactlyOncePerGraph) {
  const Graph g = GeneratePreferentialAttachment({1000, 5, 0.3, 3}).MoveValue();
  SamplerOptions options;

  const uint64_t before = Graph::FingerprintComputationsForTest();
  const uint64_t fp = g.Fingerprint();
  // Many SampleKey constructions — the per-request cache-key path in
  // PredictionService — must all serve from the memoized value.
  for (int i = 0; i < 100; ++i) {
    const auto key = pipeline::SampleKey::For(g, options);
    ASSERT_EQ(key.graph_fingerprint, fp);
  }
  EXPECT_EQ(g.Fingerprint(), fp);
  EXPECT_EQ(Graph::FingerprintComputationsForTest() - before, 1u);
}

TEST(ColdPathFingerprint, CopiesAndMovesCarryTheCache) {
  const Graph g = GenerateErdosRenyi({500, 2000, 9}).MoveValue();
  const uint64_t fp = g.Fingerprint();

  const uint64_t before = Graph::FingerprintComputationsForTest();
  Graph copy = g;
  EXPECT_EQ(copy.Fingerprint(), fp);
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.Fingerprint(), fp);
  Graph assigned;
  assigned = moved;
  EXPECT_EQ(assigned.Fingerprint(), fp);
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), before);

  // A structurally identical graph built fresh recomputes — and matches.
  const Graph rebuilt = GenerateErdosRenyi({500, 2000, 9}).MoveValue();
  EXPECT_EQ(rebuilt.Fingerprint(), fp);
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), before + 1);

  // A compacted evolving-graph version's lineage travels the same way,
  // through copy, move and both assignments, with no scan.
  EvolvingGraph evolving(g);
  ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(0, 1)}).ok());
  auto current = evolving.Current();
  ASSERT_TRUE(current.ok());
  const GraphLineage* lineage = (*current)->lineage();
  ASSERT_NE(lineage, nullptr);
  const uint64_t version_fp = (*current)->Fingerprint();
  const uint64_t scans = Graph::FingerprintComputationsForTest();
  Graph version_copy = **current;
  Graph version_moved = std::move(version_copy);
  Graph version_assigned;
  version_assigned = version_moved;
  Graph version_move_assigned;
  version_move_assigned = std::move(version_assigned);
  for (const Graph* version : {&version_moved, &version_move_assigned}) {
    EXPECT_EQ(version->lineage(), lineage);
    EXPECT_EQ(version->Fingerprint(), version_fp);
  }
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), scans);
}

// ===================================================================
// SamplerOptionsKey formatting
// ===================================================================

TEST(ColdPathSamplerKey, NeverTruncatesWideValues) {
  SamplerOptions options;
  // Worst-case %.17g widths: subnormals print 17 significand digits
  // plus a 3-digit exponent.
  options.sampling_ratio = 5e-324;
  options.jump_probability = 1.0 / 3.0;
  options.seed_fraction = 0.12345678901234567;
  options.forward_burning_p = 6.2831853071795864e-301;
  options.seed = UINT64_MAX;

  const std::string key = SamplerOptionsKey(options);
  char expected[1024];
  std::snprintf(expected, sizeof(expected),
                "%s;ratio=%.17g;jump=%.17g;seedfrac=%.17g;burn=%.17g;seed=%llu",
                SamplerKindName(options.kind), options.sampling_ratio,
                options.jump_probability, options.seed_fraction,
                options.forward_burning_p,
                static_cast<unsigned long long>(options.seed));
  EXPECT_EQ(key, expected);

  // The discriminating suffix survives: options differing only in the
  // final field produce distinct keys.
  SamplerOptions other = options;
  other.seed = UINT64_MAX - 1;
  EXPECT_NE(SamplerOptionsKey(other), key);
}

// ===================================================================
// Graph readers under mutation
// ===================================================================

// A file name of this process's own: the suite also runs inside the
// coldpath_equivalence entry, concurrently with the per-test entries.
std::string MutationPath() {
  return (std::filesystem::temp_directory_path() /
          ("predict_mutation_" + std::to_string(::getpid()) + ".prdg"))
      .string();
}

std::string PrdgBytes(const Graph& graph, const std::string& path) {
  EXPECT_TRUE(WriteBinaryGraphFile(graph, path).ok());
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Result<Graph> ReadPrdgBytes(const std::string& bytes, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  return ReadBinaryGraphFile(path);
}

// Every truncation of a valid PRDG header and every header field set to
// 0, 1 and its maximum (the 64-bit counts also to the largest 32-bit
// value: |V| = 2^32 - 1 once asked for two 32 GiB offset arrays): each
// read returns a graph within the vertex limit or an error, and never
// aborts on an allocation sized from an unchecked field.
TEST(ColdPathGraphReaders, MutatedPrdgHeadersReadOrFail) {
  GraphBuilder weighted(4);
  weighted.AddEdge(0, 1, 2.5f);
  weighted.AddEdge(1, 2, 0.5f);
  weighted.AddEdge(3, 0, 1.5f);
  const Graph bases[] = {GenerateComplete(5).MoveValue(),
                         weighted.Build().MoveValue(),
                         GraphBuilder(3).Build().MoveValue()};
  // magic, version, |V|, |E|, weighted: (offset, width) in the header.
  constexpr size_t kHeaderBytes = 25;
  const std::pair<size_t, size_t> fields[] = {
      {0, 4}, {4, 4}, {8, 8}, {16, 8}, {24, 1}};
  const std::string path = MutationPath();
  int reads = 0;
  int failures = 0;
  const auto read = [&](const std::string& bytes) {
    const Result<Graph> graph = ReadPrdgBytes(bytes, path);
    ++reads;
    if (!graph.ok()) {
      ++failures;
      return;
    }
    EXPECT_LE(graph->num_vertices(), kMaxGraphFileVertices);
  };
  for (const Graph& base : bases) {
    const std::string bytes = PrdgBytes(base, path);
    ASSERT_GE(bytes.size(), kHeaderBytes);
    ASSERT_TRUE(ReadPrdgBytes(bytes, path).ok());
    for (size_t cut = 0; cut < kHeaderBytes; ++cut) {
      SCOPED_TRACE("truncated at " + std::to_string(cut));
      EXPECT_FALSE(ReadPrdgBytes(bytes.substr(0, cut), path).ok());
    }
    for (const auto& [offset, width] : fields) {
      std::vector<uint64_t> values = {0, 1, UINT32_MAX};
      if (width == 1) values.back() = UINT8_MAX;
      if (width == 8) values.push_back(UINT64_MAX);
      for (const uint64_t value : values) {
        SCOPED_TRACE("field at " + std::to_string(offset) + " = " +
                     std::to_string(value));
        std::string mutated = bytes;
        std::memcpy(mutated.data() + offset, &value, width);  // little-endian
        read(mutated);
      }
    }
    // One past the limit fails with the limit's own code.
    std::string over = bytes;
    const uint64_t too_many = kMaxGraphFileVertices + 1;
    std::memcpy(over.data() + 8, &too_many, sizeof(too_many));
    EXPECT_TRUE(ReadPrdgBytes(over, path).status().IsOutOfRange());
  }
  std::filesystem::remove(path);
  EXPECT_EQ(reads, 3 * 17);
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, reads);
}

// The edge-list reader under the same mutations: every truncation of a
// small valid file, each field of its first edge set to 0, 1 and its
// maximum (and past it), and the explicit vertex count at 0, 1 and the
// largest VertexId.
TEST(ColdPathGraphReaders, MutatedEdgeListsReadOrFail) {
  const std::string text = "# edges\n0 1 2.5\n1 2\n2 0 0.5\n";
  const auto check = [](const Result<Graph>& graph) {
    if (graph.ok()) EXPECT_LE(graph->num_vertices(), kMaxGraphFileVertices);
  };
  ASSERT_TRUE(ParseEdgeList(text).ok());
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    SCOPED_TRACE("truncated at " + std::to_string(cut));
    check(ParseEdgeList(text.substr(0, cut)));
  }
  const std::string ids[] = {"0",          "1",  "4294967294", "4294967295",
                             "18446744073709551615", "-1"};
  const std::string weights[] = {"0", "1", "3.4028235e38", "1e999", "nan"};
  for (const std::string& src : ids) {
    for (const std::string& dst : ids) {
      for (const std::string& weight : weights) {
        SCOPED_TRACE(src + " " + dst + " " + weight);
        check(ParseEdgeList("# edges\n" + src + " " + dst + " " + weight +
                            "\n1 2\n2 0 0.5\n"));
      }
    }
  }
  EXPECT_TRUE(ParseEdgeList("0 4294967295\n").status().IsOutOfRange());
  for (const VertexId count : {VertexId{0}, VertexId{1}, VertexId{4294967295u}}) {
    SCOPED_TRACE(count);
    check(ParseEdgeList(text, count));
  }
  EXPECT_TRUE(ParseEdgeList(text, 4294967295u).status().IsOutOfRange());
}

}  // namespace
}  // namespace predict
