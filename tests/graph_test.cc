// Tests for graph/: builder, CSR invariants, I/O, transforms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/transforms.h"

namespace predict {
namespace {

Graph MakeTriangle() {
  // 0 -> 1 -> 2 -> 0
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

// ----------------------------------------------------------------- build

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
  EXPECT_EQ(g->num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g->out_degree(v), 0u);
    EXPECT_EQ(g->in_degree(v), 0u);
  }
}

TEST(GraphBuilderTest, ZeroVertexGraph) {
  GraphBuilder b(0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(3);
  b.AddEdge(0, 3);
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, DegreesMatchEdgeList) {
  const Graph g = MakeTriangle();
  EXPECT_EQ(g.num_edges(), 3u);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.in_degree(v), 1u);
  }
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  EXPECT_EQ(g.in_neighbors(0)[0], 2u);
}

TEST(GraphBuilderTest, ParallelEdgesKeptByDefault) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->out_degree(0), 2u);
  EXPECT_EQ(g->in_degree(1), 2u);
}

TEST(GraphBuilderTest, DedupParallelEdges) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(0, 1, 3.0f);
  b.set_dedup_parallel_edges(true);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(GraphBuilderTest, DropSelfLoops) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.set_drop_self_loops(true);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->out_neighbors(0)[0], 1u);
}

TEST(GraphBuilderTest, SelfLoopsKeptByDefault) {
  GraphBuilder b(1);
  b.AddEdge(0, 0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->in_degree(0), 1u);
}

TEST(GraphBuilderTest, AddUndirectedEdgeAddsBoth) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->out_degree(0), 1u);
  EXPECT_EQ(g->out_degree(1), 1u);
}

TEST(GraphBuilderTest, WeightsPreservedInCsrOrder) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5f);
  b.AddEdge(0, 2, 1.5f);
  b.AddEdge(1, 2, 2.5f);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_weighted());
  const auto w0 = g->out_weights(0);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_FLOAT_EQ(w0[0], 0.5f);
  EXPECT_FLOAT_EQ(w0[1], 1.5f);
  EXPECT_FLOAT_EQ(g->out_weights(1)[0], 2.5f);
}

TEST(GraphBuilderTest, UnweightedWhenAllWeightsOne) {
  const Graph g = MakeTriangle();
  EXPECT_FALSE(g.is_weighted());
}

TEST(GraphTest, FromEdgesMatchesBuilder) {
  const std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 2, 1.0f}};
  auto g = Graph::FromEdges(3, edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphTest, FromEdgesRvalueOverloadMatchesCopying) {
  std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 1.0f}};
  const Graph copied = Graph::FromEdges(3, edges).MoveValue();
  const Graph moved = Graph::FromEdges(3, std::move(edges)).MoveValue();
  EXPECT_EQ(moved.num_edges(), copied.num_edges());
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(moved.out_degree(v), copied.out_degree(v));
    EXPECT_EQ(moved.in_degree(v), copied.in_degree(v));
    EXPECT_EQ(moved.out_neighbors(v)[0], copied.out_neighbors(v)[0]);
  }
}

TEST(GraphBuilderTest, AddEdgesBatchMatchesIndividualAdds) {
  GraphBuilder one_by_one(4);
  one_by_one.AddEdge(0, 1);
  one_by_one.AddEdge(1, 2, 2.0f);
  one_by_one.AddEdge(2, 3);
  GraphBuilder batched(4);
  batched.ReserveEdges(3);
  batched.AddEdges({{0, 1, 1.0f}, {1, 2, 2.0f}});
  batched.AddEdges({{2, 3, 1.0f}});  // second batch appends
  const Graph a = one_by_one.Build().MoveValue();
  const Graph b = batched.Build().MoveValue();
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.is_weighted(), b.is_weighted());
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(a.out_degree(v), b.out_degree(v));
  }
  EXPECT_FLOAT_EQ(b.out_weights(1)[0], 2.0f);
}

TEST(GraphTest, ToEdgeListRoundTrips) {
  const Graph g = MakeTriangle();
  const auto edges = g.ToEdgeList();
  auto g2 = Graph::FromEdges(3, edges);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(g2->out_degree(v), g.out_degree(v));
  }
}

TEST(GraphTest, MemoryFootprintPositiveAndMonotonic) {
  const Graph small = MakeTriangle();
  GraphBuilder b(100);
  for (VertexId v = 0; v + 1 < 100; ++v) b.AddEdge(v, v + 1);
  auto big = b.Build();
  ASSERT_TRUE(big.ok());
  EXPECT_GT(small.MemoryFootprintBytes(), 0u);
  EXPECT_GT(big->MemoryFootprintBytes(), small.MemoryFootprintBytes());
}

TEST(GraphTest, ToStringMentionsSizes) {
  const Graph g = MakeTriangle();
  EXPECT_NE(g.ToString().find("|V|=3"), std::string::npos);
  EXPECT_NE(g.ToString().find("|E|=3"), std::string::npos);
}

// -------------------------------------------------------------------- io

TEST(GraphIoTest, ParseEdgeListBasic) {
  auto g = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST(GraphIoTest, ParseWeights) {
  auto g = ParseEdgeList("0 1 2.5\n1 0 0.5\n");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_weighted());
  EXPECT_FLOAT_EQ(g->out_weights(0)[0], 2.5f);
}

TEST(GraphIoTest, ParseRespectsExplicitVertexCount) {
  auto g = ParseEdgeList("0 1\n", 10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 10u);
}

TEST(GraphIoTest, ParseRejectsMalformedLine) {
  EXPECT_TRUE(ParseEdgeList("0 1\ngarbage\n").status().IsIOError());
}

TEST(GraphIoTest, ParseEmptyInput) {
  auto g = ParseEdgeList("# nothing\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph g = MakeTriangle();
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_io_test.txt").string();
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto loaded = ReadEdgeListFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), 3u);
  EXPECT_EQ(loaded->num_edges(), 3u);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, ReadMissingFileIsIOError) {
  EXPECT_TRUE(ReadEdgeListFile("/nonexistent/path/g.txt").status().IsIOError());
}

// ------------------------------------------------------------ transforms

TEST(TransformsTest, ToUndirectedAddsReverseEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  auto und = ToUndirected(b.Build().MoveValue());
  ASSERT_TRUE(und.ok());
  EXPECT_EQ(und->num_edges(), 4u);
  EXPECT_EQ(und->out_degree(1), 2u);  // 1->0 and 1->2
}

TEST(TransformsTest, ToUndirectedDedupsExistingBidirectional) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  auto und = ToUndirected(b.Build().MoveValue());
  ASSERT_TRUE(und.ok());
  EXPECT_EQ(und->num_edges(), 2u);  // not 4
}

TEST(TransformsTest, ToUndirectedKeepsSelfLoopOnce) {
  GraphBuilder b(1);
  b.AddEdge(0, 0);
  auto und = ToUndirected(b.Build().MoveValue());
  ASSERT_TRUE(und.ok());
  EXPECT_EQ(und->num_edges(), 1u);
}

TEST(TransformsTest, ToUndirectedNeighborsSortedAscending) {
  // ToUndirected sorts edges; algorithms rely on dedup'd adjacency.
  GraphBuilder b(4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(1, 2);
  auto und = ToUndirected(b.Build().MoveValue());
  ASSERT_TRUE(und.ok());
  const auto n2 = und->out_neighbors(2);
  EXPECT_TRUE(std::is_sorted(n2.begin(), n2.end()));
}

TEST(TransformsTest, InducedSubgraphKeepsInternalEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  const Graph g = b.Build().MoveValue();
  auto sub = InducedSubgraph(g, {0, 1, 2});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph.num_vertices(), 3u);
  EXPECT_EQ(sub->graph.num_edges(), 2u);  // 0->1, 1->2; 2->3 and 3->0 cut
  EXPECT_EQ(sub->original_id[1], 1u);
}

TEST(TransformsTest, InducedSubgraphRemapsIds) {
  GraphBuilder b(5);
  b.AddEdge(4, 2);
  const Graph g = b.Build().MoveValue();
  auto sub = InducedSubgraph(g, {4, 2});
  ASSERT_TRUE(sub.ok());
  // vertex 4 became 0, vertex 2 became 1.
  EXPECT_EQ(sub->graph.out_neighbors(0)[0], 1u);
}

TEST(TransformsTest, InducedSubgraphRejectsDuplicates) {
  const Graph g = MakeTriangle();
  EXPECT_TRUE(InducedSubgraph(g, {0, 0}).status().IsInvalidArgument());
}

TEST(TransformsTest, InducedSubgraphRejectsOutOfRange) {
  const Graph g = MakeTriangle();
  EXPECT_TRUE(InducedSubgraph(g, {0, 7}).status().IsInvalidArgument());
}

TEST(TransformsTest, InducedSubgraphPreservesWeights) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 5.0f);
  const Graph g = b.Build().MoveValue();
  auto sub = InducedSubgraph(g, {0, 1});
  ASSERT_TRUE(sub.ok());
  EXPECT_FLOAT_EQ(sub->graph.out_weights(0)[0], 5.0f);
}

TEST(TransformsTest, TransposeReversesEdges) {
  const Graph g = MakeTriangle();
  auto t = Transpose(g);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_edges(), 3u);
  EXPECT_EQ(t->out_neighbors(1)[0], 0u);  // 0->1 became 1->0
}

TEST(TransformsTest, DoubleTransposeIsIdentity) {
  const Graph g = MakeTriangle();
  auto tt = Transpose(Transpose(g).MoveValue());
  ASSERT_TRUE(tt.ok());
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(tt->out_degree(v), g.out_degree(v));
    EXPECT_EQ(tt->out_neighbors(v)[0], g.out_neighbors(v)[0]);
  }
}

// ------------------------------------------------------- compressed edges

// Structural equality witness for compress -> decompress round-trips:
// every flat CSR array must come back byte-identical.
void ExpectSameStructure(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.out_offsets().begin(), a.out_offsets().end(),
                         b.out_offsets().begin(), b.out_offsets().end()));
  EXPECT_TRUE(std::equal(a.out_targets().begin(), a.out_targets().end(),
                         b.out_targets().begin(), b.out_targets().end()));
  EXPECT_TRUE(std::equal(a.in_offsets().begin(), a.in_offsets().end(),
                         b.in_offsets().begin(), b.in_offsets().end()));
  EXPECT_TRUE(std::equal(a.in_sources().begin(), a.in_sources().end(),
                         b.in_sources().begin(), b.in_sources().end()));
}

TEST(CompressedEdgesTest, RoundTripsBitIdenticalForEveryDataset) {
  for (const std::string& name : PaperDatasetNames()) {
    SCOPED_TRACE(name);
    const Graph plain = MakeDataset(name, 0.05).MoveValue();
    Graph compressed = Graph::WithCompressedEdges(
        MakeDataset(name, 0.05).MoveValue());
    EXPECT_TRUE(compressed.edges_compressed());
    EXPECT_FALSE(plain.edges_compressed());
    // Logical identity survives the representation change.
    EXPECT_EQ(plain.Fingerprint(), compressed.Fingerprint());
    EXPECT_EQ(plain.ToEdgeList(), compressed.ToEdgeList());
    // And the inverse restores every flat array bit-identically.
    const Graph restored = Graph::WithPlainEdges(std::move(compressed));
    EXPECT_FALSE(restored.edges_compressed());
    ExpectSameStructure(plain, restored);
    EXPECT_EQ(plain.Fingerprint(), restored.Fingerprint());
  }
}

TEST(CompressedEdgesTest, PerVertexAccessorsMatchPlain) {
  const Graph plain = MakeDataset("wiki", 0.05).MoveValue();
  const Graph compressed =
      Graph::WithCompressedEdges(MakeDataset("wiki", 0.05).MoveValue());
  std::vector<VertexId> scratch;
  for (VertexId v = 0; v < plain.num_vertices(); ++v) {
    ASSERT_EQ(plain.out_degree(v), compressed.out_degree(v));
    const auto want = plain.out_neighbors(v);
    const auto got = compressed.OutNeighborsInto(v, &scratch);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));
    const auto want_in = plain.in_neighbors(v);
    const auto got_in = compressed.InSourcesInto(v, &scratch);
    ASSERT_TRUE(std::equal(want_in.begin(), want_in.end(), got_in.begin(),
                           got_in.end()));
  }
}

TEST(CompressedEdgesTest, ForEachVisitsInOrder) {
  const Graph compressed =
      Graph::WithCompressedEdges(MakeDataset("lj", 0.05).MoveValue());
  const Graph plain = Graph::WithPlainEdges(
      Graph::WithCompressedEdges(MakeDataset("lj", 0.05).MoveValue()));
  for (VertexId v = 0; v < plain.num_vertices(); ++v) {
    std::vector<VertexId> visited;
    compressed.ForEachOutNeighbor(
        v, [&](VertexId u) { visited.push_back(u); });
    const auto want = plain.out_neighbors(v);
    ASSERT_TRUE(
        std::equal(want.begin(), want.end(), visited.begin(), visited.end()));
  }
}

TEST(CompressedEdgesTest, CompressionShrinksEdgeStorage) {
  // Sorted adjacency means small deltas; varint coding must beat the
  // flat 4-byte representation on every paper dataset.
  for (const std::string& name : PaperDatasetNames()) {
    SCOPED_TRACE(name);
    const Graph plain = MakeDataset(name, 0.1).MoveValue();
    const Graph compressed =
        Graph::WithCompressedEdges(MakeDataset(name, 0.1).MoveValue());
    EXPECT_LT(compressed.EdgeStorageBytes(), plain.EdgeStorageBytes());
    EXPECT_LT(compressed.MemoryFootprintBytes(), plain.MemoryFootprintBytes());
  }
}

TEST(CompressedEdgesTest, CompressesABuiltGraph) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 3);
  b.AddEdge(2, 0);
  const Graph g = Graph::WithCompressedEdges(b.Build().MoveValue());
  EXPECT_TRUE(g.edges_compressed());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  std::vector<VertexId> scratch;
  const auto n0 = g.OutNeighborsInto(0, &scratch);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 3u);
}

TEST(CompressedEdgesTest, EmptyAndEdgelessGraphs) {
  const Graph g =
      Graph::WithCompressedEdges(GraphBuilder(5).Build().MoveValue());
  EXPECT_TRUE(g.edges_compressed());
  EXPECT_EQ(g.num_edges(), 0u);
  std::vector<VertexId> scratch;
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(g.OutNeighborsInto(v, &scratch).empty());
  }
}

}  // namespace
}  // namespace predict
