// Tests for graph/delta.h: the delta overlay, versioned fingerprints,
// canonicalization, compaction, churn generation, and the merged-view
// transforms backing incremental re-prediction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/transforms.h"

namespace predict {
namespace {

Graph MakeChain(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1.0f});
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

Graph RandomGraph(VertexId n, uint64_t num_edges, uint64_t seed,
                  bool weighted = false) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    Edge e;
    e.src = static_cast<VertexId>(rng.Uniform(n));
    e.dst = static_cast<VertexId>(rng.Uniform(n));
    e.weight = weighted ? 1.0f + static_cast<float>(rng.Uniform(7)) : 1.0f;
    edges.push_back(e);
  }
  auto g = Graph::FromEdges(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.MoveValue();
}

// Materializes the merged view of every row as an edge list.
std::vector<Edge> MergedEdges(const EvolvingGraph& g) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    g.ForEachOutEdge(v, [&](VertexId dst, float w) {
      edges.push_back({v, dst, w});
    });
  }
  return edges;
}

// ------------------------------------------------------------ canonical

TEST(DeltaCanonicalizeTest, SortsRowsAndPreservesEdgeSet) {
  std::vector<Edge> edges = {{0, 3, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f},
                             {2, 1, 1.0f}, {2, 0, 1.0f}};
  auto g = Graph::FromEdges(4, edges);
  ASSERT_TRUE(g.ok());
  const uint64_t edge_hash = g->EdgeSetHash();
  const Graph canon = EvolvingGraph::Canonicalize(g.MoveValue());
  EXPECT_EQ(canon.EdgeSetHash(), edge_hash);
  for (VertexId v = 0; v < canon.num_vertices(); ++v) {
    const auto row = canon.out_neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
  // Canonical form is a fixed point.
  const Graph again = EvolvingGraph::Canonicalize(canon);
  EXPECT_EQ(again.Fingerprint(), canon.Fingerprint());
}

TEST(DeltaCanonicalizeTest, EqualEdgeSetsCanonicalizeIdentically) {
  std::vector<Edge> a = {{1, 0, 1.0f}, {0, 2, 1.0f}, {0, 1, 1.0f}};
  std::vector<Edge> b = {{0, 1, 1.0f}, {1, 0, 1.0f}, {0, 2, 1.0f}};
  auto ga = Graph::FromEdges(3, a);
  auto gb = Graph::FromEdges(3, b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(EvolvingGraph::Canonicalize(ga.MoveValue()).Fingerprint(),
            EvolvingGraph::Canonicalize(gb.MoveValue()).Fingerprint());
}

// ------------------------------------------------------------- overlay

TEST(DeltaOverlayTest, InsertShowsUpInMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_TRUE(g.dirty());
  std::vector<VertexId> row;
  g.ForEachOutNeighbor(0, [&](VertexId d) { row.push_back(d); });
  EXPECT_EQ(row, (std::vector<VertexId>{1, 3}));
}

TEST(DeltaOverlayTest, DeleteRemovesFromMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  std::vector<VertexId> scratch;
  EXPECT_TRUE(g.OutNeighborsInto(1, &scratch).empty());
}

TEST(DeltaOverlayTest, DeleteCancelsPendingInsert) {
  EvolvingGraph g(MakeChain(3));
  const uint64_t fp0 = g.VersionFingerprint();
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  // The insert/delete pair restores the previous version's identity.
  EXPECT_EQ(g.VersionFingerprint(), fp0);
}

TEST(DeltaOverlayTest, ParallelEdgeDeleteConsumesOneOccurrence) {
  auto base = Graph::FromEdges(2, {{0, 1, 1.0f}, {0, 1, 1.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ(g.out_degree(0), 0u);
}

TEST(DeltaOverlayTest, MergedViewMatchesCompactedGraph) {
  EvolvingGraph g(RandomGraph(40, 200, 7));
  g.set_compaction_threshold(1e9);  // keep the overlay pending
  Rng rng(11);
  EdgeDeltaBatch batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back(EdgeDelta::Insert(static_cast<VertexId>(rng.Uniform(40)),
                                      static_cast<VertexId>(rng.Uniform(40))));
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  ASSERT_TRUE(g.dirty());
  const std::vector<Edge> overlaid = MergedEdges(g);
  const uint64_t fp = g.VersionFingerprint();
  auto current = g.Current();  // compacts
  ASSERT_TRUE(current.ok());
  EXPECT_FALSE(g.dirty());
  EXPECT_EQ(g.VersionFingerprint(), fp);
  EXPECT_EQ((*current)->EdgeSetHash(), fp);
  EXPECT_EQ(MergedEdges(g), overlaid);
  EXPECT_EQ((*current)->ToEdgeList(), overlaid);
}

TEST(DeltaOverlayTest, WeightedInsertsMergeInCanonicalOrder) {
  auto base = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  g.set_compaction_threshold(1e9);
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 1, 1.0f),
                       EdgeDelta::Insert(0, 1, 3.0f)}).ok());
  std::vector<float> weights;
  g.ForEachOutEdge(0, [&](VertexId, float w) { weights.push_back(w); });
  EXPECT_EQ(weights, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  const std::vector<Edge> overlaid = MergedEdges(g);
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->ToEdgeList(), overlaid);
}

// ---------------------------------------------------------- validation

TEST(DeltaValidationTest, RejectsUnknownVertex) {
  EvolvingGraph g(MakeChain(3));
  const Status s = g.Apply({EdgeDelta::Insert(0, 9)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(0 -> 9)"), std::string::npos) << s.message();
  EXPECT_FALSE(g.dirty());
}

TEST(DeltaValidationTest, RejectsDeleteOfMissingEdge) {
  EvolvingGraph g(MakeChain(3));
  const Status s = g.Apply({EdgeDelta::Delete(2, 0)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(2 -> 0)"), std::string::npos) << s.message();
}

TEST(DeltaValidationTest, RejectsOverDeleteWithinOneBatch) {
  EvolvingGraph g(MakeChain(3));
  // One (0 -> 1) edge exists; deleting it twice in one batch must fail.
  const Status s = g.Apply({EdgeDelta::Delete(0, 1), EdgeDelta::Delete(0, 1)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(0 -> 1)"), std::string::npos) << s.message();
}

TEST(DeltaValidationTest, FailedBatchLeavesGraphUnchanged) {
  EvolvingGraph g(MakeChain(3));
  const uint64_t fp = g.VersionFingerprint();
  // Valid prefix, invalid tail: nothing may stick.
  const Status s =
      g.Apply({EdgeDelta::Insert(0, 2), EdgeDelta::Delete(2, 1)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(g.VersionFingerprint(), fp);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.dirty());
}

TEST(DeltaValidationTest, NetDeltaValidationAllowsDeleteOfBatchInsert) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(
      g.Apply({EdgeDelta::Insert(2, 0), EdgeDelta::Delete(2, 0)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DeltaValidationTest, GraphBuilderRemovalsMatchOverlaySemantics) {
  // The builder-level validation mirrors Apply: same offending-pair
  // message shape for a bad removal.
  auto bad = Graph::FromEdges(3, {{0, 1, 1.0f}}, {{1, 2}});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_NE(bad.status().message().find("(1 -> 2)"), std::string::npos);
  auto good = Graph::FromEdges(3, {{0, 1, 1.0f}, {1, 2, 1.0f}}, {{0, 1}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_edges(), 1u);
}

// ---------------------------------------------------------- versioning

TEST(DeltaFingerprintTest, NeverZeroAndStableAcrossCompaction) {
  EvolvingGraph g(RandomGraph(30, 120, 3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(1, 2)}).ok());
  const uint64_t fp = g.VersionFingerprint();
  EXPECT_NE(fp, 0u);
  ASSERT_TRUE(g.Compact().ok());
  EXPECT_EQ(g.VersionFingerprint(), fp);
  EXPECT_EQ(g.base().EdgeSetHash(), fp);
}

TEST(DeltaFingerprintTest, OrderOfBatchesDoesNotMatter) {
  EvolvingGraph a(MakeChain(5));
  EvolvingGraph b(MakeChain(5));
  ASSERT_TRUE(a.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(a.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Insert(0, 2)}).ok());
  EXPECT_EQ(a.VersionFingerprint(), b.VersionFingerprint());
  // And both equal a cold graph built on the final edge set.
  auto cold = Graph::FromEdges(
      5, {{0, 1, 1.0f}, {1, 2, 1.0f}, {3, 4, 1.0f}, {0, 2, 1.0f}});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(a.VersionFingerprint(), cold->EdgeSetHash());
}

TEST(DeltaFingerprintTest, DistinctEdgeSetsGetDistinctVersions) {
  EvolvingGraph g(MakeChain(6));
  std::vector<uint64_t> seen = {g.VersionFingerprint()};
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  seen.push_back(g.VersionFingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(5, 0)}).ok());
  seen.push_back(g.VersionFingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  seen.push_back(g.VersionFingerprint());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(DeltaFingerprintTest, WeightChangesTheVersion) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(2, 0, 2.0f)}).ok());
  const uint64_t heavy = g.VersionFingerprint();
  EvolvingGraph h(MakeChain(3));
  ASSERT_TRUE(h.Apply({EdgeDelta::Insert(2, 0, 1.0f)}).ok());
  EXPECT_NE(heavy, h.VersionFingerprint());
}

// ---------------------------------------------------------- compaction

TEST(DeltaCompactionTest, ThresholdTriggersAutoCompaction) {
  EvolvingGraph g(RandomGraph(50, 400, 5));
  g.set_compaction_threshold(0.25);
  Rng rng(9);
  // Push well past 25% of 400 base edges (and the small-overlay floor).
  EdgeDeltaBatch batch;
  for (int i = 0; i < 150; ++i) {
    batch.push_back(EdgeDelta::Insert(static_cast<VertexId>(rng.Uniform(50)),
                                      static_cast<VertexId>(rng.Uniform(50))));
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  EXPECT_FALSE(g.dirty());  // auto-compacted
  EXPECT_EQ(g.base().num_edges(), 550u);
  EXPECT_EQ(g.base().EdgeSetHash(), g.VersionFingerprint());
}

TEST(DeltaCompactionTest, CompactedBytesMatchColdCanonicalBuild) {
  Graph base = RandomGraph(32, 160, 13, /*weighted=*/true);
  std::vector<Edge> edges = base.ToEdgeList();
  EvolvingGraph g(std::move(base));
  g.set_compaction_threshold(1e9);
  Rng rng(17);
  EdgeDeltaBatch batch;
  for (int i = 0; i < 20; ++i) {
    const Edge e = {static_cast<VertexId>(rng.Uniform(32)),
                    static_cast<VertexId>(rng.Uniform(32)),
                    1.0f + static_cast<float>(rng.Uniform(5))};
    batch.push_back(EdgeDelta::Insert(e.src, e.dst, e.weight));
    edges.push_back(e);
  }
  ASSERT_TRUE(g.Apply(batch).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  auto cold = Graph::FromEdges(32, std::move(edges));
  ASSERT_TRUE(cold.ok());
  const Graph canon = EvolvingGraph::Canonicalize(cold.MoveValue());
  EXPECT_EQ((*current)->Fingerprint(), canon.Fingerprint());
  EXPECT_EQ((*current)->ToEdgeList(), canon.ToEdgeList());
}

TEST(DeltaCompactionTest, CurrentIsStableWhenClean) {
  EvolvingGraph g(MakeChain(4));
  auto a = g.Current();
  ASSERT_TRUE(a.ok());
  auto b = g.Current();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // same pointer: no work when not dirty
  EXPECT_EQ(*a, &g.base());
}

// Whether a 70-insert batch (past the 64-entry floor, below the default
// 25% of the 400 base edges) trips auto-compaction under `fraction`.
bool AutoCompactsSeventyInserts(double fraction) {
  EvolvingGraph g(RandomGraph(100, 400, 7));
  g.set_compaction_threshold(fraction);
  EdgeDeltaBatch batch;
  for (VertexId v = 0; v < 70; ++v) batch.push_back(EdgeDelta::Insert(v, 99));
  EXPECT_TRUE(g.Apply(batch).ok());
  return !g.dirty();
}

TEST(DeltaCompactionTest, NegativeThresholdActsAsZero) {
  EXPECT_FALSE(AutoCompactsSeventyInserts(0.25));
  EXPECT_TRUE(AutoCompactsSeventyInserts(0.0));
  EXPECT_TRUE(AutoCompactsSeventyInserts(-0.5));
  EXPECT_TRUE(
      AutoCompactsSeventyInserts(-std::numeric_limits<double>::infinity()));
}

TEST(DeltaCompactionTest, NanThresholdActsAsZero) {
  EXPECT_TRUE(
      AutoCompactsSeventyInserts(std::numeric_limits<double>::quiet_NaN()));
}

TEST(DeltaCompactionTest, ThresholdPastUint64RangeSaturates) {
  // 1e300 x 400 edges and +inf both exceed 2^64: the threshold saturates
  // instead of converting out of range, so nothing auto-compacts.
  EXPECT_FALSE(AutoCompactsSeventyInserts(1e300));
  EXPECT_FALSE(
      AutoCompactsSeventyInserts(std::numeric_limits<double>::infinity()));
}

// ------------------------------------------------------------- lineage

TEST(DeltaLineageTest, CompactionStampsFingerprintAndLineageWithoutAScan) {
  EvolvingGraph g(MakeChain(6));
  const uint64_t parent_fp = g.base().Fingerprint();
  EXPECT_EQ(g.base().lineage(), nullptr);  // the base has no parent
  const uint64_t scans = Graph::FingerprintComputationsForTest();
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(4, 0), EdgeDelta::Delete(1, 2)}).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  const uint64_t stamped = (*current)->Fingerprint();
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), scans);
  const GraphLineage* lineage = (*current)->lineage();
  ASSERT_NE(lineage, nullptr);
  EXPECT_EQ(lineage->parent_fingerprint, parent_fp);
  EXPECT_EQ(lineage->dirty, (std::vector<VertexId>{1, 4}));
  // The stamp equals a from-scratch hash of the same structure.
  EXPECT_EQ(stamped, EvolvingGraph::Canonicalize(**current).Fingerprint());
}

TEST(DeltaLineageTest, OverlayThatNetsOutKeepsTheBase) {
  EvolvingGraph g(MakeChain(4));
  const Graph* base = &g.base();
  const uint64_t fp = base->Fingerprint();
  // Delete an edge and re-insert it at its old weight: the overlay is
  // non-empty but no row changes.
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1), EdgeDelta::Insert(0, 1)}).ok());
  ASSERT_TRUE(g.dirty());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  EXPECT_FALSE(g.dirty());
  EXPECT_EQ(*current, base);
  EXPECT_EQ((*current)->Fingerprint(), fp);
  EXPECT_EQ((*current)->lineage(), nullptr);
}

// ----------------------------------------------------------- dirty set

TEST(DeltaDirtyTest, DirtyOutVerticesFindsChangedRows) {
  Graph before = MakeChain(6);
  EvolvingGraph g(before);
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 5), EdgeDelta::Delete(3, 4)}).ok());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  const std::vector<VertexId> dirty =
      DirtyOutVertices(EvolvingGraph::Canonicalize(before), **current);
  EXPECT_EQ(dirty, (std::vector<VertexId>{0, 3}));
}

TEST(DeltaDirtyTest, IdenticalGraphsHaveNoDirtyVertices) {
  const Graph g = EvolvingGraph::Canonicalize(RandomGraph(20, 80, 21));
  EXPECT_TRUE(DirtyOutVertices(g, g).empty());
}

TEST(DeltaDirtyTest, VertexCountMismatchDirtiesEverything) {
  const Graph a = MakeChain(3);
  const Graph b = MakeChain(5);
  EXPECT_EQ(DirtyOutVertices(a, b).size(), 5u);
}

TEST(DeltaDirtyTest, WeightOnlyChangeIsDirty) {
  auto a = Graph::FromEdges(2, {{0, 1, 1.0f}});
  auto b = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(DirtyOutVertices(EvolvingGraph::Canonicalize(a.MoveValue()),
                             EvolvingGraph::Canonicalize(b.MoveValue())),
            (std::vector<VertexId>{0}));
}

TEST(DeltaDirtyTest, WeightednessFlipAloneDirtiesNoRow) {
  // Unweighted rows count as weight 1.0: adding a weighted edge dirties
  // its own row only, not every row of the now-weighted graph.
  auto a = Graph::FromEdges(3, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  auto b = Graph::FromEdges(3, {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 3.0f}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->is_weighted());
  ASSERT_TRUE(b->is_weighted());
  EXPECT_EQ(DirtyOutVertices(*a, *b), (std::vector<VertexId>{2}));
  EXPECT_EQ(DirtyOutVertices(*b, *a), (std::vector<VertexId>{2}));
}

// --------------------------------------------------------------- churn

TEST(DeltaChurnTest, GeneratedBatchAppliesCleanly) {
  Graph base = RandomGraph(60, 600, 31);
  ChurnOptions churn;
  churn.fraction = 0.05;
  churn.seed = 4;
  auto batch = GenerateChurn(base, churn);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->empty());
  EvolvingGraph g(std::move(base));
  g.set_compaction_threshold(1e9);
  EXPECT_TRUE(g.Apply(*batch).ok());
  EXPECT_EQ(g.num_edges(), 600u);  // half deletes, half inserts
}

TEST(DeltaChurnTest, DeterministicForASeed) {
  const Graph base = RandomGraph(40, 300, 33);
  ChurnOptions churn;
  churn.fraction = 0.1;
  churn.seed = 12;
  auto a = GenerateChurn(base, churn);
  auto b = GenerateChurn(base, churn);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  churn.seed = 13;
  auto c = GenerateChurn(base, churn);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST(DeltaChurnTest, AvoidMaskProtectsMarkedVertices) {
  const Graph base = RandomGraph(50, 500, 35);
  std::vector<uint8_t> avoid(50, 0);
  for (VertexId v = 0; v < 25; ++v) avoid[v] = 1;
  ChurnOptions churn;
  churn.fraction = 0.08;
  churn.seed = 2;
  churn.avoid = avoid;
  auto batch = GenerateChurn(base, churn);
  ASSERT_TRUE(batch.ok());
  for (const EdgeDelta& d : *batch) {
    EXPECT_GE(d.src, 25u) << "touched avoided vertex";
    EXPECT_GE(d.dst, 25u) << "touched avoided vertex";
  }
}

TEST(DeltaChurnTest, RejectsBadOptions) {
  const Graph base = RandomGraph(10, 40, 1);
  ChurnOptions churn;
  churn.fraction = 1.5;
  EXPECT_TRUE(GenerateChurn(base, churn).status().IsInvalidArgument());
  churn.fraction = 0.1;
  std::vector<uint8_t> avoid(3, 0);  // wrong size
  churn.avoid = avoid;
  EXPECT_TRUE(GenerateChurn(base, churn).status().IsInvalidArgument());
}

// ----------------------------------------------------- merged subgraph

TEST(DeltaSubgraphTest, OverlaySubgraphMatchesCompacted) {
  EvolvingGraph g(RandomGraph(45, 350, 41, /*weighted=*/true));
  g.set_compaction_threshold(1e9);
  auto batch = GenerateChurn(g.base(), {.fraction = 0.05, .seed = 6});
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(g.Apply(*batch).ok());
  std::vector<VertexId> vertices = {3, 9, 14, 20, 27, 31, 44, 0};
  auto from_overlay = InducedSubgraph(g, vertices);
  ASSERT_TRUE(from_overlay.ok());
  ASSERT_TRUE(g.dirty());
  auto current = g.Current();
  ASSERT_TRUE(current.ok());
  auto from_csr = InducedSubgraph(**current, vertices);
  ASSERT_TRUE(from_csr.ok());
  EXPECT_EQ(from_overlay->graph.Fingerprint(), from_csr->graph.Fingerprint());
  EXPECT_EQ(from_overlay->graph.ToEdgeList(), from_csr->graph.ToEdgeList());
}

TEST(DeltaSubgraphTest, OverlaySubgraphValidatesInput) {
  EvolvingGraph g(MakeChain(4));
  EXPECT_TRUE(InducedSubgraph(g, {0, 9}).status().IsInvalidArgument());
  EXPECT_TRUE(InducedSubgraph(g, {1, 1}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace predict
