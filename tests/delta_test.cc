// Tests for graph/delta.h: applying delta batches, version
// fingerprints and lineage, canonicalization, the dirty set, and churn
// generation backing incremental re-prediction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/delta.h"
#include "graph/graph.h"

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

// The current version of `g`.
const Graph& Version(EvolvingGraph& g) { return **g.Current(); }

// Every byte of a version's five CSR arrays, then its weightedness and
// |E|: what a failed Apply must leave as it was.
std::string CsrBytes(const Graph& g) {
  std::string bytes;
  const auto append = [&](auto values) {
    if (!values.empty()) {
      bytes.append(reinterpret_cast<const char*>(values.data()),
                   values.size_bytes());
    }
  };
  append(g.out_offsets());
  append(g.out_targets());
  append(g.out_weights());
  append(g.in_offsets());
  append(g.in_sources());
  return bytes + (g.is_weighted() ? " weighted " : " unweighted ") +
         std::to_string(g.num_edges());
}

// ------------------------------------------------------------ canonical

TEST(DeltaCanonicalizeTest, SortsRowsAndPreservesEdgeSet) {
  std::vector<Edge> edges = {{0, 3, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f},
                             {2, 1, 1.0f}, {2, 0, 1.0f}};
  auto g = Graph::FromEdges(4, edges);
  ASSERT_TRUE(g.ok());
  const Graph canon = EvolvingGraph::Canonicalize(g.MoveValue());
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
  });
  EXPECT_EQ(canon.ToEdgeList(), edges);
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

// --------------------------------------------------------------- apply

TEST(DeltaOverlayTest, InsertShowsUpInMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  EXPECT_EQ(g.num_edges(), 4u);
  const auto row = Version(g).out_neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()),
            (std::vector<VertexId>{1, 3}));
}

TEST(DeltaOverlayTest, DeleteRemovesFromMergedView) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(Version(g).out_degree(1), 0u);
  EXPECT_EQ(Version(g).in_degree(2), 0u);
}

TEST(DeltaOverlayTest, DeleteCancelsPendingInsert) {
  EvolvingGraph g(MakeChain(3));
  const uint64_t fp0 = Version(g).Fingerprint();
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 2)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  // The insert/delete pair restores the previous version's identity.
  EXPECT_EQ(Version(g).Fingerprint(), fp0);
}

TEST(DeltaOverlayTest, ParallelEdgeDeleteConsumesOneOccurrence) {
  auto base = Graph::FromEdges(2, {{0, 1, 1.0f}, {0, 1, 1.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(Version(g).out_degree(0), 1u);
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  EXPECT_EQ(Version(g).out_degree(0), 0u);
}

TEST(DeltaOverlayTest, WeightedInsertsMergeInCanonicalOrder) {
  auto base = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(base.ok());
  EvolvingGraph g(base.MoveValue());
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 1, 1.0f),
                       EdgeDelta::Insert(0, 1, 3.0f)}).ok());
  const auto weights = Version(g).out_weights(0);
  EXPECT_EQ(std::vector<float>(weights.begin(), weights.end()),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

// A delete removes the (src, dst) edge with the lowest weight bits in the
// version the batch's earlier operations reached, so splitting a batch or
// reading the graph between batches cannot change the version.
TEST(DeltaApplyTest, SameOperationsReachTheSameVersionHoweverBatched) {
  const auto one_edge = [] {
    auto g = Graph::FromEdges(2, {{0, 1, 1.0f}});
    EXPECT_TRUE(g.ok());
    return g.MoveValue();
  };
  const EdgeDelta insert = EdgeDelta::Insert(0, 1, 2.0f);
  const EdgeDelta remove = EdgeDelta::Delete(0, 1);

  EvolvingGraph two_batches(one_edge());
  ASSERT_TRUE(two_batches.Apply({insert}).ok());
  ASSERT_TRUE(two_batches.Apply({remove}).ok());

  EvolvingGraph read_between(one_edge());
  ASSERT_TRUE(read_between.Apply({insert}).ok());
  ASSERT_TRUE(read_between.Current().ok());
  ASSERT_TRUE(read_between.Apply({remove}).ok());

  EvolvingGraph one_batch(one_edge());
  ASSERT_TRUE(one_batch.Apply({insert, remove}).ok());

  auto cold = Graph::FromEdges(2, {{0, 1, 2.0f}});
  ASSERT_TRUE(cold.ok());
  const Graph expected = EvolvingGraph::Canonicalize(cold.MoveValue());
  for (EvolvingGraph* g : {&two_batches, &read_between, &one_batch}) {
    SCOPED_TRACE(g == &two_batches    ? "two batches"
                 : g == &read_between ? "two batches, read between"
                                      : "one batch");
    EXPECT_EQ(Version(*g).ToEdgeList(), (std::vector<Edge>{{0, 1, 2.0f}}));
    EXPECT_EQ(Version(*g).Fingerprint(), expected.Fingerprint());
  }
}

// A batch that grows row a by one edge and shrinks row b > a by one is
// spliced into the version's own arrays: none of them moves to new
// memory, only the out-offsets in (a, b] shift, and on the in side only
// those between the inserted and the deleted edge's target.
TEST(DeltaApplyTest, NetZeroBatchSplicesInPlace) {
  EvolvingGraph g(RandomGraph(64, 400, 21, /*weighted=*/true));
  const Graph& version = Version(g);
  const auto addresses = [](const Graph& v) {
    return std::vector<const void*>{
        v.out_offsets().data(), v.out_targets().data(),
        v.out_weights().data(), v.in_offsets().data(),
        v.in_sources().data()};
  };
  const std::vector<const void*> before = addresses(version);
  const std::vector<uint64_t> out_before(version.out_offsets().begin(),
                                         version.out_offsets().end());
  const std::vector<uint64_t> in_before(version.in_offsets().begin(),
                                        version.in_offsets().end());
  constexpr VertexId kA = 10;
  constexpr VertexId kB = 50;
  constexpr VertexId kInserted = 5;
  ASSERT_GT(version.out_degree(kB), 0u);
  const VertexId deleted = version.out_neighbors(kB).back();
  ASSERT_GT(deleted, kInserted);

  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(kA, kInserted, 2.0f),
                       EdgeDelta::Delete(kB, deleted)})
                  .ok());
  ASSERT_NE(Version(g).lineage(), nullptr);
  EXPECT_EQ(addresses(Version(g)), before);
  for (VertexId v = 0; v <= 64; ++v) {
    const bool out_shifts = v > kA && v <= kB;
    EXPECT_EQ(Version(g).out_offsets()[v], out_before[v] + out_shifts) << v;
    const bool in_shifts = v > kInserted && v <= deleted;
    EXPECT_EQ(Version(g).in_offsets()[v], in_before[v] + in_shifts) << v;
  }
}

// A stream of single-edge inserts grows the arrays geometrically: each
// growth reallocates, so an exact-size reserve would copy all of |E|
// for every version.
TEST(DeltaApplyTest, GrowingStreamReallocatesLogarithmically) {
  constexpr int kInserts = 1024;
  EvolvingGraph g(MakeChain(64));
  Rng rng(29);
  int reallocations = 0;
  const VertexId* targets = Version(g).out_targets().data();
  for (int i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(g.Apply({EdgeDelta::Insert(
                             static_cast<VertexId>(rng.Uniform(64)),
                             static_cast<VertexId>(rng.Uniform(64)))})
                    .ok());
    reallocations += Version(g).out_targets().data() != targets;
    targets = Version(g).out_targets().data();
  }
  EXPECT_EQ(g.num_edges(), 63u + kInserts);
  EXPECT_LE(reallocations, std::bit_width(unsigned{kInserts}));
}

// ---------------------------------------------------------- validation

TEST(DeltaValidationTest, RejectsUnknownVertex) {
  EvolvingGraph g(MakeChain(3));
  const Status s = g.Apply({EdgeDelta::Insert(0, 9)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("(0 -> 9)"), std::string::npos) << s.message();
  EXPECT_EQ(g.num_edges(), 2u);
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
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(3, 0, 2.5f)}).ok());
  const uint64_t fp = Version(g).Fingerprint();
  const GraphLineage* lineage = Version(g).lineage();
  const std::vector<Edge> edges = Version(g).ToEdgeList();
  const std::string bytes = CsrBytes(Version(g));
  // Valid operations on lower rows (one grows row 0, one empties row
  // 1), then a delete of a missing edge: nothing may stick.
  const Status s = g.Apply({EdgeDelta::Insert(0, 2, 1.5f),
                            EdgeDelta::Delete(1, 2), EdgeDelta::Delete(2, 1)});
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(Version(g).Fingerprint(), fp);
  EXPECT_EQ(Version(g).lineage(), lineage);
  EXPECT_EQ(Version(g).ToEdgeList(), edges);
  EXPECT_EQ(CsrBytes(Version(g)), bytes);
  EXPECT_TRUE(Version(g).is_weighted());
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(DeltaValidationTest, NetDeltaValidationAllowsDeleteOfBatchInsert) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(
      g.Apply({EdgeDelta::Insert(2, 0), EdgeDelta::Delete(2, 0)}).ok());
  EXPECT_EQ(g.num_edges(), 2u);
}

// ---------------------------------------------------------- versioning

TEST(DeltaFingerprintTest, NeverZeroAndStableAcrossCompaction) {
  EvolvingGraph g(RandomGraph(30, 120, 3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(1, 2)}).ok());
  const uint64_t fp = Version(g).Fingerprint();
  EXPECT_NE(fp, 0u);
  EXPECT_EQ(Version(g).Fingerprint(), fp);
  // The stamp equals a from-scratch hash of the same structure.
  EXPECT_EQ(EvolvingGraph::Canonicalize(Version(g)).Fingerprint(), fp);
}

TEST(DeltaFingerprintTest, OrderOfBatchesDoesNotMatter) {
  EvolvingGraph a(MakeChain(5));
  EvolvingGraph b(MakeChain(5));
  ASSERT_TRUE(a.Apply({EdgeDelta::Insert(0, 2)}).ok());
  ASSERT_TRUE(a.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Delete(2, 3)}).ok());
  ASSERT_TRUE(b.Apply({EdgeDelta::Insert(0, 2)}).ok());
  EXPECT_EQ(Version(a).Fingerprint(), Version(b).Fingerprint());
  // And both equal a cold graph built on the final edge set.
  auto cold = Graph::FromEdges(
      5, {{0, 1, 1.0f}, {1, 2, 1.0f}, {3, 4, 1.0f}, {0, 2, 1.0f}});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Version(a).Fingerprint(),
            EvolvingGraph::Canonicalize(cold.MoveValue()).Fingerprint());
}

TEST(DeltaFingerprintTest, DistinctEdgeSetsGetDistinctVersions) {
  EvolvingGraph g(MakeChain(6));
  std::vector<uint64_t> seen = {Version(g).Fingerprint()};
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(0, 3)}).ok());
  seen.push_back(Version(g).Fingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(5, 0)}).ok());
  seen.push_back(Version(g).Fingerprint());
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1)}).ok());
  seen.push_back(Version(g).Fingerprint());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(DeltaFingerprintTest, WeightChangesTheVersion) {
  EvolvingGraph g(MakeChain(3));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(2, 0, 2.0f)}).ok());
  EvolvingGraph h(MakeChain(3));
  ASSERT_TRUE(h.Apply({EdgeDelta::Insert(2, 0, 1.0f)}).ok());
  EXPECT_NE(Version(g).Fingerprint(), Version(h).Fingerprint());
}

// ---------------------------------------------------------- compaction

TEST(DeltaCompactionTest, CompactedBytesMatchColdCanonicalBuild) {
  Graph base = RandomGraph(32, 160, 13, /*weighted=*/true);
  std::vector<Edge> edges = base.ToEdgeList();
  EvolvingGraph g(std::move(base));
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
  auto cold = Graph::FromEdges(32, std::move(edges));
  ASSERT_TRUE(cold.ok());
  const Graph canon = EvolvingGraph::Canonicalize(cold.MoveValue());
  EXPECT_EQ(Version(g).Fingerprint(), canon.Fingerprint());
  EXPECT_EQ(Version(g).ToEdgeList(), canon.ToEdgeList());
}

TEST(DeltaCompactionTest, CurrentIsStableWhenClean) {
  EvolvingGraph g(MakeChain(4));
  auto a = g.Current();
  ASSERT_TRUE(a.ok());
  auto b = g.Current();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // same pointer: reading builds nothing
}

// ------------------------------------------------------------- lineage

TEST(DeltaLineageTest, CompactionStampsFingerprintAndLineageWithoutAScan) {
  EvolvingGraph g(MakeChain(6));
  const uint64_t parent_fp = Version(g).Fingerprint();
  EXPECT_EQ(Version(g).lineage(), nullptr);  // the base has no parent
  const uint64_t scans = Graph::FingerprintComputationsForTest();
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(4, 0), EdgeDelta::Delete(1, 2)}).ok());
  const uint64_t stamped = Version(g).Fingerprint();
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), scans);
  const GraphLineage* lineage = Version(g).lineage();
  ASSERT_NE(lineage, nullptr);
  EXPECT_EQ(lineage->parent_fingerprint, parent_fp);
  EXPECT_EQ(lineage->dirty, (std::vector<VertexId>{1, 4}));
  // The stamp equals a from-scratch hash of the same structure.
  EXPECT_EQ(stamped, EvolvingGraph::Canonicalize(Version(g)).Fingerprint());
}

TEST(DeltaLineageTest, OverlayThatNetsOutKeepsTheBase) {
  EvolvingGraph g(MakeChain(4));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(3, 0)}).ok());
  const uint64_t fp = Version(g).Fingerprint();
  const GraphLineage* lineage = Version(g).lineage();
  ASSERT_NE(lineage, nullptr);
  // Delete an edge and re-insert it at its old weight: the batch is
  // non-empty but no row changes, so the version and its lineage stay.
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(0, 1), EdgeDelta::Insert(0, 1)}).ok());
  EXPECT_EQ(Version(g).Fingerprint(), fp);
  EXPECT_EQ(Version(g).lineage(), lineage);
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

}  // namespace
}  // namespace predict
