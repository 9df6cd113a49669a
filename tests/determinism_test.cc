// Bit-identical determinism of the BSP engine across host thread counts.
//
// Host threads only accelerate the simulation: RunStats (per-superstep
// Table-1 counters, simulated seconds, memory model) and final vertex
// values must be bit-identical for any num_threads, including 0
// (inline). These tests pin that contract for two real algorithms and
// for a deliberately order-sensitive (non-commutative) vertex program
// that folds its inbox into a hash, which fails if per-vertex delivery
// order ever deviates from (sender worker asc, within-sender send
// order).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/semiclustering.h"
#include "bsp/engine.h"
#include "bsp/partition.h"
#include "graph/generators.h"
#include "tests/run_fingerprint.h"

namespace predict {
namespace {

using bsp::Engine;
using bsp::EngineOptions;
using bsp::PartitionStrategy;
using bsp::RunStats;
using bsp::VertexContext;
using bsp::WorkerCounters;
using testing::FingerprintDoubles;
using testing::FingerprintIds;
using testing::FingerprintRunStats;

constexpr int kThreadCounts[] = {0, 1, 2, 8};

EngineOptions ClusterOptions(int num_threads) {
  EngineOptions options;
  options.num_workers = 29;  // the paper's cluster
  options.num_threads = num_threads;
  return options;  // default cost profile, noise on: still deterministic
}

void ExpectCountersEqual(const WorkerCounters& a, const WorkerCounters& b) {
  EXPECT_EQ(a.active_vertices, b.active_vertices);
  EXPECT_EQ(a.total_vertices, b.total_vertices);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.remote_messages, b.remote_messages);
  EXPECT_EQ(a.local_message_bytes, b.local_message_bytes);
  EXPECT_EQ(a.remote_message_bytes, b.remote_message_bytes);
}

// Bit-identical comparison of everything the simulation derives (wall
// time excluded: it is the one host-dependent field).
void ExpectStatsIdentical(const RunStats& a, const RunStats& b) {
  ASSERT_EQ(a.num_supersteps(), b.num_supersteps());
  EXPECT_EQ(a.halt_reason, b.halt_reason);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.superstep_phase_seconds, b.superstep_phase_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.static_critical_worker, b.static_critical_worker);
  for (int s = 0; s < a.num_supersteps(); ++s) {
    const auto& sa = a.supersteps[s];
    const auto& sb = b.supersteps[s];
    EXPECT_EQ(sa.simulated_seconds, sb.simulated_seconds) << "superstep " << s;
    EXPECT_EQ(sa.critical_worker, sb.critical_worker) << "superstep " << s;
    EXPECT_EQ(sa.memory_bytes, sb.memory_bytes) << "superstep " << s;
    EXPECT_EQ(sa.aggregates, sb.aggregates) << "superstep " << s;
    ASSERT_EQ(sa.per_worker.size(), sb.per_worker.size());
    for (size_t w = 0; w < sa.per_worker.size(); ++w) {
      ExpectCountersEqual(sa.per_worker[w], sb.per_worker[w]);
    }
  }
}

TEST(DeterminismTest, PageRankBitIdenticalAcrossThreadCounts) {
  const Graph g =
      GeneratePreferentialAttachment({4000, 6, 0.3, 29}).MoveValue();
  bool have_baseline = false;
  PageRankResult baseline;
  for (const int threads : kThreadCounts) {
    auto result =
        RunPageRank(g, {{"tau", 1e-4}}, ClusterOptions(threads));
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    if (!have_baseline) {
      baseline = std::move(result).MoveValue();
      have_baseline = true;
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectStatsIdentical(baseline.stats, result->stats);
    ASSERT_EQ(baseline.ranks.size(), result->ranks.size());
    for (size_t v = 0; v < baseline.ranks.size(); ++v) {
      // EXPECT_EQ, not NEAR: float summation order must not change.
      EXPECT_EQ(baseline.ranks[v], result->ranks[v]) << "vertex " << v;
    }
  }
}

TEST(DeterminismTest, ConnectedComponentsBitIdenticalAcrossThreadCounts) {
  // Disconnected union of communities: a long sparse-activation tail.
  const Graph g =
      GeneratePreferentialAttachment({3000, 3, 0.5, 31}).MoveValue();
  bool have_baseline = false;
  ConnectedComponentsResult baseline;
  for (const int threads : kThreadCounts) {
    auto result = RunConnectedComponents(g, ClusterOptions(threads));
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    if (!have_baseline) {
      baseline = std::move(result).MoveValue();
      have_baseline = true;
      continue;
    }
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectStatsIdentical(baseline.stats, result->stats);
    EXPECT_EQ(baseline.labels, result->labels);
  }
}

// ------------------------------------------- seed-engine golden pinning

// The run fingerprints of the seed engine (captured before the
// PartitionMap refactor, commit 38cd185) for PageRank, connected
// components and semi-clustering across worker counts. The hash
// Partitioner is the seed scheme's replacement and must reproduce these
// bit for bit, for every worker count and every host thread count; any
// change here is a silent behavioural break of the engine, not a test to
// update.
struct GoldenFingerprint {
  uint32_t workers;
  uint64_t pagerank;    // RunStats + final ranks
  uint64_t components;  // RunStats + final labels
  uint64_t semicluster; // RunStats
};

constexpr GoldenFingerprint kSeedGoldens[] = {
    {3u, 0x7595415653674d19ull, 0x4981973de31be539ull, 0x171f52343d1eacceull},
    {10u, 0xe276f012023efb15ull, 0x45ee625acd5ce880ull, 0xbb3b12a8e4caa168ull},
    {29u, 0x8d186e2e82759bffull, 0x020ae60863c92204ull, 0x9e525aadf52c72a4ull},
    {64u, 0xb25ca69b7ae61869ull, 0x21fe403a66b4e24aull, 0xdd228056bd97b7bbull},
};

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
const Graph& GoldenScGraph() {
  static const Graph g =
      GeneratePreferentialAttachment({800, 4, 0.4, 7}).MoveValue();
  return g;
}

TEST(DeterminismTest, HashPartitionerReproducesSeedEngineFingerprints) {
  for (const GoldenFingerprint& golden : kSeedGoldens) {
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("workers=" + std::to_string(golden.workers) +
                   " threads=" + std::to_string(threads));
      EngineOptions options;
      options.num_workers = golden.workers;
      options.num_threads = threads;

      auto pr = RunPageRank(GoldenPrGraph(), {{"tau", 1e-6}}, options);
      ASSERT_TRUE(pr.ok());
      EXPECT_EQ(FingerprintDoubles(pr->ranks, FingerprintRunStats(pr->stats)),
                golden.pagerank);

      auto cc = RunConnectedComponents(GoldenCcGraph(), options);
      ASSERT_TRUE(cc.ok());
      EXPECT_EQ(FingerprintIds(cc->labels, FingerprintRunStats(cc->stats)),
                golden.components);

      auto sc = RunSemiClustering(GoldenScGraph(), {{"tau", 0.01}}, options);
      ASSERT_TRUE(sc.ok());
      EXPECT_EQ(FingerprintRunStats(sc->stats), golden.semicluster);
    }
  }
}

// The alternative partitioners have no seed to match, but each must be
// internally deterministic: bit-identical output for any host thread
// count and across repeated runs.
TEST(DeterminismTest, AlternativePartitionersAreInternallyDeterministic) {
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kContiguousRange,
        PartitionStrategy::kGreedyEdgeBalanced}) {
    for (const uint32_t workers : {10u, 29u}) {
      SCOPED_TRACE(std::string(PartitionStrategyName(strategy)) +
                   " workers=" + std::to_string(workers));
      bool have_baseline = false;
      uint64_t baseline_pr = 0;
      uint64_t baseline_cc = 0;
      // Two passes at thread count 0 pin run-to-run determinism; the
      // remaining thread counts pin thread-count independence.
      const int thread_counts[] = {0, 0, 1, 2, 8};
      for (const int threads : thread_counts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EngineOptions options;
        options.num_workers = workers;
        options.num_threads = threads;
        options.partition = strategy;

        auto pr = RunPageRank(GoldenPrGraph(), {{"tau", 1e-6}}, options);
        ASSERT_TRUE(pr.ok());
        const uint64_t pr_fp =
            FingerprintDoubles(pr->ranks, FingerprintRunStats(pr->stats));

        auto cc = RunConnectedComponents(GoldenCcGraph(), options);
        ASSERT_TRUE(cc.ok());
        const uint64_t cc_fp =
            FingerprintIds(cc->labels, FingerprintRunStats(cc->stats));

        if (!have_baseline) {
          baseline_pr = pr_fp;
          baseline_cc = cc_fp;
          have_baseline = true;
          continue;
        }
        EXPECT_EQ(pr_fp, baseline_pr);
        EXPECT_EQ(cc_fp, baseline_cc);
      }
    }
  }
}

// ----------------------------------------- superstep path bit-identity

// The dense flat-array path must be indistinguishable from the sparse
// worklist path in everything but host wall clock — and the adaptive
// policy flips between them mid-run, so the guarantee must hold for any
// interleaving. Pins PageRank (every superstep fully active), connected
// components (dense head, long sparse tail: the adaptive run actually
// transitions) and semi-clustering across paths x thread counts against
// the always-sparse fingerprint.
TEST(DeterminismTest, SuperstepPathsBitIdentical) {
  const bsp::SuperstepPath paths[] = {bsp::SuperstepPath::kAdaptive,
                                      bsp::SuperstepPath::kDense};
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineOptions sparse = ClusterOptions(threads);
    sparse.superstep_path = bsp::SuperstepPath::kSparse;

    auto pr = RunPageRank(GoldenPrGraph(), {{"tau", 1e-6}}, sparse);
    auto cc = RunConnectedComponents(GoldenCcGraph(), sparse);
    auto sc = RunSemiClustering(GoldenScGraph(), {}, sparse);
    ASSERT_TRUE(pr.ok());
    ASSERT_TRUE(cc.ok());
    ASSERT_TRUE(sc.ok());
    const uint64_t pr_fp =
        FingerprintDoubles(pr->ranks, FingerprintRunStats(pr->stats));
    const uint64_t cc_fp =
        FingerprintIds(cc->labels, FingerprintRunStats(cc->stats));
    const uint64_t sc_fp = FingerprintRunStats(sc->stats);

    for (const bsp::SuperstepPath path : paths) {
      SCOPED_TRACE(bsp::SuperstepPathName(path));
      EngineOptions options = sparse;
      options.superstep_path = path;

      auto pr2 = RunPageRank(GoldenPrGraph(), {{"tau", 1e-6}}, options);
      ASSERT_TRUE(pr2.ok());
      EXPECT_EQ(FingerprintDoubles(pr2->ranks, FingerprintRunStats(pr2->stats)),
                pr_fp);

      auto cc2 = RunConnectedComponents(GoldenCcGraph(), options);
      ASSERT_TRUE(cc2.ok());
      EXPECT_EQ(FingerprintIds(cc2->labels, FingerprintRunStats(cc2->stats)),
                cc_fp);

      auto sc2 = RunSemiClustering(GoldenScGraph(), {}, options);
      ASSERT_TRUE(sc2.ok());
      EXPECT_EQ(FingerprintRunStats(sc2->stats), sc_fp);
    }
  }
}

// A compressed input graph runs through the SAME engine paths and must
// produce bit-identical RESULTS: the representation changes decode cost
// and simulated memory accounting (a compressed graph genuinely occupies
// fewer simulated bytes — that is the point), never ranks, iteration
// count, or message traffic. The engine reads the representation off
// the graph it runs.
TEST(DeterminismTest, CompressedGraphRunsBitIdenticalToPlain) {
  const Graph compressed = Graph::WithCompressedEdges(GoldenPrGraph());
  auto plain_run =
      RunPageRank(GoldenPrGraph(), {{"tau", 1e-6}}, ClusterOptions(0));
  ASSERT_TRUE(plain_run.ok());
  for (const int threads : kThreadCounts) {
    auto run = RunPageRank(compressed, {{"tau", 1e-6}}, ClusterOptions(threads));
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run->ranks, plain_run->ranks);
    ASSERT_EQ(run->stats.num_supersteps(), plain_run->stats.num_supersteps());
    EXPECT_EQ(run->stats.halt_reason, plain_run->stats.halt_reason);
    EXPECT_EQ(run->stats.superstep_phase_seconds,
              plain_run->stats.superstep_phase_seconds);
    for (int s = 0; s < run->stats.num_supersteps(); ++s) {
      const auto a = run->stats.supersteps[s].Totals();
      const auto b = plain_run->stats.supersteps[s].Totals();
      EXPECT_EQ(a.total_messages(), b.total_messages()) << "superstep " << s;
      EXPECT_EQ(a.total_message_bytes(), b.total_message_bytes())
          << "superstep " << s;
    }
    // The representation shrinks simulated memory, never grows it.
    EXPECT_LT(run->stats.peak_memory_bytes, plain_run->stats.peak_memory_bytes);
  }
}

// ----------------------------------------------------- delivery ordering

// Non-commutative inbox fold: value <- value * 7 + message. Any change
// in per-vertex delivery order changes the result. At superstep 0 every
// vertex sends two messages (id*10 + 1, id*10 + 2) to vertex 0.
class HashChainProgram : public bsp::VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>* ctx,
               std::span<const int64_t> messages) override {
    for (const int64_t m : messages) ctx->value() = ctx->value() * 7 + m;
    if (ctx->superstep() == 0) {
      const int64_t base = static_cast<int64_t>(ctx->id()) * 10;
      ctx->SendMessage(0, base + 1);
      ctx->SendMessage(0, base + 2);
    }
    ctx->VoteToHalt();
  }
};

TEST(DeterminismTest, DeliveryOrderIsSenderWorkerThenSendOrder) {
  // 6 vertices on 3 workers (owner = id % 3): worker 0 owns {0, 3},
  // worker 1 owns {1, 4}, worker 2 owns {2, 5}. Vertex 0's inbox must
  // be ordered by sender worker asc, within a worker by compute order
  // (ascending vertex id), within a sender by send-call order.
  GraphBuilder b(6);
  const Graph g = b.Build().MoveValue();

  const std::vector<int64_t> expected_order = {
      1, 2, 31, 32,    // worker 0: senders 0, 3
      11, 12, 41, 42,  // worker 1: senders 1, 4
      21, 22, 51, 52,  // worker 2: senders 2, 5
  };
  int64_t expected = 0;
  for (const int64_t m : expected_order) expected = expected * 7 + m;

  for (const int threads : kThreadCounts) {
    EngineOptions options;
    options.num_workers = 3;
    options.num_threads = threads;
    Engine<int64_t, int64_t> engine(options);
    HashChainProgram program;
    ASSERT_TRUE(engine.Run(g, &program).ok()) << "threads=" << threads;
    EXPECT_EQ(engine.vertex_values()[0], expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace predict
