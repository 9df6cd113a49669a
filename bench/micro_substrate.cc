// google-benchmark microbenchmarks of the substrate: CSR construction,
// BFS-based statistics, sampling walks, a BSP superstep, and cost-model
// fitting. These guard the engine's performance, not the paper's
// numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include <cstdint>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/semiclustering.h"
#include "algorithms/topk_ranking.h"
#include "bsp/partition.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/regression.h"
#include "datasets/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "graph/transforms.h"
#include "graph/varint.h"
#include "sampling/sampler.h"

namespace {

using namespace predict;

const Graph& BenchGraph() {
  static const Graph graph =
      GeneratePreferentialAttachment({50000, 8, 0.3, 123}).MoveValue();
  return graph;
}

void BM_GraphBuildCsr(benchmark::State& state) {
  const auto edges = BenchGraph().ToEdgeList();
  const VertexId n = static_cast<VertexId>(BenchGraph().num_vertices());
  for (auto _ : state) {
    auto graph = Graph::FromEdges(n, edges);
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuildCsr)->Unit(benchmark::kMillisecond);

void BM_EffectiveDiameter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EffectiveDiameter(BenchGraph(), 0.9, static_cast<uint32_t>(state.range(0)), 7));
  }
}
BENCHMARK(BM_EffectiveDiameter)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_InducedSubgraph(benchmark::State& state) {
  SamplerOptions options;
  options.kind = SamplerKind::kBiasedRandomJump;
  options.sampling_ratio = static_cast<double>(state.range(0)) / 100.0;
  const auto vertices = SampleVertices(BenchGraph(), options).MoveValue();
  for (auto _ : state) {
    auto sub = InducedSubgraph(BenchGraph(), vertices);
    benchmark::DoNotOptimize(sub);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(vertices.size()));
}
BENCHMARK(BM_InducedSubgraph)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_AverageClusteringCoefficient(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(AverageClusteringCoefficient(
        BenchGraph(), static_cast<uint32_t>(state.range(0)), 7));
  }
}
BENCHMARK(BM_AverageClusteringCoefficient)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_BrjSampling(benchmark::State& state) {
  SamplerOptions options;
  options.kind = SamplerKind::kBiasedRandomJump;
  options.sampling_ratio = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto sample = SampleGraph(BenchGraph(), options);
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_BrjSampling)->Arg(1)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_PageRankSuperstep(benchmark::State& state) {
  // Fixed 3 supersteps of PageRank; measures engine throughput.
  bsp::EngineOptions options;
  options.num_workers = 29;
  options.num_threads = static_cast<int>(state.range(0));
  options.max_supersteps = 3;
  for (auto _ : state) {
    auto result = RunPageRank(BenchGraph(), {{"tau", 0.0}}, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          static_cast<int64_t>(BenchGraph().num_edges()));
}
BENCHMARK(BM_PageRankSuperstep)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

// The paper's two variable-message kernels as a cold request runs them:
// on the subgraph of a fresh BRJ sample (the predictor's default sampler,
// ratio 0.1) of the lj stand-in, under the paper's 29-worker deployment.
// Arg = engine threads (0 = inline, as perfbench's requests run). Items
// are the messages the run sends.
const Graph& ColdLjSample() {
  static const Graph& sample = *new Graph([] {
    const Graph lj = MakeDataset("lj", 1.0).MoveValue();
    return SampleGraph(lj, SamplerOptions{}).MoveValue().subgraph;
  }());
  return sample;
}

bsp::EngineOptions SampleRunOptions(int num_threads) {
  bsp::EngineOptions options = PaperClusterOptions();
  options.num_threads = num_threads;
  return options;
}

template <typename Run>
void TimeSampleRun(benchmark::State& state, const Run& run) {
  int64_t messages = 0;
  for (auto _ : state) {
    auto stats = run();
    if (!stats.ok()) {
      state.SkipWithError("sample run failed");
      break;
    }
    messages = 0;
    for (const bsp::SuperstepStats& step : stats->supersteps) {
      messages += static_cast<int64_t>(step.Totals().total_messages());
    }
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * messages);
}

// Top-k without its PageRank pre-pass: the input ranks are computed once,
// outside the timing loop, as RunTopKRanking's pre-pass would.
void BM_TopKSampleRun(benchmark::State& state) {
  const bsp::EngineOptions options =
      SampleRunOptions(static_cast<int>(state.range(0)));
  static const std::vector<double>& ranks = *new std::vector<double>([] {
    bsp::EngineOptions pre_pass = SampleRunOptions(0);
    pre_pass.max_supersteps = 15;  // TopKRankingSpec's rank_iterations
    pre_pass.memory_budget_bytes = 0;
    return RunPageRank(ColdLjSample(), {{"tau", 0.0}}, pre_pass)
        .MoveValue()
        .ranks;
  }());
  TimeSampleRun(state, [&]() -> Result<bsp::RunStats> {
    PREDICT_ASSIGN_OR_RETURN(TopKResult result,
                             RunTopKRanking(ColdLjSample(), {}, options, ranks));
    return std::move(result.stats);
  });
}
BENCHMARK(BM_TopKSampleRun)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_SemiClusteringSampleRun(benchmark::State& state) {
  const bsp::EngineOptions options =
      SampleRunOptions(static_cast<int>(state.range(0)));
  TimeSampleRun(state, [&]() -> Result<bsp::RunStats> {
    PREDICT_ASSIGN_OR_RETURN(SemiClusteringResult result,
                             RunSemiClustering(ColdLjSample(), {}, options));
    return std::move(result.stats);
  });
}
BENCHMARK(BM_SemiClusteringSampleRun)
    ->Arg(0)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Owner lookup cost per strategy: the per-message work SendMessage adds
// on top of the payload copy. Strategy is the benchmark argument
// (0 = hash arithmetic, 1 = hash via tables, 2 = range, 3 = edge).
void BM_PartitionOwnerLookup(benchmark::State& state) {
  using bsp::PartitionMap;
  const Graph& g = BenchGraph();
  PartitionMap map;
  switch (state.range(0)) {
    case 0: map = PartitionMap::HashModulo(29, g.num_vertices()); break;
    case 1: map = PartitionMap::HashModuloTable(29, g.num_vertices()); break;
    case 2: map = PartitionMap::ContiguousRange(29, g.num_vertices()); break;
    default: map = PartitionMap::GreedyEdgeBalanced(29, g); break;
  }
  // Walk the edge targets — the id stream SendMessageToAllNeighbors sees.
  const std::span<const VertexId> targets = g.out_targets();
  uint64_t sink = 0;
  for (auto _ : state) {
    for (const VertexId target : targets) {
      const PartitionMap::Location loc = map.Locate(target);
      sink += loc.worker + loc.local;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(targets.size()));
}
BENCHMARK(BM_PartitionOwnerLookup)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Full partitioned supersteps: BM_PageRankSuperstep's workload under
// each partitioning strategy (0 = hash, 1 = range, 2 = edge-balanced).
// Hash is the fast path gated by bench/partition_gate.cc.
void BM_PartitionedSuperstep(benchmark::State& state) {
  bsp::EngineOptions options;
  options.num_workers = 29;
  options.num_threads = 0;
  options.max_supersteps = 3;
  options.partition = static_cast<bsp::PartitionStrategy>(state.range(0));
  for (auto _ : state) {
    auto result = RunPageRank(BenchGraph(), {{"tau", 0.0}}, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          static_cast<int64_t>(BenchGraph().num_edges()));
}
BENCHMARK(BM_PartitionedSuperstep)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_ConnectedComponentsSuperstep(benchmark::State& state) {
  // Full min-label propagation to convergence: message-heavy early
  // supersteps followed by a sparse-activation tail where only a trickle
  // of label improvements keeps vertices awake. The undirected view is
  // built once, outside the timing loop.
  static const Graph& undirected =
      *new Graph(ToUndirected(BenchGraph()).MoveValue());
  bsp::EngineOptions options;
  options.num_workers = 29;
  options.num_threads = static_cast<int>(state.range(0));
  int64_t supersteps = 0;
  for (auto _ : state) {
    ConnectedComponentsProgram program;
    bsp::Engine<ComponentValue, VertexId> engine(options);
    auto stats = engine.Run(undirected, &program);
    if (!stats.ok()) {
      state.SkipWithError("engine run failed");
      break;
    }
    supersteps += stats->num_supersteps();
    benchmark::DoNotOptimize(engine.vertex_values());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(undirected.num_edges()));
  state.counters["supersteps"] =
      benchmark::Counter(static_cast<double>(supersteps) /
                         static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ConnectedComponentsSuperstep)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

// Only kSparseActive vertices (ids 0..511) ever act after superstep 0:
// each pings the next one, everyone votes to halt, and messages
// reactivate only the ring members. With worklists the per-superstep
// cost tracks the 512 active vertices; scanning engines pay O(|V|)
// every superstep, so growing |V| at fixed activity exposes the
// difference (1% active at the smaller size, 0.06% at the larger).
constexpr VertexId kSparseActive = 512;

class SparseRingProgram : public bsp::VertexProgram<int, int> {
 public:
  explicit SparseRingProgram(int rounds) : rounds_(rounds) {}
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(bsp::VertexContext<int, int>* ctx,
               std::span<const int> messages) override {
    for (const int m : messages) ctx->value() += m;
    if (ctx->superstep() < rounds_ && ctx->id() < kSparseActive) {
      ctx->SendMessage((ctx->id() + 1) % kSparseActive, 1);
    }
    ctx->VoteToHalt();
  }

 private:
  int rounds_;
};

void BM_SparseActivation(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  static std::map<VertexId, Graph>& cache = *new std::map<VertexId, Graph>();
  if (cache.find(n) == cache.end()) {
    cache.emplace(n, GenerateChain(n).MoveValue());
  }
  const Graph& graph = cache.at(n);
  constexpr int kRounds = 400;
  bsp::EngineOptions options;
  options.num_workers = 29;
  options.num_threads = 0;
  options.max_supersteps = kRounds + 2;
  for (auto _ : state) {
    SparseRingProgram program(kRounds);
    bsp::Engine<int, int> engine(options);
    auto stats = engine.Run(graph, &program);
    if (!stats.ok()) {
      state.SkipWithError("engine run failed");
      break;
    }
    benchmark::DoNotOptimize(stats);
  }
  // Items = vertex activations across the run's supersteps; wall time
  // should track these, not |V|.
  state.SetItemsProcessed(state.iterations() * kRounds * kSparseActive);
}
BENCHMARK(BM_SparseActivation)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

// BM_SparseActivation's counterpart: a fully-active PageRank workload
// where every vertex computes and messages every superstep — the regime
// the dense flat-array path exists for. Arg pins the path (0 = sparse
// worklist, 1 = dense). Results are bit-identical either way; only the
// host wall clock moves, and bench/rmat_scale_gate.cc gates the ratio.
void BM_DenseSuperstep(benchmark::State& state) {
  bsp::EngineOptions options;
  options.num_workers = 29;
  options.num_threads = 0;
  options.max_supersteps = 3;
  options.superstep_path = state.range(0) == 0 ? bsp::SuperstepPath::kSparse
                                               : bsp::SuperstepPath::kDense;
  for (auto _ : state) {
    auto result = RunPageRank(BenchGraph(), {{"tau", 0.0}}, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 3 *
                          static_cast<int64_t>(BenchGraph().num_edges()));
}
BENCHMARK(BM_DenseSuperstep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- varint codec

// Encode throughput over the bench graph's adjacency lists, reported as
// bytes/s of PLAIN input consumed (so encode and decode rates compare
// against the same denominator: the flat 4-byte CSR representation).
void BM_VarintEncode(benchmark::State& state) {
  const Graph& g = BenchGraph();
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(g.num_edges()) * 2);
  for (auto _ : state) {
    out.clear();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      uint32_t prev = 0;
      varint::AppendDeltaList(g.out_neighbors(v), &prev, &out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()) * 4);
}
BENCHMARK(BM_VarintEncode)->Unit(benchmark::kMillisecond);

// Decode throughput via the engine-facing accessor (block-wise
// DecodeDeltaBlock under ForEachOutNeighbor), same plain-bytes
// denominator as BM_VarintEncode.
void BM_VarintDecode(benchmark::State& state) {
  static const Graph& compressed =
      *new Graph(Graph::WithCompressedEdges(BenchGraph()));
  uint64_t sink = 0;
  for (auto _ : state) {
    for (VertexId v = 0; v < compressed.num_vertices(); ++v) {
      compressed.ForEachOutNeighbor(v, [&](VertexId u) { sink += u; });
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(compressed.num_edges()) * 4);
}
BENCHMARK(BM_VarintDecode)->Unit(benchmark::kMillisecond);

void BM_ForwardSelection(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(kNumFeatures);
    for (auto& x : row) x = rng.NextDouble() * 1e6;
    y.push_back(2e-6 * row[3] + 9e-8 * row[5] + 0.25);
    rows.push_back(std::move(row));
  }
  for (auto _ : state) {
    auto model = ForwardSelect(rows, y, kNumFeatures);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_ForwardSelection)->Unit(benchmark::kMicrosecond);

// A batch shaped like a periphery update of a churn stream: two inserts
// and two deletes, each on a row of its own, so |E| stays put.
EdgeDeltaBatch PeripheryBatch(const Graph& graph) {
  Rng rng(7);
  const uint64_t n = graph.num_vertices();
  std::vector<VertexId> rows;
  EdgeDeltaBatch batch;
  while (batch.size() < 4) {
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (std::find(rows.begin(), rows.end(), v) != rows.end()) continue;
    if (batch.size() < 2) {
      batch.push_back(
          EdgeDelta::Insert(v, static_cast<VertexId>(rng.Uniform(n))));
    } else if (graph.out_degree(v) != 0) {
      batch.push_back(EdgeDelta::Delete(v, graph.out_neighbors(v)[0]));
    } else {
      continue;
    }
    rows.push_back(v);
  }
  return batch;
}

// Building the next version from a churn batch of Arg()% of |E|, or for
// Arg(0) from a periphery-shaped batch of four operations.
void BM_DeltaApply(benchmark::State& state) {
  const Graph base = EvolvingGraph::Canonicalize(BenchGraph());
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  auto batch = state.range(0) == 0
                   ? Result<EdgeDeltaBatch>(PeripheryBatch(base))
                   : GenerateChurn(base, {.fraction = fraction, .seed = 7});
  if (!batch.ok()) {
    state.SkipWithError("churn generation failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    EvolvingGraph graph(BenchGraph());
    state.ResumeTiming();
    benchmark::DoNotOptimize(graph.Apply(*batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchGraph().num_edges()));
}
BENCHMARK(BM_DeltaApply)->Arg(0)->Arg(1)->Arg(10)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
