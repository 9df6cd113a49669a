// Churn gate (ctest: churn_gate, labels bench-smoke and churn).
//
// Guards the evolving-graph bargain: after 1% edge churn, re-predicting
// through the incremental machinery (O(churn) versions + a kept sample or
// a spliced re-walk + content-keyed profile cache) must cost at most 10%
// of a cold predict — and stay bit-identical to a from-scratch predict on
// the mutated graph.
//
// Procedure, per service thread count in {0, 1, 2, 8}:
//
//   1. Cold: a 4-algorithm batch on the base graph, best of 3 runs with
//      caches cleared in between (the last run leaves the service's
//      incremental state primed on the base graph).
//   2. Churn rounds: 3 rounds of 1% seeded churn confined to vertices
//      the recorded walk never touched (the avoid mask) — the
//      "periphery churn around a stable core" workload the incremental
//      path is built for. Each round re-predicts the batch on the new
//      version; the best round must come in at <= 10% of cold.
//   3. Bit-identity: the final round's reports — and one further
//      *unrestricted* churn that dirties walked vertices and forces
//      partial/full re-walks — must match a plain uncached Predictor on
//      the same mutated graphs byte for byte.
//   4. Counted work: full-graph fingerprint scans per churn round, on
//      every thread leg. Each version arrives with its fingerprint
//      stamped by compaction, and an avoid-masked version keeps its
//      parent's sample artifact, whose subgraph fingerprint is already
//      memoized: a round builds no new subgraph, so it must scan none.
//
// Results mirror to BENCH_churn_gate.json (bench_json.h).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "graph/delta.h"
#include "sampling/sampler.h"
#include "service/prediction_service.h"

namespace {

using namespace predict;

constexpr int kChurnRounds = 3;
constexpr double kChurnFraction = 0.01;
constexpr double kMaxWarmFraction = 0.10;
constexpr uint64_t kMaxScansPerRound = 0;

const std::vector<const char*> kAlgorithms = {
    "pagerank",     "connected_components", "topk_ranking",
    "neighborhood", "semiclustering",       "rwr_proximity"};

// Core-periphery graph: 400 hubs fanning out 100 edges each, 19600
// periphery vertices with 4 periphery-to-periphery edges each. The
// periphery holds plenty of edges between vertices the sampling walk
// never visits — the supply the avoid-masked churn deletes from.
Graph MakeGraph() {
  constexpr VertexId kVertices = 20000;
  constexpr VertexId kHubs = 400;
  Rng rng(211);
  std::vector<Edge> edges;
  edges.reserve(kHubs * 100 + (kVertices - kHubs) * 4);
  for (VertexId h = 0; h < kHubs; ++h) {
    for (int i = 0; i < 100; ++i) {
      edges.push_back({h, static_cast<VertexId>(rng.Uniform(kVertices)), 1.0f});
    }
  }
  for (VertexId v = kHubs; v < kVertices; ++v) {
    for (int i = 0; i < 4; ++i) {
      edges.push_back(
          {v, static_cast<VertexId>(kHubs + rng.Uniform(kVertices - kHubs)),
           1.0f});
    }
  }
  auto graph = Graph::FromEdges(kVertices, std::move(edges));
  if (!graph.ok()) {
    std::fprintf(stderr, "graph construction failed: %s\n",
                 graph.status().ToString().c_str());
    std::exit(1);
  }
  return EvolvingGraph::Canonicalize(std::move(graph).MoveValue());
}

PredictorOptions BasePredictorOptions() {
  PredictorOptions options;
  options.sampler.kind = SamplerKind::kRandomJump;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 5;
  options.sampler.walk_segment_steps = 512;
  options.engine.num_workers = 4;
  options.engine.num_threads = 0;
  return options;
}

std::vector<PredictionRequest> MakeRequests(const Graph& graph) {
  std::vector<PredictionRequest> requests;
  for (const char* algorithm : kAlgorithms) {
    PredictionRequest request;
    request.algorithm = algorithm;
    request.graph = &graph;
    request.dataset = "churn_ds";
    if (std::string(algorithm) == "pagerank") {
      // Tight tolerance: a long pagerank convergence keeps the cold
      // profile run the dominant cost (the warm path serves it from the
      // content-keyed profile cache).
      request.overrides = {
          {"tau", 1e-6 / static_cast<double>(graph.num_vertices())}};
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Applies 1% churn to `evolving` (avoid-masked when `avoid` nonempty)
// and returns false on any error.
bool ApplyChurn(EvolvingGraph& evolving, std::span<const uint8_t> avoid,
                uint64_t seed) {
  auto current = evolving.Current();
  if (!current.ok()) return false;
  ChurnOptions churn;
  churn.fraction = kChurnFraction;
  churn.seed = seed;
  churn.avoid = avoid;
  auto batch = GenerateChurn(**current, churn);
  if (!batch.ok() || batch->empty()) return false;
  return evolving.Apply(*batch).ok();
}

struct ThreadResult {
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  double ratio = 1.0;
  bool identical = true;
  uint64_t incremental_updates = 0;
  uint64_t segments_reused = 0;
  /// Most full-graph fingerprint scans any churn round's batch ran.
  uint64_t max_scans_per_round = 0;
  bool ok = false;
};

ThreadResult RunForThreads(int num_threads, const Graph& base,
                           const std::vector<uint8_t>& avoid) {
  ThreadResult result;

  PredictionServiceOptions options;
  options.predictor = BasePredictorOptions();
  options.num_threads = num_threads;
  PredictionService service(options);
  const std::vector<PredictionRequest> base_requests = MakeRequests(base);

  // ---- cold predicts: best of 3, caches cleared in between
  result.cold_seconds = 1e18;
  for (int run = 0; run < 3; ++run) {
    service.ClearCaches();
    const auto start = std::chrono::steady_clock::now();
    const auto reports = service.PredictBatch(base_requests);
    const double elapsed = SecondsSince(start);
    for (const auto& r : reports) {
      if (!r.ok()) {
        std::fprintf(stderr, "cold predict failed: %s\n",
                     r.status().ToString().c_str());
        return result;
      }
    }
    result.cold_seconds = std::min(result.cold_seconds, elapsed);
  }

  // ---- churn rounds: periphery churn, warm re-predict, best of rounds
  EvolvingGraph evolving(base);
  result.warm_seconds = 1e18;
  std::vector<Result<PredictionReport>> last_reports;
  Graph last_version;
  for (int round = 1; round <= kChurnRounds; ++round) {
    if (!ApplyChurn(evolving, avoid, 1000 + round)) {
      std::fprintf(stderr, "churn round %d failed\n", round);
      return result;
    }
    auto current = evolving.Current();
    if (!current.ok()) return result;
    last_version = **current;
    const std::vector<PredictionRequest> requests = MakeRequests(last_version);
    const uint64_t scans = Graph::FingerprintComputationsForTest();
    const auto start = std::chrono::steady_clock::now();
    last_reports = service.PredictBatch(requests);
    const double elapsed = SecondsSince(start);
    result.max_scans_per_round =
        std::max(result.max_scans_per_round,
                 Graph::FingerprintComputationsForTest() - scans);
    for (const auto& r : last_reports) {
      if (!r.ok()) {
        std::fprintf(stderr, "warm re-predict failed: %s\n",
                     r.status().ToString().c_str());
        return result;
      }
    }
    result.warm_seconds = std::min(result.warm_seconds, elapsed);
  }
  result.ratio = result.warm_seconds / result.cold_seconds;

  const ServiceCacheStats stats = service.cache_stats();
  result.incremental_updates = stats.incremental_sample_updates;
  result.segments_reused = stats.incremental_segments_reused;

  // ---- bit-identity: warm reports == plain Predictor on the same graph
  Predictor predictor(BasePredictorOptions());
  const auto check_identity = [&](const Graph& graph,
                                  const std::vector<Result<PredictionReport>>&
                                      served) {
    const std::vector<PredictionRequest> requests = MakeRequests(graph);
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto direct = predictor.PredictRuntime(
          requests[i].algorithm, graph, requests[i].dataset,
          requests[i].overrides);
      if (DeterministicContent(served[i]) != DeterministicContent(direct)) {
        result.identical = false;
        std::printf("  identity mismatch (threads=%d, %s)\n", num_threads,
                    requests[i].algorithm.c_str());
      }
    }
  };
  check_identity(last_version, last_reports);

  // ---- unrestricted churn: dirties walked vertices, forcing re-walks —
  // the incremental path must still be byte-exact.
  if (!ApplyChurn(evolving, {}, 4242)) {
    std::fprintf(stderr, "unrestricted churn failed\n");
    return result;
  }
  auto current = evolving.Current();
  if (!current.ok()) return result;
  const Graph unrestricted = **current;
  const auto unrestricted_reports =
      service.PredictBatch(MakeRequests(unrestricted));
  for (const auto& r : unrestricted_reports) {
    if (!r.ok()) {
      std::fprintf(stderr, "unrestricted re-predict failed: %s\n",
                   r.status().ToString().c_str());
      return result;
    }
  }
  check_identity(unrestricted, unrestricted_reports);

  result.ok = true;
  return result;
}

}  // namespace

int main() {
  const Graph base = MakeGraph();

  // The avoid mask: every vertex the recorded base walk touched. Churn
  // confined to the complement leaves the sample bit-identical, which is
  // what makes the <= 10% warm path possible.
  SampleWalkRecord record;
  auto sample =
      SampleGraphRecorded(base, BasePredictorOptions().sampler, &record);
  if (!sample.ok()) {
    std::fprintf(stderr, "recorded sample failed: %s\n",
                 sample.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t> avoid = record.touched;

  benchutil::BenchJson json("churn_gate");
  json.Add("graph_vertices", base.num_vertices());
  json.Add("graph_edges", base.num_edges());
  json.Add("churn_fraction", kChurnFraction);
  json.Add("churn_rounds", kChurnRounds);
  json.Add("max_warm_fraction", kMaxWarmFraction);

  bool all_ok = true;
  for (const int threads : {0, 1, 2, 8}) {
    const ThreadResult r = RunForThreads(threads, base, avoid);
    const bool ratio_ok = r.ratio <= kMaxWarmFraction;
    const bool incremental_ran = r.incremental_updates > 0;
    const bool scans_ok = r.max_scans_per_round <= kMaxScansPerRound;
    const bool pass =
        r.ok && ratio_ok && r.identical && incremental_ran && scans_ok;
    all_ok = all_ok && pass;
    std::printf(
        "threads=%d: cold %.1f ms, warm re-predict %.2f ms (%.1f%% of "
        "cold), %llu incremental updates, %llu segments reused, "
        "max %llu fingerprint scans/round (<=%llu: %s), identity %s [%s]\n",
        threads, 1e3 * r.cold_seconds, 1e3 * r.warm_seconds, 100.0 * r.ratio,
        static_cast<unsigned long long>(r.incremental_updates),
        static_cast<unsigned long long>(r.segments_reused),
        static_cast<unsigned long long>(r.max_scans_per_round),
        static_cast<unsigned long long>(kMaxScansPerRound),
        scans_ok ? "OK" : "FAIL", r.identical ? "OK" : "MISMATCH",
        pass ? "OK" : "FAIL");
    const std::string prefix = "threads_" + std::to_string(threads) + "_";
    json.Add(prefix + "cold_seconds", r.cold_seconds);
    json.Add(prefix + "warm_seconds", r.warm_seconds);
    json.Add(prefix + "warm_fraction", r.ratio);
    json.Add(prefix + "incremental_updates", r.incremental_updates);
    json.Add(prefix + "segments_reused", r.segments_reused);
    json.Add(prefix + "fingerprint_scans_per_round_max",
             r.max_scans_per_round);
    json.Add(prefix + "identity_ok", r.identical);
    json.Add(prefix + "ok", pass);
  }

  json.Add("gate_ok", all_ok);
  json.Write();
  std::printf("churn_gate: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
