// Cold-path end-to-end benchmark and regression gate.
//
// Every uncached PredictionService request pays the cold path: draw the
// BRJ sample, extract the induced subgraph, characterize the graphs
// (§3.2.1 / Table 3 overhead). This binary runs that path twice on the
// largest generated dataset — once through a frozen copy of the
// pre-overhaul (seed) implementations, once through the library — and
//
//   1. verifies the two produce bit-identical output (sample order,
//      subgraph fingerprint, statistics), and
//   2. gates the speedup: the overhauled path must be >= 3x faster
//      end-to-end (exit code 1 otherwise). Wired into the bench-smoke
//      ctest label.
//
// PREDICT_BENCH_SCALE in (0, 1] shrinks the dataset for quick runs; the
// gate is enforced at any scale.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <queue>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_json.h"
#include "bsp/thread_pool.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "graph/transforms.h"
#include "panel.h"
#include "sampling/sampler.h"
#include "tests/coldpath_reference.h"

namespace {

using namespace predict;

// The frozen pre-overhaul implementations live in
// tests/coldpath_reference.h, shared with the equivalence suite so the
// gate and the tests can never pin against diverging baselines.
namespace baseline = ::predict::coldpath_reference;

// =====================================================================

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PathResult {
  std::vector<VertexId> vertices;
  uint64_t subgraph_fingerprint = 0;
  double full_diameter = 0.0;
  double sample_diameter = 0.0;
  double full_clustering = 0.0;
  double sample_clustering = 0.0;
  double sample_seconds = 0.0;
  double extract_seconds = 0.0;
  double stats_seconds = 0.0;

  double total_seconds() const {
    return sample_seconds + extract_seconds + stats_seconds;
  }
};

constexpr double kQuantile = 0.9;
constexpr uint32_t kDiameterSources = 24;
constexpr uint32_t kClusteringSamples = 600;
constexpr uint64_t kStatsSeed = 42;

PathResult RunBaseline(const Graph& graph, const SamplerOptions& options) {
  PathResult r;
  auto t0 = Clock::now();
  r.vertices = baseline::SampleVertices(graph, options);
  r.sample_seconds = SecondsSince(t0);

  t0 = Clock::now();
  auto sub = baseline::InducedSubgraph(graph, r.vertices);
  r.extract_seconds = SecondsSince(t0);
  if (!sub.ok()) {
    std::fprintf(stderr, "baseline extraction failed: %s\n",
                 sub.status().ToString().c_str());
    std::exit(1);
  }
  r.subgraph_fingerprint = sub->graph.Fingerprint();

  t0 = Clock::now();
  r.full_diameter =
      baseline::EffectiveDiameter(graph, kQuantile, kDiameterSources, kStatsSeed);
  r.sample_diameter =
      baseline::EffectiveDiameter(sub->graph, kQuantile, kDiameterSources, kStatsSeed);
  r.full_clustering =
      baseline::AverageClusteringCoefficient(graph, kClusteringSamples, kStatsSeed);
  r.sample_clustering =
      baseline::AverageClusteringCoefficient(sub->graph, kClusteringSamples, kStatsSeed);
  r.stats_seconds = SecondsSince(t0);
  return r;
}

PathResult RunOverhauled(const Graph& graph, const SamplerOptions& options,
                         bsp::ThreadPool* pool) {
  PathResult r;
  auto t0 = Clock::now();
  auto vertices = SampleVertices(graph, options);
  if (!vertices.ok()) {
    std::fprintf(stderr, "sampling failed: %s\n",
                 vertices.status().ToString().c_str());
    std::exit(1);
  }
  r.sample_seconds = SecondsSince(t0);
  r.vertices = std::move(vertices).MoveValue();

  t0 = Clock::now();
  auto sub = InducedSubgraph(graph, r.vertices);
  if (!sub.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n",
                 sub.status().ToString().c_str());
    std::exit(1);
  }
  r.extract_seconds = SecondsSince(t0);
  r.subgraph_fingerprint = sub->graph.Fingerprint();

  t0 = Clock::now();
  r.full_diameter =
      EffectiveDiameter(graph, kQuantile, kDiameterSources, kStatsSeed, pool);
  r.sample_diameter = EffectiveDiameter(sub->graph, kQuantile, kDiameterSources,
                                        kStatsSeed, pool);
  r.full_clustering = AverageClusteringCoefficient(graph, kClusteringSamples,
                                                   kStatsSeed, pool);
  r.sample_clustering = AverageClusteringCoefficient(
      sub->graph, kClusteringSamples, kStatsSeed, pool);
  r.stats_seconds = SecondsSince(t0);
  return r;
}

bool Identical(const PathResult& a, const PathResult& b) {
  bool ok = true;
  if (a.vertices != b.vertices) {
    std::fprintf(stderr, "MISMATCH: sampled vertex sequences differ\n");
    ok = false;
  }
  if (a.subgraph_fingerprint != b.subgraph_fingerprint) {
    std::fprintf(stderr, "MISMATCH: subgraph fingerprints %016llx vs %016llx\n",
                 static_cast<unsigned long long>(a.subgraph_fingerprint),
                 static_cast<unsigned long long>(b.subgraph_fingerprint));
    ok = false;
  }
  const auto check = [&ok](const char* what, double x, double y) {
    if (x != y) {
      std::fprintf(stderr, "MISMATCH: %s %.17g vs %.17g\n", what, x, y);
      ok = false;
    }
  };
  check("full diameter", a.full_diameter, b.full_diameter);
  check("sample diameter", a.sample_diameter, b.sample_diameter);
  check("full clustering", a.full_clustering, b.full_clustering);
  check("sample clustering", a.sample_clustering, b.sample_clustering);
  return ok;
}

}  // namespace

int main() {
  const auto num_vertices = static_cast<VertexId>(
      std::max(2000.0, 120000.0 * panel::BenchScale()));

  std::printf("== cold_path: sample -> extract -> characterize ==\n");
  std::printf("dataset: preferential attachment, |V|=%u, out_degree=8\n",
              num_vertices);

  const Graph graph =
      GeneratePreferentialAttachment({num_vertices, 8, 0.3, 123}).MoveValue();
  std::printf("generated %s\n", graph.ToString().c_str());

  SamplerOptions options;
  options.kind = SamplerKind::kBiasedRandomJump;
  options.sampling_ratio = 0.10;  // the paper's 10% BRJ default
  options.seed = 42;

  const unsigned hw = std::thread::hardware_concurrency();
  const uint32_t pool_threads = hw > 1 ? hw : 0;
  bsp::ThreadPool pool(pool_threads);
  std::printf("stats thread pool: %u worker threads\n", pool_threads);

  // Warm once (page in the graph, prime allocators), then measure
  // interleaved pairs and keep each path's fastest run: a scheduler
  // hiccup during one run cannot flip the gate on a shared/noisy box.
  (void)RunOverhauled(graph, options, &pool);

  PathResult before = RunBaseline(graph, options);
  PathResult after = RunOverhauled(graph, options, &pool);
  for (int rep = 1; rep < 2; ++rep) {
    const PathResult b = RunBaseline(graph, options);
    const PathResult a = RunOverhauled(graph, options, &pool);
    if (b.total_seconds() < before.total_seconds()) before = b;
    if (a.total_seconds() < after.total_seconds()) after = a;
  }

  benchutil::BenchJson json("cold_path_gate");
  bool ok = true;
  const bool identical = Identical(before, after);
  json.Add("bit_identical", identical);
  if (!identical) {
    std::fprintf(stderr, "FAIL: overhauled cold path is not bit-identical\n");
    ok = false;
  }

  std::printf("\n%-12s %12s %12s %9s\n", "stage", "pre-PR (s)", "now (s)",
              "speedup");
  const auto row = [](const char* stage, double pre, double now) {
    std::printf("%-12s %12.3f %12.3f %8.1fx\n", stage, pre, now,
                now > 0.0 ? pre / now : 0.0);
  };
  row("sample", before.sample_seconds, after.sample_seconds);
  row("extract", before.extract_seconds, after.extract_seconds);
  row("statistics", before.stats_seconds, after.stats_seconds);
  row("total", before.total_seconds(), after.total_seconds());
  std::printf("\nsample: |V_s|=%zu, fp=%016llx, diam %.2f->%.2f, cc %.4f->%.4f\n",
              after.vertices.size(),
              static_cast<unsigned long long>(after.subgraph_fingerprint),
              after.full_diameter, after.sample_diameter, after.full_clustering,
              after.sample_clustering);

  const double speedup = before.total_seconds() / after.total_seconds();
  constexpr double kRequiredSpeedup = 3.0;
  json.Add("baseline_seconds", before.total_seconds());
  json.Add("overhauled_seconds", after.total_seconds());
  json.Add("sample_seconds", after.sample_seconds);
  json.Add("extract_seconds", after.extract_seconds);
  json.Add("stats_seconds", after.stats_seconds);
  json.Add("speedup", speedup);
  json.Add("required_speedup", kRequiredSpeedup);
  if (speedup < kRequiredSpeedup) {
    std::fprintf(stderr,
                 "FAIL: end-to-end speedup %.2fx below the %.1fx gate\n",
                 speedup, kRequiredSpeedup);
    ok = false;
  } else {
    std::printf("PASS: end-to-end speedup %.2fx (gate: >= %.1fx)\n", speedup,
                kRequiredSpeedup);
  }
  json.Add("pass", ok);
  json.Write();
  return ok ? 0 : 1;
}
