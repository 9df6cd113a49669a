// Scale-substrate gate (ctest: rmat_scale_gate, labels bench-smoke;scale).
//
// Guards the tentpole bargain of the adaptive/compressed substrate work:
// the engine must carry a 10M-edge seeded RMAT graph end to end, and the
// two new execution machineries (dense flat-array supersteps, varint/
// delta-compressed CSR) must each pay for themselves without perturbing
// a single bit of simulated output. Four sections:
//
//   1. Structure — "rmat10m" regenerates deterministically with >= 10M
//      unique edges, its compressed edge storage is <= 0.6x the plain
//      flat arrays, and decompressing restores the identical graph
//      (fingerprint equality).
//   2. Memory budget — a full-graph PageRank run fits the declared
//      simulated budget ONLY compressed: the same run on the plain
//      representation must exhaust it (checked by actually running it),
//      and the accounting arithmetic must agree. The compressed run's
//      per-superstep message throughput is gated against a conservative
//      floor so the decode loops cannot silently rot.
//   3. Bit-identity — sparse, dense and adaptive paths produce identical
//      results/counters/simulated time for PageRank, connected
//      components and semi-clustering across host thread counts
//      {0, 1, 2, 8} on a small RMAT graph (fingerprint matrix, folded
//      with the determinism goldens' tests/run_fingerprint.h).
//   4. Dense payoff — on a fully-active, low-degree workload (the regime
//      the dense path exists for) the barrier work the dense path skips
//      is gated as exact counts (SuperstepStats::barrier_work): every
//      pinned-dense barrier sorts no entry, sweeps no owned slot and
//      rebuilds no worklist, every pinned-sparse barrier sorts or sweeps
//      at least the |messaged| entries it must order, the adaptive
//      policy picks dense on every superstep, and no barrier of these
//      inline runs drains a staged message (PageRank folds each message
//      into its inbox as it is sent). The per-superstep host-time
//      ratio (median across superstep indices of the min across
//      repetitions, from SuperstepStats::host_seconds) is reported, not
//      gated: it measures the host as much as the engine.
//
// PREDICT_SCALE_XL=1 adds an opt-in 100M-edge leg (structure + ratio
// only; it needs several GB of host RAM).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/semiclustering.h"
#include "bench_json.h"
#include "bsp/engine.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "tests/run_fingerprint.h"

namespace {

using namespace predict;
using predict::testing::FingerprintDoubles;
using predict::testing::FingerprintIds;
using predict::testing::FingerprintRunStats;

// Declared budget for section 2: the compressed run must fit under it,
// the plain run must not. Calibrated against the simulated memory model
// (graph footprint + vertex state + message payload + envelopes): the
// compressed rmat10m PageRank peaks well below, the plain one above.
constexpr uint64_t kMemoryBudgetBytes = 370ull * 1024 * 1024;

// Compressed edge storage over plain flat arrays, <= this.
constexpr double kMaxCompressedRatio = 0.6;

// Messages per wall-clock second the compressed full-graph run must
// sustain. Deliberately far below any healthy machine (tens of millions
// per second); it exists to catch a decode loop that went accidentally
// quadratic, not to benchmark CI hardware.
constexpr double kMinMessagesPerSecond = 1.0e6;

// Repetitions and supersteps of section 4's timed runs. The reported
// statistic is the median across superstep indices of the min across
// repetitions of the pinned-sparse over pinned-dense host time.
constexpr int kPayoffReps = 12;
constexpr int kPayoffSteps = 8;

// Sanitizer builds (ctest presets scale-asan etc.) run every check for
// memory-bug coverage with fewer timed repetitions: shadow-memory
// instrumentation taxes the two paths differently, so the reported
// ratio stops measuring the engine there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr uint32_t kWorkers = 29;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

// --------------------------------------------------------- timed runner

struct TimedRun {
  double seconds = 0.0;
  bsp::RunStats stats;
};

Result<TimedRun> TimePageRank(const Graph& graph,
                              const bsp::EngineOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  PREDICT_ASSIGN_OR_RETURN(PageRankResult pr,
                           RunPageRank(graph, {{"tau", 0.0}}, options));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return TimedRun{std::chrono::duration<double>(elapsed).count(),
                  std::move(pr.stats)};
}

uint64_t TotalMessages(const bsp::RunStats& stats) {
  uint64_t total = 0;
  for (const auto& step : stats.supersteps) {
    total += step.Totals().total_messages();
  }
  return total;
}

}  // namespace

int main() {
  benchutil::BenchJson json("rmat_scale_gate");

  // ------------------------------------------------- 1. rmat10m structure
  std::printf("building rmat10m (seeded RMAT, compressed CSR)...\n");
  auto built = MakeDataset("rmat10m");
  if (!built.ok()) {
    std::fprintf(stderr, "MakeDataset(rmat10m) failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Graph compressed = std::move(built).MoveValue();
  const Graph plain = Graph::WithPlainEdges(compressed);
  const double ratio =
      static_cast<double>(compressed.EdgeStorageBytes()) /
      static_cast<double>(plain.EdgeStorageBytes());
  std::printf("  %s\n", compressed.ToString().c_str());
  std::printf("  unique edges      %llu\n",
              static_cast<unsigned long long>(compressed.num_edges()));
  std::printf("  edge storage      %.1f MB compressed / %.1f MB plain "
              "(%.3fx)\n",
              compressed.EdgeStorageBytes() / 1048576.0,
              plain.EdgeStorageBytes() / 1048576.0, ratio);
  Check(compressed.edges_compressed(), "rmat10m must ship compressed");
  Check(compressed.num_edges() >= 10000000ull,
        "rmat10m must have >= 10M unique edges");
  Check(ratio <= kMaxCompressedRatio,
        "compressed edge storage must be <= 0.6x plain");
  Check(compressed.Fingerprint() == plain.Fingerprint(),
        "decompression must restore the identical graph");
  {
    // Determinism witness: regenerating from the registry reproduces the
    // same bits (full regeneration; the gate runs this only once).
    auto again = MakeDataset("rmat10m");
    Check(again.ok() && again->Fingerprint() == compressed.Fingerprint(),
          "rmat10m must regenerate bit-identically from its seed");
  }

  // ------------------------------------------------- 2. memory budget run
  bsp::EngineOptions budget_options;
  budget_options.num_workers = kWorkers;
  budget_options.num_threads = 8;
  budget_options.max_supersteps = 3;
  budget_options.memory_budget_bytes = kMemoryBudgetBytes;

  auto run = TimePageRank(compressed, budget_options);
  if (!run.ok()) {
    std::printf("FAIL: compressed full-graph PageRank under %.0f MB budget: "
                "%s\n",
                kMemoryBudgetBytes / 1048576.0,
                run.status().ToString().c_str());
    ++g_failures;
  } else {
    const uint64_t messages = TotalMessages(run->stats);
    const double throughput = static_cast<double>(messages) / run->seconds;
    std::printf("  compressed run    peak %.1f MB (budget %.0f MB), "
                "%llu msgs in %.2fs wall = %.1fM msgs/s\n",
                run->stats.peak_memory_bytes / 1048576.0,
                kMemoryBudgetBytes / 1048576.0,
                static_cast<unsigned long long>(messages), run->seconds,
                throughput / 1e6);
    Check(run->stats.peak_memory_bytes <= kMemoryBudgetBytes,
          "compressed peak must fit the declared budget");
    // The budget must genuinely require compression: adding back the
    // bytes compression saved overflows it.
    const uint64_t saved =
        plain.MemoryFootprintBytes() - compressed.MemoryFootprintBytes();
    Check(run->stats.peak_memory_bytes + saved > kMemoryBudgetBytes,
          "budget is too loose: the plain representation would also fit");
    Check(throughput >= kMinMessagesPerSecond,
          "per-superstep message throughput below the floor");
    json.Add("peak_mb", run->stats.peak_memory_bytes / 1048576.0);
    json.Add("msgs_per_sec", throughput);
  }
  {
    // And the plain run must actually exhaust the same budget.
    auto plain_run = TimePageRank(plain, budget_options);
    Check(!plain_run.ok() &&
              plain_run.status().IsResourceExhausted(),
          "plain representation must exhaust the declared budget");
  }

  // ------------------------------------------------- 3. path bit-identity
  std::printf("path bit-identity matrix (PR/CC/SC x threads x paths)...\n");
  const Graph small =
      GenerateRmat({14, 500000, 0.57, 0.19, 0.19, 91}).MoveValue();
  const bsp::SuperstepPath paths[] = {bsp::SuperstepPath::kSparse,
                                      bsp::SuperstepPath::kAdaptive,
                                      bsp::SuperstepPath::kDense};
  bool identity_ok = true;
  for (const int threads : {0, 1, 2, 8}) {
    uint64_t pr_fp = 0, cc_fp = 0, sc_fp = 0;
    bool have_baseline = false;
    for (const bsp::SuperstepPath path : paths) {
      bsp::EngineOptions options;
      options.num_workers = kWorkers;
      options.num_threads = threads;
      options.superstep_path = path;

      auto pr = RunPageRank(small, {{"tau", 1e-6}}, options);
      auto cc = RunConnectedComponents(small, options);
      auto sc = RunSemiClustering(small, {}, options);
      if (!pr.ok() || !cc.ok() || !sc.ok()) {
        std::printf("FAIL: matrix run failed (threads=%d, path=%s)\n",
                    threads, bsp::SuperstepPathName(path));
        identity_ok = false;
        continue;
      }
      const uint64_t pr_now =
          FingerprintDoubles(pr->ranks, FingerprintRunStats(pr->stats));
      const uint64_t cc_now =
          FingerprintIds(cc->labels, FingerprintRunStats(cc->stats));
      const uint64_t sc_now = FingerprintRunStats(sc->stats);
      if (!have_baseline) {
        pr_fp = pr_now;
        cc_fp = cc_now;
        sc_fp = sc_now;
        have_baseline = true;
        continue;
      }
      if (pr_now != pr_fp || cc_now != cc_fp || sc_now != sc_fp) {
        std::printf("FAIL: %s path diverges from sparse at threads=%d "
                    "(pr %d cc %d sc %d)\n",
                    bsp::SuperstepPathName(path), threads, pr_now != pr_fp,
                    cc_now != cc_fp, sc_now != sc_fp);
        identity_ok = false;
      }
    }
  }
  if (identity_ok) {
    std::printf("  all paths bit-identical across thread counts\n");
  } else {
    ++g_failures;
  }

  // ------------------------------------------------- 4. dense path payoff
  // Fully active, low average degree: per-vertex bookkeeping dominates
  // per-message work, which is exactly where the sparse path's worklist
  // maintenance (survivor lists, set_union rebuild, messaged-vertex
  // ordering) is pure overhead next to flat per-local-slot addressing.
  // The gate counts that bookkeeping per superstep barrier; counts are
  // exact on any host, so a dense build that starts ordering its inboxes
  // again, or an adaptive policy that stops picking dense, fails here
  // whatever the machine. The host-time ratio (min across interleaved
  // repetitions per superstep index, then the median ratio across
  // indices) is reported. 8 workers keep the shared
  // per-vertex arrays cache-line-efficient so the ratio isolates path
  // overhead rather than the strided-layout cost both paths pay equally
  // at 29.
  std::printf("dense-vs-sparse payoff (fully-active low-degree PageRank)...\n");
  const Graph low_degree =
      GenerateRmat({20, 300000, 0.57, 0.19, 0.19, 77}).MoveValue();
  // Every PageRank vertex with an out-edge messages along it every
  // superstep, so each barrier delivers to exactly the vertices with an
  // in-edge.
  uint64_t messaged = 0;
  for (VertexId v = 0; v < low_degree.num_vertices(); ++v) {
    messaged += low_degree.in_degree(v) > 0;
  }
  bsp::EngineOptions payoff;
  payoff.num_workers = 8;
  payoff.num_threads = 0;
  payoff.max_supersteps = kPayoffSteps;
  // [path sparse=0,dense=1][superstep] -> min host seconds across reps.
  std::vector<std::vector<double>> best(
      2, std::vector<double>(kPayoffSteps, 1e9));
  // [path sparse=0,dense=1,adaptive=2] -> the first rep's stats.
  std::vector<bsp::RunStats> counted(3);
  bool payoff_ok = true;
  const int payoff_reps = kSanitized ? 2 : kPayoffReps;
  for (int rep = 0; rep < payoff_reps && payoff_ok; ++rep) {
    for (int p = 0; p < 3; ++p) {
      if (p == 2 && rep > 0) break;  // adaptive is counted, not timed
      payoff.superstep_path = p == 0   ? bsp::SuperstepPath::kSparse
                              : p == 1 ? bsp::SuperstepPath::kDense
                                       : bsp::SuperstepPath::kAdaptive;
      auto run_result = TimePageRank(low_degree, payoff);
      if (!run_result.ok() ||
          run_result->stats.num_supersteps() != kPayoffSteps) {
        std::printf("FAIL: payoff run failed: %s\n",
                    run_result.ok() ? "wrong superstep count"
                                    : run_result.status().ToString().c_str());
        ++g_failures;
        payoff_ok = false;
        break;
      }
      if (rep == 0) counted[p] = run_result->stats;
      if (p == 2) continue;
      for (int s = 0; s < kPayoffSteps; ++s) {
        best[p][s] =
            std::min(best[p][s], run_result->stats.supersteps[s].host_seconds);
      }
    }
  }
  double speedup = 0.0;
  if (payoff_ok) {
    // Every barrier of the run delivers PageRank's messages, so every
    // superstep's counts are gated.
    uint64_t dense_ordered = 0, sparse_short = 0, adaptive_sparse = 0;
    uint64_t sparse_min_ordered = UINT64_MAX;
    uint64_t staged = 0;
    for (int s = 0; s < kPayoffSteps; ++s) {
      const bsp::SuperstepStats& sparse = counted[0].supersteps[s];
      const bsp::SuperstepStats& dense = counted[1].supersteps[s];
      const bsp::SuperstepStats& adaptive = counted[2].supersteps[s];
      staged += sparse.barrier_work.messages_staged +
                dense.barrier_work.messages_staged +
                adaptive.barrier_work.messages_staged;
      dense_ordered += dense.barrier_work.entries_sorted +
                       dense.barrier_work.slots_swept +
                       dense.barrier_work.worklist_entries;
      const uint64_t sparse_ordered = sparse.barrier_work.entries_sorted +
                                      sparse.barrier_work.slots_swept;
      sparse_min_ordered = std::min(sparse_min_ordered, sparse_ordered);
      sparse_short += sparse_ordered < messaged;
      adaptive_sparse += !adaptive.dense_path;
    }
    std::printf("  barrier work per superstep: |messaged| %llu, sparse "
                "sorts+sweeps >= %llu, dense sorts+sweeps+rebuilds %llu in "
                "total, adaptive sparse supersteps %llu/%d\n",
                static_cast<unsigned long long>(messaged),
                static_cast<unsigned long long>(sparse_min_ordered),
                static_cast<unsigned long long>(dense_ordered),
                static_cast<unsigned long long>(adaptive_sparse),
                kPayoffSteps);
    Check(dense_ordered == 0,
          "dense barriers must sort no entry, sweep no owned slot and "
          "rebuild no worklist on the fully-active workload");
    Check(sparse_short == 0,
          "sparse barriers must sort or sweep at least |messaged| entries");
    Check(adaptive_sparse == 0,
          "the adaptive policy must pick dense on the fully-active workload");
    std::printf("  messages staged through an outbox (all paths): %llu\n",
                static_cast<unsigned long long>(staged));
    Check(staged == 0,
          "an inline PageRank run folds every message as it is sent, so no "
          "barrier may drain a staged message on any path");
    json.Add("messaged_per_superstep", static_cast<size_t>(messaged));
    json.Add("sparse_min_sorted_or_swept",
             static_cast<size_t>(sparse_min_ordered));
    json.Add("dense_sorted_swept_rebuilt", static_cast<size_t>(dense_ordered));
    json.Add("adaptive_sparse_supersteps", static_cast<size_t>(adaptive_sparse));
    json.Add("inline_messages_staged", static_cast<size_t>(staged));

    // Superstep 0 delivers no messages (nothing was sent yet), so the
    // paths are compared from superstep 1 on.
    std::vector<double> ratios, sparse_ms, dense_ms;
    for (int s = 1; s < kPayoffSteps; ++s) {
      ratios.push_back(best[0][s] / best[1][s]);
      sparse_ms.push_back(best[0][s] * 1e3);
      dense_ms.push_back(best[1][s] * 1e3);
    }
    std::sort(ratios.begin(), ratios.end());
    std::sort(sparse_ms.begin(), sparse_ms.end());
    std::sort(dense_ms.begin(), dense_ms.end());
    speedup = ratios[ratios.size() / 2];
    std::printf("  per superstep (median of min-over-%d-reps): "
                "sparse %.2f ms, dense %.2f ms  (%.2fx, reported)\n",
                payoff_reps, sparse_ms[sparse_ms.size() / 2],
                dense_ms[dense_ms.size() / 2], speedup);
    json.Add("sparse_superstep_ms", sparse_ms[sparse_ms.size() / 2]);
    json.Add("dense_superstep_ms", dense_ms[dense_ms.size() / 2]);
  }

  // ------------------------------------------------- 5. opt-in XL leg
  const char* xl = std::getenv("PREDICT_SCALE_XL");
  if (xl != nullptr && std::strcmp(xl, "1") == 0) {
    std::printf("building rmat100m (PREDICT_SCALE_XL=1)...\n");
    auto big = MakeDataset("rmat100m");
    if (!big.ok()) {
      std::printf("FAIL: MakeDataset(rmat100m): %s\n",
                  big.status().ToString().c_str());
      ++g_failures;
    } else {
      const Graph xl_plain = Graph::WithPlainEdges(*big);
      const double xl_ratio =
          static_cast<double>(big->EdgeStorageBytes()) /
          static_cast<double>(xl_plain.EdgeStorageBytes());
      std::printf("  %s, edge storage %.3fx plain\n",
                  big->ToString().c_str(), xl_ratio);
      Check(big->num_edges() >= 100000000ull,
            "rmat100m must have >= 100M unique edges");
      Check(xl_ratio <= kMaxCompressedRatio,
            "rmat100m compressed edge storage must be <= 0.6x plain");
      json.Add("xl_edges", static_cast<size_t>(big->num_edges()));
      json.Add("xl_ratio", xl_ratio);
    }
  } else {
    std::printf("skipping 100M-edge leg (set PREDICT_SCALE_XL=1 to run)\n");
  }

  const bool ok = g_failures == 0;
  if (ok) {
    std::printf("PASS\n");
  } else {
    std::printf("FAIL: %d check(s) failed\n", g_failures);
  }
  json.Add("edges", static_cast<size_t>(compressed.num_edges()));
  json.Add("compressed_ratio", ratio);
  json.Add("max_compressed_ratio", kMaxCompressedRatio);
  json.Add("dense_speedup", speedup);
  json.Add("budget_mb", kMemoryBudgetBytes / 1048576.0);
  json.Add("pass", ok);
  json.Write();
  return ok ? 0 : 1;
}
