// PredictionService: the one request path of the staged prediction
// pipeline, a thread-safe caching front end built for what-if traffic —
// schedulers asking "how long will each of these algorithms take on each
// of these datasets?" many times over. Predictor (core/predictor.h)
// answers each of its calls through a service built for that call, so an
// uncached report and a served one come from the same code.
//
// Two artifact caches amortize the expensive front half of the pipeline:
//
//   sample cache   (graph fingerprint, SamplerOptions) -> SampleArtifact
//   profile cache  (sample ContentKey(), algorithm, dataset, transformed
//                  config, engine key) -> ProfileArtifact
//
// Both are shared across concurrent Predict calls: the first request for
// a key computes the artifact while later requests for the same key wait
// on it (no duplicated sampling or sample runs, no thundering herd).
// PredictBatch and PredictScenarios fan requests out over a
// bsp::ThreadPool.
//
// Requests may target a cluster scenario (bsp/scenario.h) other than the
// service's configured deployment: the sample cache is scenario-agnostic
// (sampling is deployment-independent) and keeps its hits, while the
// profile cache keys on the scenario's canonical engine key, so a
// profile measured under one deployment is never served for another.
// Keying profiles on the sample's content rather than the graph version
// keeps them hitting across graph churn that leaves the sample unchanged.
//
// Evolving graphs: when predictor.sampler.walk_segment_steps > 0, the
// service keeps the walk record of the last graph it sampled, and a
// sample-cache miss for the EvolvingGraph version Apply built next from
// that graph (see GraphLineage) re-walks only the segments its changed
// rows touch — bit-identical to the from-scratch walk every other graph
// gets.
//
// Determinism contract: every stage is deterministic, so a report served
// from warm caches under any concurrency is bit-identical to a cold
// sequential Predictor::PredictRuntime — except sample_wall_seconds
// (host timing of whichever run produced the artifact), `accounting`
// (whichever attempts this host's interleaving ran) and
// stages_reused/stages_recomputed (which stages a cache served).
//
// Failure semantics (the robustness contract):
//   - A failed stage never populates a cache: the computing thread
//     erases the in-flight slot before publishing the error, so the next
//     request for the key re-attempts instead of replaying a cached
//     failure (no cache poisoning, no latched errors).
//   - Concurrent joiners of a failed computation receive that failure
//     (deterministic under an armed fault schedule), but do not latch it.
//   - With predictor.robustness.degraded_fallbacks set, a failed or
//     deadline-exceeded request walks the degradation ladder: last good
//     profile cached for the same profile key (survives ClearCaches —
//     "previous epoch" semantics), then a history-only fit, then the
//     explicit error. The report's `degradation` field says which rung
//     answered.

#ifndef PREDICT_SERVICE_PREDICTION_SERVICE_H_
#define PREDICT_SERVICE_PREDICTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bsp/scenario.h"
#include "bsp/thread_pool.h"
#include "common/result.h"
#include "core/predictor.h"
#include "pipeline/artifacts.h"

namespace predict {

/// One what-if query: predict `algorithm` on `*graph`.
struct PredictionRequest {
  std::string algorithm;
  /// The full graph. Not owned; must outlive the call. Requests may
  /// share one graph — the service reads it concurrently, never writes.
  const Graph* graph = nullptr;
  /// Labels profiles and excludes same-dataset history rows.
  std::string dataset;
  /// Overrides for the *actual* run's configuration.
  AlgorithmConfig overrides;
  /// Target deployment; unset = the service's configured engine. Only
  /// the engine configuration changes — sampler and cost-model options
  /// stay the service's (the caches remain valid across scenarios).
  /// History rows carry no deployment identity, so they join the fit
  /// only when the scenario's canonical engine key matches the
  /// service's configured engine; other scenarios fit on the sample run
  /// alone (the paper re-trains its cost model per cluster).
  std::optional<bsp::ClusterScenario> scenario;
};

struct PredictionServiceOptions {
  /// Pipeline configuration shared by every request this service answers
  /// (caches are only valid within one such configuration).
  PredictorOptions predictor;

  /// Host threads for PredictBatch fan-out: -1 = one per hardware
  /// thread, 0 = inline on the caller. Independent of
  /// predictor.engine.num_threads (the per-run simulation threads); for
  /// batch serving, prefer engine.num_threads = 0 and let the batch
  /// fan-out supply the parallelism.
  int num_threads = -1;
};

/// Cumulative cache accounting. A "hit" includes joining an in-flight
/// computation of the same key (shared work, not duplicated work).
struct ServiceCacheStats {
  uint64_t sample_hits = 0;
  uint64_t sample_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;
  /// Degraded-mode accounting: requests answered from the stale-profile
  /// rung and from the history-only rung.
  uint64_t stale_profile_hits = 0;
  uint64_t history_only_fallbacks = 0;
  /// Incremental-sampling accounting: sample-cache misses answered by
  /// splicing the previous walk record (vs sampling from scratch), and
  /// walk segments replayed without re-walking across those updates.
  uint64_t incremental_sample_updates = 0;
  uint64_t incremental_segments_reused = 0;
};

/// What ClearCaches dropped.
struct ServiceCacheEvictions {
  uint64_t sample_entries = 0;
  uint64_t profile_entries = 0;
  /// 1 if a retained incremental-sampling walk record was dropped.
  uint64_t incremental_states = 0;
};

/// \brief Concurrent, caching prediction server over one pipeline
/// configuration. All public methods are thread-safe.
class PredictionService {
 public:
  explicit PredictionService(PredictionServiceOptions options);

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Answers one request through the caches. Safe to call concurrently
  /// with any other method.
  Result<PredictionReport> Predict(const PredictionRequest& request);

  /// Answers a batch, fanning out across the service's thread pool.
  /// results[i] corresponds to requests[i]; outputs are bit-identical to
  /// issuing the requests sequentially (any thread count, any request
  /// order — see the determinism contract above).
  std::vector<Result<PredictionReport>> PredictBatch(
      const std::vector<PredictionRequest>& requests);

  /// Cross-deployment what-if: answers `request` under each scenario
  /// (ignoring request.scenario), fanning out across the pool. The
  /// sample is shared across scenarios via the sample cache; each
  /// scenario's sample run populates its own profile-cache slot.
  /// results[i] corresponds to scenarios[i] and is bit-identical to a
  /// sequential per-scenario loop.
  std::vector<Result<PredictionReport>> PredictScenarios(
      const PredictionRequest& request,
      const std::vector<bsp::ClusterScenario>& scenarios);

  ServiceCacheStats cache_stats() const;

  /// Drops every cached artifact and the incremental-sampling state
  /// (stats and last-good profiles are kept). Returns what was evicted.
  ServiceCacheEvictions ClearCaches();

  const PredictionServiceOptions& options() const { return options_; }

 private:
  // Predictor answers each call through a service built for that call.
  friend class Predictor;

  template <typename ValuePtr>
  struct Entry;
  template <typename ValuePtr>
  using Cache =
      std::unordered_map<std::string, std::shared_ptr<Entry<ValuePtr>>>;

  using SamplePtr = std::shared_ptr<const pipeline::SampleArtifact>;
  using ProfilePtr = std::shared_ptr<const pipeline::ProfileArtifact>;

  /// The one fan-out behind PredictBatch, PredictScenarios and
  /// Predictor::PredictAcrossScenarios: results[i] answers requests[i],
  /// whichever thread of `pool` computed it.
  std::vector<Result<PredictionReport>> FanOut(
      std::span<const PredictionRequest> requests, bsp::ThreadPool& pool);

  /// The one cache policy, shared by both caches: the first request for
  /// `key` runs `compute` while later ones join its result (`hit` says
  /// which, counted into `hits`/`misses`). A failed slot leaves the map
  /// before the failure is published, so the next request re-attempts.
  template <typename ValuePtr, typename Compute>
  Result<ValuePtr> GetOrCompute(Cache<ValuePtr>& cache, const std::string& key,
                                uint64_t& hits, uint64_t& misses, bool& hit,
                                Compute compute);

  /// Computes the sample artifact on a cache miss: incrementally from
  /// the retained walk record when possible, from scratch otherwise.
  Result<SamplePtr> ComputeSample(const Graph& graph,
                                  const pipeline::StageContext& ctx);

  PredictionServiceOptions options_;
  PredictionPipeline stages_;
  /// stages_ with the history store detached: assembles reports for
  /// scenarios that model a deployment other than the configured one
  /// (history rows belong to the configured deployment only).
  PredictionPipeline history_free_stages_;
  /// EngineOptionsKey of the service's configured deployment, the
  /// profile-cache scenario component for requests without a scenario.
  std::string default_engine_key_;

  /// Serializes PredictBatch callers (ThreadPool runs one batch at a
  /// time); single Predict calls do not take this.
  std::mutex batch_mutex_;
  bsp::ThreadPool pool_;

  mutable std::mutex mutex_;  // guards the maps below and stats_
  Cache<SamplePtr> sample_cache_;
  Cache<ProfilePtr> profile_cache_;
  /// Last successfully computed profile per profile key: the
  /// stale-profile degradation rung. Updated on every successful profile
  /// compute; intentionally NOT dropped by ClearCaches, so a service
  /// whose caches were cleared (a "restart") can still answer from the
  /// previous epoch's profiles when the fresh run fails.
  std::unordered_map<std::string, ProfilePtr> last_good_profiles_;
  /// The walk record of the last graph this service sampled (it holds
  /// that graph's fingerprint) — the splice source for a child version's
  /// incremental re-sample. One slot: the evolving-graph workload this
  /// serves is "predict, churn, re-predict" on one logical graph. A
  /// compute in flight takes the slot (so a concurrent sample for a
  /// different graph falls back to a cold walk) and stores the
  /// refreshed record back when done, or the record it took when its
  /// walk failed and no newer one has arrived.
  std::optional<SampleWalkRecord> incremental_record_;
  ServiceCacheStats stats_;
};

}  // namespace predict

#endif  // PREDICT_SERVICE_PREDICTION_SERVICE_H_
