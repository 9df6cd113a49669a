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
// Evolving graphs: the service keeps the last sample it computed together
// with the walk record that drew it. A sample-cache miss for an
// EvolvingGraph version Apply built from that sample's graph (see
// GraphLineage) hands the record and the version's changed rows to the
// sampler, which needs predictor.sampler.walk_segment_steps > 0. When no
// changed row lies on the recorded walk (KeepsSample,
// sampling/sampler.h), the version keeps that sample: its cache slot
// shares the parent's artifact, and nothing is walked, extracted or
// hashed. Otherwise the sampler re-walks only the segments those rows
// touch (ResampleIncremental holds every rule on when it may splice),
// or walks from scratch. Every way, the sample is bit-identical to the
// from-scratch walk every other graph gets; the kept path still passes
// the sample stage's boundary, so fault schedules replay as before.
//
// Determinism contract: every stage is deterministic, so a report served
// from warm caches under any concurrency has the DeterministicContent
// (core/predictor.h) of a cold sequential Predictor::PredictRuntime.
//
// Failure semantics (the robustness contract):
//   - A failed stage never populates a cache: the computing thread
//     erases the in-flight slot before publishing the error, so the next
//     request for the key re-attempts instead of replaying a cached
//     failure (no cache poisoning, no latched errors).
//   - Concurrent joiners of a failed computation receive that failure
//     (deterministic under an armed fault schedule), but do not latch it.
//   - With predictor.robustness.degraded_fallbacks set, a failed or
//     deadline-exceeded request falls back to a history-only fit, and
//     only then to the explicit error. The report's `degradation` field
//     says which rung answered. Validation failures (unknown algorithm,
//     bad override, engine options no run can start with) never
//     degrade.

#ifndef PREDICT_SERVICE_PREDICTION_SERVICE_H_
#define PREDICT_SERVICE_PREDICTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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
  /// service's configured engine (pipeline::FitStage); other scenarios
  /// fit on the sample run alone (the paper re-trains its cost model
  /// per cluster).
  std::optional<bsp::ClusterScenario> scenario;
};

struct PredictionServiceOptions {
  /// Pipeline configuration shared by every request this service answers
  /// (caches are only valid within one such configuration).
  PredictorOptions predictor;

  /// Host threads for the PredictBatch and PredictScenarios fan-out:
  /// -1 = one per hardware thread, 0 = inline on the caller. Independent of
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
  /// Degraded-mode accounting: requests answered from the history-only
  /// rung.
  uint64_t history_only_fallbacks = 0;
  /// Incremental-sampling accounting: sample-cache misses answered by
  /// keeping the previous sample or splicing its walk record (vs
  /// sampling from scratch), and walk segments replayed without
  /// re-walking across those updates (a kept sample counts every
  /// recorded segment).
  uint64_t incremental_sample_updates = 0;
  uint64_t incremental_segments_reused = 0;
};

/// What ClearCaches dropped.
struct ServiceCacheEvictions {
  uint64_t sample_entries = 0;
  uint64_t profile_entries = 0;
  /// 1 if the retained walk state (a walk record and its sample) was
  /// dropped.
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
  /// (stats are kept). Returns what was evicted.
  ServiceCacheEvictions ClearCaches();

  const PredictionServiceOptions& options() const { return options_; }

 private:
  template <typename ValuePtr>
  struct Entry;
  template <typename ValuePtr>
  using Cache =
      std::unordered_map<std::string, std::shared_ptr<Entry<ValuePtr>>>;

  using SamplePtr = std::shared_ptr<const pipeline::SampleArtifact>;
  using ProfilePtr = std::shared_ptr<const pipeline::ProfileArtifact>;

  /// The one cache policy, shared by both caches: the first request for
  /// `key` runs `compute` while later ones join its result (`hit` says
  /// which, counted into `hits`/`misses`). A failed slot leaves the map
  /// before the failure is published, so the next request re-attempts.
  template <typename ValuePtr, typename Compute>
  Result<ValuePtr> GetOrCompute(Cache<ValuePtr>& cache, const std::string& key,
                                uint64_t& hits, uint64_t& misses, bool& hit,
                                Compute compute);

  /// Computes the sample artifact on a cache miss: kept or spliced from
  /// the walk state when the graph's lineage names its version, from
  /// scratch otherwise.
  Result<SamplePtr> ComputeSample(const Graph& graph,
                                  const pipeline::StageContext& ctx);

  /// The last sample this service computed, the walk that drew it, and
  /// the version it stands for — the source a child version's sample is
  /// kept or spliced from. A kept version shares the record and the
  /// sample: the walk is its walk too.
  struct WalkState {
    /// Fingerprint() of the version, which a child's
    /// GraphLineage::parent_fingerprint must name. Once a version kept
    /// its sample, the walk itself ran on an ancestor.
    uint64_t graph_fingerprint = 0;
    std::shared_ptr<const SampleWalkRecord> record;  // null: no state
    SamplePtr sample;
  };

  PredictionServiceOptions options_;
  PredictionPipeline stages_;
  /// EngineOptionsKey of the service's configured deployment, the
  /// profile-cache scenario component for requests without a scenario.
  std::string default_engine_key_;

  /// Serializes PredictBatch callers (ThreadPool runs one batch at a
  /// time); single Predict calls do not take this.
  std::mutex batch_mutex_;
  bsp::ThreadPool pool_;

  mutable std::mutex mutex_;  // guards the members below
  Cache<SamplePtr> sample_cache_;
  Cache<ProfilePtr> profile_cache_;
  /// One immutable snapshot, counted as one incremental state: the
  /// evolving-graph workload this serves is "predict, churn, re-predict"
  /// on one logical graph. A compute copies it and publishes its own only
  /// on success, so a failed walk leaves the last good one in place.
  WalkState walk_;
  ServiceCacheStats stats_;
};

}  // namespace predict

#endif  // PREDICT_SERVICE_PREDICTION_SERVICE_H_
