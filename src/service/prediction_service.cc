#include "service/prediction_service.h"

#include <condition_variable>
#include <thread>
#include <utility>

namespace predict {

namespace {

uint32_t ResolveThreads(int num_threads) {
  if (num_threads >= 0) return static_cast<uint32_t>(num_threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

}  // namespace

// A cache slot that deduplicates concurrent computation: the thread that
// created the slot computes; everyone else blocks until the result
// (value or error — both deterministic) is published. Deliberately NOT a
// once_flag: a once_flag would latch the first failure into the cache
// forever, whereas these slots are erased from the map before a failure
// is published, so the next request re-attempts.
template <typename ValuePtr>
struct PredictionService::Entry {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Result<ValuePtr> result = Status::Internal("uncomputed");

  void Publish(Result<ValuePtr> value) {
    {
      std::lock_guard<std::mutex> lock(m);
      result = std::move(value);
      done = true;
    }
    cv.notify_all();
  }

  Result<ValuePtr> Wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done; });
    return result;
  }
};

PredictionService::PredictionService(PredictionServiceOptions options)
    : options_(std::move(options)),
      stages_(options_.predictor),
      default_engine_key_(bsp::EngineOptionsKey(options_.predictor.engine)),
      pool_(ResolveThreads(options_.num_threads)) {}

template <typename ValuePtr, typename Compute>
Result<ValuePtr> PredictionService::GetOrCompute(
    Cache<ValuePtr>& cache, const std::string& key, uint64_t& hits,
    uint64_t& misses, bool& hit, Compute compute) {
  std::shared_ptr<Entry<ValuePtr>> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Entry<ValuePtr>>& slot = cache[key];
    hit = slot != nullptr;
    if (!hit) slot = std::make_shared<Entry<ValuePtr>>();
    ++(hit ? hits : misses);
    entry = slot;
  }
  if (hit) return entry->Wait();

  Result<ValuePtr> result = compute();  // outside the lock: work overlaps
  if (!result.ok()) {
    // Cache hygiene: drop the slot *before* publishing the failure, so
    // by the time any joiner observes the error the cache no longer
    // holds it and the next request for this key re-attempts.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache.find(key);
    if (it != cache.end() && it->second == entry) cache.erase(it);
  }
  entry->Publish(result);
  return result;
}

Result<PredictionService::SamplePtr> PredictionService::ComputeSample(
    const Graph& graph, const pipeline::StageContext& ctx) {
  // The walk state is an immutable snapshot: concurrent computes may all
  // keep or splice from it.
  WalkState walk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    walk = walk_;
  }

  // A version whose lineage names the snapshot's version hands the
  // sampler its dirty rows; the sampler decides whether the sample is
  // kept whole or the record spliced. Any other graph walks from scratch.
  const GraphLineage* lineage = graph.lineage();
  const bool from_record = walk.record != nullptr && lineage != nullptr &&
                           lineage->parent_fingerprint ==
                               walk.graph_fingerprint;
  if (from_record && KeepsSample(graph, lineage->dirty, *walk.record)) {
    // The version's sample is the snapshot's, byte for byte: share the
    // artifact and the record, and advance the snapshot to this version.
    PREDICT_RETURN_NOT_OK(stages_.sample.RunKept(graph, ctx));
    std::lock_guard<std::mutex> lock(mutex_);
    walk_ = {graph.Fingerprint(), walk.record, walk.sample};
    ++stats_.incremental_sample_updates;
    stats_.incremental_segments_reused += walk.record->segment_count();
    return walk.sample;
  }
  auto updated = std::make_shared<SampleWalkRecord>();
  pipeline::SampleStage::IncrementalStats inc_stats;
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::SampleArtifact artifact,
      from_record
          ? stages_.sample.RunIncremental(graph, lineage->dirty, *walk.record,
                                          updated.get(), &inc_stats, ctx)
          : stages_.sample.RunRecorded(graph, updated.get(), ctx));
  auto sample =
      std::make_shared<const pipeline::SampleArtifact>(std::move(artifact));

  std::lock_guard<std::mutex> lock(mutex_);
  walk_ = {graph.Fingerprint(), std::move(updated), sample};
  if (from_record && !inc_stats.full_resample) {
    ++stats_.incremental_sample_updates;
    stats_.incremental_segments_reused += inc_stats.segments_reused;
  }
  return sample;
}

Result<PredictionReport> PredictionService::Predict(
    const PredictionRequest& request) {
  if (request.graph == nullptr) {
    return Status::InvalidArgument("PredictionRequest.graph must not be null");
  }
  const Graph& graph = *request.graph;

  const RobustnessOptions& robustness = options_.predictor.robustness;
  const Deadline deadline = robustness.deadline_seconds > 0
                                ? Deadline::After(robustness.deadline_seconds)
                                : Deadline::Infinite();
  RequestAccounting accounting;
  const pipeline::StageContext sample_ctx{robustness.retry, deadline,
                                          &accounting.sample};
  const pipeline::StageContext profile_ctx{robustness.retry, deadline,
                                           &accounting.profile};
  const pipeline::StageContext fit_ctx{robustness.retry, deadline,
                                       &accounting.fit};

  // The target deployment decides both the history-only fallback's worker
  // count and (below) the profile-cache scenario component.
  bsp::EngineOptions engine = options_.predictor.engine;
  std::string engine_key = default_engine_key_;
  if (request.scenario.has_value()) {
    // Scenario runs simulate inline on the calling (fan-out) thread:
    // inheriting a hardware-wide num_threads here would nest an engine
    // pool inside every fan-out task. Inline execution never changes
    // simulated output (the determinism contract).
    engine = request.scenario->ToEngineOptions(0);
    engine_key = bsp::EngineOptionsKey(engine);
  }

  // Fail fast on an unknown algorithm, a bad override or an engine no
  // run can start on, before sampling (and before occupying a
  // sample-cache slot for a doomed request). Never degrades: a
  // misspelled request must fail loudly.
  PREDICT_RETURN_NOT_OK(
      stages_.transform.Validate(request.algorithm, request.overrides));
  PREDICT_RETURN_NOT_OK(bsp::ValidateEngineOptions(engine));

  // The ladder's bottom rung: answer from history alone, at the target
  // deployment's scale.
  auto history_only = [&](const Status& cause) -> Result<PredictionReport> {
    if (!robustness.degraded_fallbacks) return cause;
    Result<PredictionReport> fallback = HistoryOnlyPrediction(
        options_.predictor, request.algorithm, request.dataset,
        engine.num_workers, cause.ToString());
    if (!fallback.ok()) return fallback.status();
    if (request.scenario.has_value()) {
      fallback->scenario = request.scenario->name;
    }
    fallback->accounting = accounting;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.history_only_fallbacks;
    }
    return fallback;
  };

  // 1. Sample (cached on the graph's content + sampler options; the
  // sample is deployment-independent, so scenario requests share it).
  bool sample_reused = false;
  Result<SamplePtr> sample = GetOrCompute(
      sample_cache_,
      pipeline::SampleKey::For(graph, stages_.sample.options()).ToString(),
      stats_.sample_hits, stats_.sample_misses, sample_reused,
      [&] { return ComputeSample(graph, sample_ctx); });
  if (!sample.ok()) return history_only(sample.status());

  // 2. Transform (cheap; always recomputed). Pure config arithmetic — a
  // failure is a configuration bug, not a fault, and does not degrade.
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::TransformArtifact transform,
      stages_.transform.Run(request.algorithm, request.overrides,
                            (*sample)->realized_ratio()));

  // 3. Sample run (cached on the sample's *content* + algorithm +
  // dataset label + transformed config + the target deployment's
  // canonical engine key — everything the profile depends on, and
  // nothing it doesn't: keying on content rather than the graph version
  // the sample came from keeps profiles hitting across graph churn that
  // leaves the sample unchanged).
  const std::string profile_key =
      (*sample)->ContentKey() + "|" + request.algorithm + "|" +
      request.dataset + "|" + transform.ConfigKey() + "|" + engine_key;
  bool profile_reused = false;
  Result<ProfilePtr> profile = GetOrCompute(
      profile_cache_, profile_key, stats_.profile_hits, stats_.profile_misses,
      profile_reused, [&]() -> Result<ProfilePtr> {
        PREDICT_ASSIGN_OR_RETURN(
            pipeline::ProfileArtifact artifact,
            stages_.profile.RunWithEngine(request.algorithm, request.dataset,
                                          **sample, transform, engine,
                                          profile_ctx));
        return std::make_shared<const pipeline::ProfileArtifact>(
            std::move(artifact));
      });
  if (!profile.ok()) return history_only(profile.status());

  // 4-6. Extrapolate, fit, predict — per request, never cached (history
  // exclusion and the full graph differ per request). The fit merges
  // history only into a profile measured under the configured engine.
  Result<PredictionReport> report = AssemblePredictionReport(
      stages_, graph, request.algorithm, request.dataset, **sample,
      transform, **profile, fit_ctx);
  if (!report.ok()) return history_only(report.status());
  report->accounting = accounting;
  // Transform, extrapolate, and fit always execute per request; sample
  // and profile are the cacheable stages.
  report->stages_reused = (sample_reused ? 1 : 0) + (profile_reused ? 1 : 0);
  if (request.scenario.has_value()) report->scenario = request.scenario->name;
  return report;
}

std::vector<Result<PredictionReport>> PredictionService::PredictBatch(
    const std::vector<PredictionRequest>& requests) {
  // Slots are written by index: results are positionally deterministic no
  // matter which pool thread answers which request.
  std::vector<Result<PredictionReport>> results(
      requests.size(), Status::Internal("request not answered"));
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  pool_.ParallelFor(requests.size(),
                    [&](uint64_t i) { results[i] = Predict(requests[i]); });
  return results;
}

std::vector<Result<PredictionReport>> PredictionService::PredictScenarios(
    const PredictionRequest& request,
    const std::vector<bsp::ClusterScenario>& scenarios) {
  // One request per scenario: the first to need the sample computes it,
  // everyone else joins it.
  std::vector<PredictionRequest> requests(scenarios.size(), request);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    requests[i].scenario = scenarios[i];
  }
  return PredictBatch(requests);
}

ServiceCacheStats PredictionService::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ServiceCacheEvictions PredictionService::ClearCaches() {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceCacheEvictions evicted;
  evicted.sample_entries = sample_cache_.size();
  evicted.profile_entries = profile_cache_.size();
  evicted.incremental_states = walk_.record != nullptr ? 1 : 0;
  sample_cache_.clear();
  profile_cache_.clear();
  walk_ = {};
  return evicted;
}

}  // namespace predict
