// The staged prediction pipeline: PREDIcT's Figure-1 methodology split
// into five composable stages.
//
//   SampleStage      sample the graph (§3.2.1)
//   TransformStage   map the actual run's config to the sample run (§3.2.2)
//   ProfileStage     run the algorithm on the sample, profiled (§3.2)
//   ExtrapolateStage scale the profile to full size (§3.4)
//   FitStage         train the cost model on sample + history (§3.4)
//
// Each stage is an immutable value object: configured once, then Run()
// any number of times from any thread (stages hold no mutable state).
// Stages consume and produce the typed artifacts of artifacts.h, so any
// stage can be exercised in isolation and any artifact can be cached and
// reused — PredictionService composes them end to end with caches
// between them, and Predictor is that service built for one call.

#ifndef PREDICT_PIPELINE_STAGES_H_
#define PREDICT_PIPELINE_STAGES_H_

#include <string>

#include "algorithms/runner.h"
#include "common/result.h"
#include "common/retry.h"
#include "core/history.h"
#include "core/transform.h"
#include "pipeline/artifacts.h"

namespace predict::pipeline {

/// Execution context a caller threads through the stage boundaries of
/// one request: a retry policy applied independently at each boundary, a
/// deadline shared across all of them, and optional per-boundary attempt
/// accounting. The default (one attempt, infinite deadline) reproduces
/// the pre-context behavior exactly, so existing callers need not pass
/// one. Stage errors come back annotated with the stage name
/// ("profile_stage: ...") regardless of the context.
struct StageContext {
  RetryPolicy retry;
  Deadline deadline;
  /// Not owned; may be null. Counts attempts/backoff at this boundary.
  AttemptAccounting* accounting = nullptr;
};

/// Stage 1: draws the sample and stamps it with its cache identity.
/// Fail point: sample.walk.
class SampleStage {
 public:
  explicit SampleStage(SamplerOptions options) : options_(options) {}

  Result<SampleArtifact> Run(const Graph& graph,
                             const StageContext& ctx = {}) const;

  /// Run, additionally filling `record` (non-null) with the walk
  /// trajectories so the sample can later be maintained incrementally.
  /// Artifact is bit-identical to Run's.
  Result<SampleArtifact> RunRecorded(const Graph& graph,
                                     SampleWalkRecord* record,
                                     const StageContext& ctx = {}) const;

  /// How an incremental stage run got its sample.
  struct IncrementalStats {
    uint64_t segments_total = 0;
    uint64_t segments_reused = 0;
    bool full_resample = false;
  };

  /// Re-derives the sample for a mutated `graph`, re-walking only
  /// segments whose trajectory touched a vertex in `dirty` (see
  /// ResampleIncremental). The artifact is bit-identical to Run(graph)
  /// with the same options; `updated` (non-null, distinct from
  /// `record`) receives the new walk record and `stats` (may be null)
  /// the reuse counts.
  Result<SampleArtifact> RunIncremental(const Graph& graph,
                                        const std::vector<VertexId>& dirty,
                                        const SampleWalkRecord& record,
                                        SampleWalkRecord* updated,
                                        IncrementalStats* stats,
                                        const StageContext& ctx = {}) const;

  const SamplerOptions& options() const { return options_; }

 private:
  SamplerOptions options_;
};

/// Stage 2: resolves the algorithm's config and applies the transform
/// function. Needs only the realized sampling ratio, not the sample
/// itself, so it is cheap enough to run uncached per prediction.
class TransformStage {
 public:
  /// `custom` overrides the paper's default rules; may be null. Not owned.
  explicit TransformStage(const TransformFunction* custom = nullptr)
      : custom_(custom) {}

  /// Resolves the spec and config without applying the transform: the
  /// fail-fast check compositions run *before* paying for SampleStage,
  /// so a misspelled algorithm or bad override never costs a sampling
  /// pass (or a cache slot).
  Status Validate(const std::string& algorithm,
                  const AlgorithmConfig& overrides) const;

  Result<TransformArtifact> Run(const std::string& algorithm,
                                const AlgorithmConfig& overrides,
                                double realized_ratio) const;

 private:
  const TransformFunction* custom_;
};

/// Stage 3: the sample run. Executes the algorithm on the sampled
/// subgraph with the transformed configuration and extracts the
/// critical-worker profile. The dominant cost of a prediction — the
/// artifact PredictionService caches most aggressively.
///
/// The stage is configured with a default engine (the deployment the
/// prediction targets), but a what-if sweep can profile the same sample
/// under any other deployment via RunWithEngine — the stage itself stays
/// immutable and shareable.
/// Fail point: profile.run, context-keyed on (algorithm, dataset,
/// transformed config, engine key) so probabilistic fault schedules are
/// deterministic per work item even through the concurrent service.
class ProfileStage {
 public:
  explicit ProfileStage(bsp::EngineOptions engine)
      : engine_(std::move(engine)) {}

  /// `dataset_name` labels the profile ("<dataset>_sample").
  Result<ProfileArtifact> Run(const std::string& algorithm,
                              const std::string& dataset_name,
                              const SampleArtifact& sample,
                              const TransformArtifact& transform,
                              const StageContext& ctx = {}) const {
    return RunWithEngine(algorithm, dataset_name, sample, transform, engine_,
                         ctx);
  }

  /// Runs the sample under an explicit engine configuration (a cluster
  /// scenario's ToEngineOptions); the artifact carries the matching
  /// scenario_key.
  Result<ProfileArtifact> RunWithEngine(const std::string& algorithm,
                                        const std::string& dataset_name,
                                        const SampleArtifact& sample,
                                        const TransformArtifact& transform,
                                        const bsp::EngineOptions& engine,
                                        const StageContext& ctx = {}) const;

  const bsp::EngineOptions& engine() const { return engine_; }

 private:
  bsp::EngineOptions engine_;
};

/// Stage 4: extrapolates the sample profile to the full graph.
class ExtrapolateStage {
 public:
  Result<ExtrapolationArtifact> Run(const Graph& full_graph,
                                    const SampleArtifact& sample,
                                    const ProfileArtifact& profile,
                                    const StageContext& ctx = {}) const;
};

/// Stage 5: trains the cost model on the sample run's rows plus the
/// history store's rows for the same algorithm on *other* datasets (the
/// paper's training methodology, §3.4). That one model predicts every
/// iteration of a full-quality report.
class FitStage {
 public:
  /// `history` may be null (train on the sample rows alone). Not owned.
  FitStage(CostModelOptions options, const HistoryStore* history)
      : options_(options), history_(history) {}

  /// Fail point: fit.ols, context-keyed on (algorithm, exclude_dataset).
  Result<ModelArtifact> Run(const ProfileArtifact& profile,
                            const std::string& algorithm,
                            const std::string& exclude_dataset,
                            const StageContext& ctx = {}) const;

 private:
  CostModelOptions options_;
  const HistoryStore* history_;
};

}  // namespace predict::pipeline

#endif  // PREDICT_PIPELINE_STAGES_H_
