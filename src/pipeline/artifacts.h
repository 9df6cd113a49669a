// Typed artifacts flowing between the staged prediction pipeline's
// stages (Figure 1 of the paper, made explicit):
//
//   SampleStage      -> SampleArtifact
//   TransformStage   -> TransformArtifact
//   ProfileStage     -> ProfileArtifact
//   ExtrapolateStage -> ExtrapolationArtifact
//   FitStage         -> ModelArtifact
//
// Each artifact is a plain value: self-contained, copyable, and
// independent of the stage that produced it, so intermediate results can
// be cached (PredictionService shares SampleArtifacts and
// ProfileArtifacts across concurrent predictions) and each stage can be
// unit-tested in isolation by handing it a hand-built input artifact.

#ifndef PREDICT_PIPELINE_ARTIFACTS_H_
#define PREDICT_PIPELINE_ARTIFACTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/algorithm_spec.h"
#include "core/cost_model.h"
#include "core/extrapolator.h"
#include "core/features.h"
#include "core/models/scaleout_models.h"
#include "sampling/sampler.h"

namespace predict::pipeline {

/// Identity of a sample: which graph it was drawn from (by content
/// fingerprint plus |V|/|E|, belt-and-braces against a 64-bit hash
/// collision) and with which sampler configuration. Two SampleKeys with
/// the same ToString() denote byte-identical SampleArtifacts (the
/// samplers are deterministic), which is what makes samples shareable
/// across predictions.
struct SampleKey {
  uint64_t graph_fingerprint = 0;
  uint64_t graph_num_vertices = 0;
  uint64_t graph_num_edges = 0;
  SamplerOptions options;

  /// Builds the key identifying `graph` sampled under `options`.
  static SampleKey For(const Graph& graph, const SamplerOptions& options);

  bool operator==(const SampleKey& other) const = default;

  /// Canonical map key, e.g. "fp=a1b2...;v=100;e=420;BRJ;ratio=0.1;...".
  std::string ToString() const;
};

/// Output of SampleStage: the sampled subgraph. PredictionService shares
/// one artifact across the later graph versions that keep its sample
/// (KeepsSample in sampling/sampler.h), so an artifact names no graph
/// version; its identity is its content (ContentKey()).
struct SampleArtifact {
  Sample sample;

  /// The realized sampling ratio, read from the Sample (never
  /// recomputed downstream).
  double realized_ratio() const { return sample.realized_ratio; }

  /// Identity of the sample's *content* (subgraph fingerprint + sizes +
  /// realized ratio), independent of which graph version it was drawn
  /// from. Downstream stages (profile onward) consume only the content,
  /// so caches keyed on this string keep hitting across graph churn
  /// that leaves the sample unchanged — the heart of stale-artifact-only
  /// re-prediction. Equal ContentKey() ⇒ byte-identical downstream
  /// artifacts (the engine is deterministic).
  std::string ContentKey() const;
};

/// Output of TransformStage: the §3.2.2-transformed sample-run
/// configuration.
struct TransformArtifact {
  AlgorithmConfig sample_config;
  /// One-line description of the transform rule, for reports.
  std::string description;

  /// Canonical form of sample_config for cache keys, e.g. "tau=0.001;k=2".
  std::string ConfigKey() const;
};

/// Output of ProfileStage: the sample run's per-iteration profile and
/// overhead accounting (§5.4).
struct ProfileArtifact {
  RunProfile sample_profile;
  /// Simulated runtime of the complete sample run (all phases).
  double sample_total_seconds = 0.0;
  /// Host wall time of the sample run; a cached ProfileArtifact reports
  /// the wall time of the run that produced it. Part of a report's
  /// execution record (see DeterministicContent in core/predictor.h).
  double sample_wall_seconds = 0.0;
  /// The canonical key (bsp::EngineOptionsKey) of the engine
  /// configuration the profile was measured under. FitStage merges
  /// history rows only when it is the configured deployment's key.
  /// (PredictionService derives its profile-cache key from the same
  /// EngineOptionsKey before the artifact exists.)
  std::string scenario_key;
  /// Relative slow-worker overhang of the deployment the profile was
  /// measured under: max worker speed factor over the mean, minus 1
  /// (0 = homogeneous cluster). Feeds the straggler term of the
  /// bootstrap prediction intervals (core/distribution.h).
  double straggler_spread = 0.0;
};

/// Output of ExtrapolateStage: scaling factors and the profile scaled to
/// the full graph, iteration by iteration (§3.4).
struct ExtrapolationArtifact {
  ExtrapolationFactors factors;
  RunProfile extrapolated_profile;
};

/// Output of FitStage: the paper's cost model, trained once on the
/// sample run's rows and then the history's, the only model behind a
/// full-quality report.
struct ModelArtifact {
  CostModel model;
  /// Tier paper, with the sample and history row counts it trained on.
  models::ModelSelection selection;
  /// Training residuals (observed - predicted, one per training row in
  /// training order), the raw material of bootstrap prediction intervals.
  std::vector<double> residuals;
};

}  // namespace predict::pipeline

#endif  // PREDICT_PIPELINE_ARTIFACTS_H_
