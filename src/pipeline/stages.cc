#include "pipeline/stages.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bsp/scenario.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "core/features.h"

namespace predict::pipeline {

namespace {

// Every stage boundary funnels through here: check the request deadline
// before starting, run the stage body under the caller's retry policy,
// and annotate any error with the stage's name so it keeps its
// provenance ("profile_stage: injected fault at 'profile.run' ...").
template <typename Fn>
auto RunStage(const char* stage, const StageContext& ctx, Fn&& fn)
    -> decltype(fn()) {
  if (ctx.deadline.Expired()) {
    return Status::DeadlineExceeded(std::string(stage) +
                                    ": deadline expired before the stage ran");
  }
  auto result = RunWithRetry(ctx.retry, ctx.deadline, stage,
                             std::forward<Fn>(fn), ctx.accounting);
  if (!result.ok() && !StartsWith(result.status().message(), stage)) {
    return StatusAnnotate(result.status(), stage);
  }
  return result;
}

}  // namespace

SampleKey SampleKey::For(const Graph& graph, const SamplerOptions& options) {
  return SampleKey{graph.Fingerprint(), graph.num_vertices(),
                   graph.num_edges(), options};
}

std::string SampleKey::ToString() const {
  char fp[96];
  std::snprintf(fp, sizeof(fp), "fp=%016llx;v=%llu;e=%llu;",
                static_cast<unsigned long long>(graph_fingerprint),
                static_cast<unsigned long long>(graph_num_vertices),
                static_cast<unsigned long long>(graph_num_edges));
  return fp + SamplerOptionsKey(options);
}

std::string SampleArtifact::ContentKey() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "sfp=%016llx;sv=%llu;se=%llu;ov=%llu;ratio=%.17g",
                static_cast<unsigned long long>(sample.subgraph.Fingerprint()),
                static_cast<unsigned long long>(sample.subgraph.num_vertices()),
                static_cast<unsigned long long>(sample.subgraph.num_edges()),
                static_cast<unsigned long long>(sample.original_num_vertices),
                sample.realized_ratio);
  return buf;
}

std::string TransformArtifact::ConfigKey() const {
  std::string key;
  for (const auto& [name, value] : sample_config) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name.c_str(), value);
    key += buf;
  }
  return key;
}

Result<SampleArtifact> SampleStage::Run(const Graph& graph,
                                        const StageContext& ctx) const {
  return RunStage("sample_stage", ctx, [&]() -> Result<SampleArtifact> {
    SampleArtifact artifact;
    artifact.key = SampleKey::For(graph, options_);
    PREDICT_FAIL_POINT_CTX("sample.walk",
                           fail::HashContext(artifact.key.ToString()));
    PREDICT_ASSIGN_OR_RETURN(artifact.sample, SampleGraph(graph, options_));
    return artifact;
  });
}

Result<SampleArtifact> SampleStage::RunRecorded(const Graph& graph,
                                                SampleWalkRecord* record,
                                                const StageContext& ctx) const {
  return RunStage("sample_stage", ctx, [&]() -> Result<SampleArtifact> {
    SampleArtifact artifact;
    artifact.key = SampleKey::For(graph, options_);
    PREDICT_FAIL_POINT_CTX("sample.walk",
                           fail::HashContext(artifact.key.ToString()));
    PREDICT_ASSIGN_OR_RETURN(artifact.sample,
                             SampleGraphRecorded(graph, options_, record));
    return artifact;
  });
}

Result<SampleArtifact> SampleStage::RunIncremental(
    const Graph& graph, const std::vector<VertexId>& dirty,
    const SampleWalkRecord& record, SampleWalkRecord* updated,
    IncrementalStats* stats, const StageContext& ctx) const {
  return RunStage("sample_stage", ctx, [&]() -> Result<SampleArtifact> {
    if (!(record.options == options_)) {
      return Status::InvalidArgument(
          "walk record was made with different sampler options");
    }
    SampleArtifact artifact;
    artifact.key = SampleKey::For(graph, options_);
    PREDICT_FAIL_POINT_CTX("sample.walk",
                           fail::HashContext(artifact.key.ToString()));
    PREDICT_ASSIGN_OR_RETURN(
        IncrementalSampleResult incremental,
        ResampleIncremental(graph, dirty, record, updated));
    if (stats != nullptr) {
      stats->segments_total = incremental.segments_total;
      stats->segments_reused = incremental.segments_reused;
      stats->full_resample = incremental.full_resample;
    }
    artifact.sample = std::move(incremental.sample);
    return artifact;
  });
}

Status TransformStage::Validate(const std::string& algorithm,
                                const AlgorithmConfig& overrides) const {
  auto spec = FindAlgorithmSpec(algorithm);
  if (!spec.ok()) return spec.status();
  auto config = ResolveConfig(*spec, overrides);
  if (!config.ok()) return config.status();
  return Status::OK();
}

Result<TransformArtifact> TransformStage::Run(const std::string& algorithm,
                                              const AlgorithmConfig& overrides,
                                              double realized_ratio) const {
  TransformArtifact artifact;
  PREDICT_ASSIGN_OR_RETURN(artifact.spec, FindAlgorithmSpec(algorithm));
  PREDICT_ASSIGN_OR_RETURN(artifact.actual_config,
                           ResolveConfig(artifact.spec, overrides));
  PREDICT_ASSIGN_OR_RETURN(
      artifact.sample_config,
      TransformConfigForSample(artifact.spec, artifact.actual_config,
                               realized_ratio, custom_));
  const TransformFunction& transform =
      custom_ != nullptr
          ? *custom_
          : static_cast<const TransformFunction&>(DefaultTransform::Instance());
  artifact.description = transform.Describe(artifact.spec);
  return artifact;
}

Result<ProfileArtifact> ProfileStage::RunWithEngine(
    const std::string& algorithm, const std::string& dataset_name,
    const SampleArtifact& sample, const TransformArtifact& transform,
    const bsp::EngineOptions& engine, const StageContext& ctx) const {
  // Context-keyed fail point: the decision for a given work item is a
  // pure function of what is being profiled, never of how many other
  // profile runs interleaved before it — which is what keeps a
  // probabilistic fault schedule byte-replayable through the concurrent
  // service.
  const uint64_t fail_context =
      fail::AnyActive()
          ? fail::HashContext(algorithm + "|" + dataset_name + "|" +
                              transform.ConfigKey() + "|" +
                              bsp::EngineOptionsKey(engine))
          : 0;
  return RunStage("profile_stage", ctx, [&]() -> Result<ProfileArtifact> {
    PREDICT_FAIL_POINT_CTX("profile.run", fail_context);
    RunOptions run_options;
    run_options.engine = engine;
    run_options.config_overrides = transform.sample_config;
    PREDICT_ASSIGN_OR_RETURN(
        AlgorithmRunResult run,
        RunAlgorithmByName(algorithm, sample.sample.subgraph, run_options));

    ProfileArtifact artifact;
    artifact.scenario_key = bsp::EngineOptionsKey(engine);
    // Straggler overhang of this deployment: how much slower the slowest
    // worker is than the average one. Workers beyond the factor vector
    // run at 1.0 (homogeneous).
    if (engine.num_workers > 0) {
      double sum = 0.0;
      double max_factor = 0.0;
      for (uint32_t w = 0; w < engine.num_workers; ++w) {
        const double f = engine.cost_profile.SpeedFactor(w);
        sum += f;
        max_factor = std::max(max_factor, f);
      }
      const double mean = sum / engine.num_workers;
      if (mean > 0.0) {
        artifact.straggler_spread = std::max(0.0, max_factor / mean - 1.0);
      }
    }
    artifact.sample_total_seconds = run.stats.total_seconds;
    artifact.sample_wall_seconds = run.stats.wall_seconds;
    artifact.sample_profile = ProfileFromRunStats(
        algorithm, dataset_name.empty() ? "sample" : dataset_name + "_sample",
        sample.sample.subgraph.num_vertices(),
        sample.sample.subgraph.num_edges(), run.stats);
    return artifact;
  });
}

Result<ExtrapolationArtifact> ExtrapolateStage::Run(
    const Graph& full_graph, const SampleArtifact& sample,
    const ProfileArtifact& profile, const StageContext& ctx) const {
  return RunStage("extrapolate_stage", ctx,
                  [&]() -> Result<ExtrapolationArtifact> {
    ExtrapolationArtifact artifact;
    PREDICT_ASSIGN_OR_RETURN(
        artifact.factors,
        ComputeExtrapolationFactors(full_graph, sample.sample.subgraph));
    artifact.extrapolated_profile =
        ExtrapolateProfile(profile.sample_profile, artifact.factors);
    return artifact;
  });
}

Result<ModelArtifact> FitStage::Run(const ProfileArtifact& profile,
                                    const std::string& algorithm,
                                    const std::string& exclude_dataset,
                                    const StageContext& ctx) const {
  const uint64_t fail_context =
      fail::AnyActive()
          ? fail::HashContext(algorithm + "|" + exclude_dataset)
          : 0;
  return RunStage("fit_stage", ctx, [&]() -> Result<ModelArtifact> {
    PREDICT_FAIL_POINT_CTX("fit.ols", fail_context);
    // Sample rows first, then history rows: the training order the
    // residuals (and so the bootstrap intervals) follow.
    std::vector<TrainingRow> rows =
        TrainingRowsFromProfile(profile.sample_profile);
    ModelArtifact artifact;
    artifact.selection.sample_rows = rows.size();
    if (history_ != nullptr) {
      const std::vector<TrainingRow> history_rows =
          history_->TrainingRowsExcluding(algorithm, exclude_dataset);
      artifact.selection.history_rows = history_rows.size();
      rows.insert(rows.end(), history_rows.begin(), history_rows.end());
    }
    PREDICT_ASSIGN_OR_RETURN(artifact.model, CostModel::Train(rows, options_));
    artifact.residuals.reserve(rows.size());
    for (const TrainingRow& row : rows) {
      artifact.residuals.push_back(
          row.runtime_seconds -
          artifact.model.PredictIterationSeconds(row.features));
    }
    return artifact;
  });
}

}  // namespace predict::pipeline
