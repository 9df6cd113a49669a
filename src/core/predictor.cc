#include "core/predictor.h"

#include <cmath>
#include <concepts>
#include <cstdio>
#include <ranges>
#include <set>
#include <string_view>

#include "core/models/scaleout_models.h"
#include "service/prediction_service.h"

namespace predict {

const char* DegradationRungName(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kFull:
      return "full";
    case DegradationRung::kHistoryOnly:
      return "history_only";
  }
  return "unknown";
}

namespace {

// Field values of the contract form. %.17g round-trips every double.
std::string Text(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
std::string Text(std::integral auto value) { return std::to_string(value); }
std::string Text(const std::string& value) { return value; }
// A list: its values, space-separated.
template <std::ranges::range List>
  requires(!std::same_as<List, std::string>)
std::string Text(const List& values) {
  std::string out;
  for (const auto& value : values) {
    if (!out.empty()) out += ' ';
    out += Text(value);
  }
  return out;
}

// One "name=value" line of the form. Backslashes and newlines in the
// value are escaped, so no value can end its line early.
void AppendLine(std::string* out, std::string_view name,
                const std::string& value) {
  *out += name;
  *out += '=';
  for (const char c : value) {
    if (c == '\\' || c == '\n') *out += '\\';
    *out += c == '\n' ? 'n' : c;
  }
  *out += '\n';
}

}  // namespace

std::string DeterministicContent(const PredictionReport& r) {
  std::string out;
  const auto add = [&out](std::string_view name, const auto& value) {
    AppendLine(&out, name, Text(value));
  };
  const auto add_profile = [&add](const std::string& name,
                                  const RunProfile& profile) {
    add(name + ".algorithm", profile.algorithm);
    add(name + ".dataset", profile.dataset);
    add(name + ".num_vertices", profile.num_vertices);
    add(name + ".num_edges", profile.num_edges);
    add(name + ".num_workers", profile.num_workers);
    // One line per iteration: index, runtime, then the Table-1 features.
    for (const IterationProfile& it : profile.iterations) {
      add(name + ".iteration", Text(it.iteration) + " " +
                                   Text(it.runtime_seconds) + " " +
                                   Text(it.critical_features));
    }
  };
  add("algorithm", r.algorithm);
  add("dataset", r.dataset);
  add("scenario", r.scenario);
  add("predicted_iterations", r.predicted_iterations);
  add("per_iteration_seconds", r.per_iteration_seconds);
  add("predicted_superstep_seconds", r.predicted_superstep_seconds);
  for (const auto& [key, value] : r.sample_config) {
    add("sample_config." + key, value);
  }
  add("transform_description", r.transform_description);
  add("factors.vertex_factor", r.factors.vertex_factor);
  add("factors.edge_factor", r.factors.edge_factor);
  // The fit itself, not CostModel::ToString(), which rounds.
  const LinearModel& fit = r.cost_model.model();
  add("cost_model.feature_indices", fit.feature_indices);
  add("cost_model.coefficients", fit.coefficients);
  add("cost_model.intercept", fit.intercept);
  add("cost_model.r_squared", fit.r_squared);
  add("cost_model.adjusted_r_squared", fit.adjusted_r_squared);
  add("model_selection", r.model_selection.ToString());  // exact: no doubles
  add("runtime_model_description", r.runtime_model_description);
  add("distribution.point_seconds", r.distribution.point_seconds);
  add("distribution.p50_seconds", r.distribution.p50_seconds);
  add("distribution.p95_seconds", r.distribution.p95_seconds);
  add("distribution.samples", r.distribution.samples);
  add("distribution.seed", r.distribution.seed);
  add_profile("sample_profile", r.sample_profile);
  add_profile("extrapolated_profile", r.extrapolated_profile);
  add("sample_total_seconds", r.sample_total_seconds);
  add("realized_sampling_ratio", r.realized_sampling_ratio);
  add("degradation.rung", DegradationRungName(r.degradation.rung));
  add("degradation.cause", r.degradation.cause);
  return out;
}

std::string DeterministicContent(const Result<PredictionReport>& result) {
  if (result.ok()) return DeterministicContent(*result);
  std::string out;
  AppendLine(&out, "status", result.status().ToString());
  return out;
}

double PredictionReport::PredictedCriticalRemoteBytes() const {
  double total = 0.0;
  for (const IterationProfile& it : extrapolated_profile.iterations) {
    total += it.critical_features[static_cast<int>(Feature::kRemMsgSize)];
  }
  return total;
}

Result<PredictionReport> AssemblePredictionReport(
    const PredictionPipeline& stages, const Graph& graph,
    const std::string& algorithm, const std::string& dataset_name,
    const pipeline::SampleArtifact& sample,
    const pipeline::TransformArtifact& transform,
    const pipeline::ProfileArtifact& profile,
    const pipeline::StageContext& fit_ctx) {
  PredictionReport report;
  report.algorithm = algorithm;
  report.dataset = dataset_name;
  report.sample_config = transform.sample_config;
  report.transform_description = transform.description;
  report.realized_sampling_ratio = sample.realized_ratio();
  report.sample_total_seconds = profile.sample_total_seconds;
  report.sample_wall_seconds = profile.sample_wall_seconds;
  report.sample_profile = profile.sample_profile;
  report.predicted_iterations = report.sample_profile.num_iterations();

  // 4. Extrapolate (§3.4), iteration by iteration.
  PREDICT_ASSIGN_OR_RETURN(pipeline::ExtrapolationArtifact extrapolation,
                           stages.extrapolate.Run(graph, sample, profile));
  report.factors = extrapolation.factors;
  report.extrapolated_profile = std::move(extrapolation.extrapolated_profile);

  // 5. Cost model: train on the sample run plus history of actual runs on
  // other datasets (§3.4 "Training Methodology").
  PREDICT_ASSIGN_OR_RETURN(
      pipeline::ModelArtifact model,
      stages.fit.Run(profile, algorithm, dataset_name, fit_ctx));
  report.cost_model = std::move(model.model);
  report.model_selection = std::move(model.selection);
  report.runtime_model_description = report.cost_model.ToString();

  // 6. Predict each iteration of the actual run from its extrapolated
  // critical-worker features.
  report.per_iteration_seconds =
      report.cost_model.PredictProfile(report.extrapolated_profile);
  report.predicted_superstep_seconds = 0.0;
  for (const double s : report.per_iteration_seconds) {
    report.predicted_superstep_seconds += s;
  }

  // 7. Interval: residual bootstrap over the cost model's training
  // residuals, stretched by the deployment's straggler spread.
  report.distribution =
      BootstrapDistribution(report.per_iteration_seconds, model.residuals,
                            profile.straggler_spread, stages.bootstrap);
  return report;
}

Result<PredictionReport> HistoryOnlyPrediction(const PredictorOptions& options,
                                               const std::string& algorithm,
                                               const std::string& dataset_name,
                                               uint32_t num_workers,
                                               const std::string& cause) {
  const std::string unavailable_context =
      "history-only fallback unavailable for '" + algorithm + "'";
  if (options.history == nullptr) {
    return StatusAnnotate(Status::NotFound("no history store configured; " +
                                           cause),
                          unavailable_context);
  }

  // Every actual run of this algorithm counts — including the predicted
  // dataset itself, which the full methodology excludes from *training*:
  // with the sample run gone, a previous actual run of the same dataset
  // is the best evidence left.
  std::vector<RunProfile> matching;
  for (RunProfile& profile : options.history->profiles()) {
    if (profile.algorithm == algorithm) matching.push_back(std::move(profile));
  }
  if (matching.empty()) {
    return StatusAnnotate(
        Status::NotFound("history store has no runs of the algorithm; " +
                         cause),
        unavailable_context);
  }

  // Iteration count: the rounded mean across the history's runs.
  double iteration_sum = 0.0;
  std::vector<models::ScaleOutObservation> observations;
  std::set<uint32_t> distinct_workers;
  for (const RunProfile& profile : matching) {
    iteration_sum += profile.num_iterations();
    if (profile.num_workers > 0) distinct_workers.insert(profile.num_workers);
    for (const IterationProfile& it : profile.iterations) {
      observations.push_back({static_cast<double>(profile.num_workers),
                              it.runtime_seconds});
    }
  }
  const int predicted_iterations = std::max(
      1, static_cast<int>(std::lround(iteration_sum /
                                      static_cast<double>(matching.size()))));

  // Ernest when the history spans enough deployments to fit its basis,
  // else the mean observed iteration runtime. Legacy runs, written before
  // history recorded worker counts (num_workers = 0), have no place on
  // Ernest's worker axis.
  PredictionReport report;
  const double scale_out = static_cast<double>(num_workers);
  double iteration_seconds = 0.0;
  if (distinct_workers.size() >= 2) {
    std::vector<models::ScaleOutObservation> known_workers;
    for (const models::ScaleOutObservation& point : observations) {
      if (point.scale_out > 0.0) known_workers.push_back(point);
    }
    PREDICT_ASSIGN_OR_RETURN(models::ErnestModel model,
                             models::ErnestModel::Fit(known_workers));
    report.model_selection.tier = models::ModelTier::kErnest;
    report.runtime_model_description = model.ToString();
    iteration_seconds = model.PredictIterationSeconds(scale_out);
  } else {
    PREDICT_ASSIGN_OR_RETURN(models::MeanModel model,
                             models::MeanModel::Fit(observations));
    report.model_selection.tier = models::ModelTier::kMean;
    report.runtime_model_description = model.ToString();
    iteration_seconds = model.PredictIterationSeconds(scale_out);
  }
  report.per_iteration_seconds.assign(predicted_iterations, iteration_seconds);

  report.algorithm = algorithm;
  report.dataset = dataset_name;
  report.predicted_iterations = predicted_iterations;
  report.model_selection.unique_configurations =
      static_cast<int>(distinct_workers.size());
  report.model_selection.history_rows = observations.size();
  report.model_selection.reason =
      "history-only degraded fallback (" +
      std::to_string(matching.size()) + " history run" +
      (matching.size() == 1 ? "" : "s") + ")";
  report.transform_description = "none (no sample run)";
  for (const double s : report.per_iteration_seconds) {
    report.predicted_superstep_seconds += s;
  }
  // Degenerate distribution: no fitted residuals survive the fallback.
  report.distribution.point_seconds = report.predicted_superstep_seconds;
  report.distribution.p50_seconds = report.predicted_superstep_seconds;
  report.distribution.p95_seconds = report.predicted_superstep_seconds;
  report.degradation.rung = DegradationRung::kHistoryOnly;
  report.degradation.cause = cause;
  return report;
}

Result<PredictionReport> Predictor::PredictRuntime(
    const std::string& algorithm, const Graph& graph,
    const std::string& dataset_name, const AlgorithmConfig& overrides) {
  PredictionService service({options_, /*num_threads=*/0});
  return service.Predict({algorithm, &graph, dataset_name, overrides, {}});
}

std::vector<Result<PredictionReport>> Predictor::PredictAcrossScenarios(
    const std::string& algorithm, const Graph& graph,
    const std::string& dataset_name, const AlgorithmConfig& overrides,
    std::span<const bsp::ClusterScenario> scenarios) {
  PredictionService service({options_, /*num_threads=*/0});
  return service.PredictScenarios(
      {algorithm, &graph, dataset_name, overrides, {}},
      {scenarios.begin(), scenarios.end()});
}

PredictionEvaluation EvaluatePrediction(const PredictionReport& report,
                                        const bsp::RunStats& actual) {
  PredictionEvaluation eval;
  eval.actual_iterations = actual.num_supersteps();
  eval.actual_superstep_seconds = actual.superstep_phase_seconds;

  const double actual_iters = static_cast<double>(eval.actual_iterations);
  if (actual_iters > 0) {
    eval.iterations_error =
        (static_cast<double>(report.predicted_iterations) - actual_iters) /
        actual_iters;
  }
  if (eval.actual_superstep_seconds > 0) {
    eval.runtime_error =
        (report.predicted_superstep_seconds - eval.actual_superstep_seconds) /
        eval.actual_superstep_seconds;
  }

  double actual_remote_bytes = 0.0;
  const bsp::WorkerId critical = actual.static_critical_worker;
  for (const bsp::SuperstepStats& step : actual.supersteps) {
    actual_remote_bytes +=
        static_cast<double>(step.per_worker[critical].remote_message_bytes);
  }
  if (actual_remote_bytes > 0) {
    eval.remote_bytes_error =
        (report.PredictedCriticalRemoteBytes() - actual_remote_bytes) /
        actual_remote_bytes;
  }
  return eval;
}

}  // namespace predict
