// The PREDIcT predictor: the end-to-end methodology of Figure 1.
//
//   sample -> transform -> sample run (profiling) -> extrapolate ->
//   cost model (fit on sample + history) -> per-iteration runtimes.
//
// Prediction happens at iteration granularity: the sample run's i-th
// iteration predicts the actual run's i-th iteration, so the number of
// iterations enters implicitly (§3.4) — which is what makes PREDIcT work
// for algorithms whose per-iteration runtime varies 100x.
//
// The methodology itself lives in the staged pipeline (pipeline/stages.h),
// and one request path composes it: PredictionService
// (service/prediction_service.h). Predictor is that service built for one
// call (num_threads = 0) and dropped on return, so its reports are
// uncached by construction and identical to a served report.

#ifndef PREDICT_CORE_PREDICTOR_H_
#define PREDICT_CORE_PREDICTOR_H_

#include <span>
#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "bsp/thread_pool.h"
#include "common/result.h"
#include "core/cost_model.h"
#include "core/distribution.h"
#include "core/extrapolator.h"
#include "core/features.h"
#include "core/history.h"
#include "core/models/scaleout_models.h"
#include "core/transform.h"
#include "pipeline/stages.h"
#include "sampling/sampler.h"

namespace predict {

/// Fault-tolerance knobs for one prediction request. The defaults (one
/// attempt, no deadline, no fallbacks) reproduce the pre-robustness
/// behavior bit for bit; chaos tests, the bench gate and the CLI opt in
/// explicitly.
struct RobustnessOptions {
  /// Applied independently at every pipeline stage boundary.
  RetryPolicy retry;
  /// Whole-request deadline in seconds; <= 0 means none.
  double deadline_seconds = 0.0;
  /// When true, a failed or deadline-exceeded profile run degrades to a
  /// cheaper prediction (stale profile, then history-only) instead of
  /// failing the request.
  bool degraded_fallbacks = false;
};

/// How much of the methodology a report is built from: the rung of the
/// degradation ladder the request landed on.
enum class DegradationRung {
  kFull = 0,         ///< the normal five-stage pipeline
  kStaleProfile,     ///< cached profile from a previous epoch (long-lived
                     ///< services only)
  kHistoryOnly,      ///< no sample run at all; fit on history alone
};

const char* DegradationRungName(DegradationRung rung);

/// Which rung a prediction landed on and why it fell there.
struct DegradationInfo {
  DegradationRung rung = DegradationRung::kFull;
  /// Empty on kFull; otherwise the stage error that forced the fall.
  std::string cause;

  bool degraded() const { return rung != DegradationRung::kFull; }
};

/// Per-request attempt/latency accounting, filled when a StageContext
/// carried a retry policy. Host-execution-dependent (a cache hit skips a
/// stage entirely), so excluded from determinism comparisons — like
/// sample_wall_seconds.
struct RequestAccounting {
  AttemptAccounting sample;
  AttemptAccounting profile;
  AttemptAccounting fit;

  int total_attempts() const {
    return sample.attempts + profile.attempts + fit.attempts;
  }
  double total_backoff_seconds() const {
    return sample.backoff_seconds + profile.backoff_seconds +
           fit.backoff_seconds;
  }
};

/// Everything configuring one prediction.
struct PredictorOptions {
  /// Sampling technique + ratio (§3.2.1). The default is BRJ at 10%.
  SamplerOptions sampler;

  /// Execution configuration — shared verbatim by the sample run and (by
  /// assumption iii of §3.1) the actual run it predicts.
  bsp::EngineOptions engine;

  CostModelOptions cost_model;

  /// Historical actual runs to merge into the training set (may be null).
  const HistoryStore* history = nullptr;

  /// Custom transform function; null = the paper's default rules.
  const TransformFunction* transform = nullptr;

  /// Residual-bootstrap prediction intervals (core/distribution.h).
  BootstrapOptions bootstrap;

  /// Retries, deadline and degraded-mode fallbacks. Default: off.
  RobustnessOptions robustness;
};

/// Output of one prediction.
struct PredictionReport {
  std::string algorithm;
  std::string dataset;
  /// Name of the cluster scenario the prediction targets; empty for the
  /// caller's baseline engine configuration.
  std::string scenario;

  /// Iterations observed on the sample run = predicted iterations (the
  /// transform function preserves the count; §3.3).
  int predicted_iterations = 0;

  /// Predicted runtime of each iteration of the actual run.
  std::vector<double> per_iteration_seconds;

  /// Sum of the above: the predicted superstep-phase runtime (§2.2 — the
  /// phase PREDIcT targets).
  double predicted_superstep_seconds = 0.0;

  /// The transformed configuration the sample run used, and the rule.
  AlgorithmConfig sample_config;
  std::string transform_description;

  ExtrapolationFactors factors;

  /// The trained cost model (R^2, selected features, coefficients): the
  /// paper's OLS, fit on the sample run plus other datasets' history.
  /// On the full and stale-profile rungs it predicts every iteration,
  /// whatever worker counts the history spans — models of runtime
  /// against worker count alone ignore the graph being predicted, and
  /// on the same requests they read 91–137% mean |runtime error|
  /// against the OLS's 37–40%. Empty on the history-only rung.
  CostModel cost_model;

  /// Which model produced per_iteration_seconds: tier paper with its
  /// sample and history row counts, or on the history-only rung mean or
  /// Ernest with the reason.
  models::ModelSelection model_selection;
  /// ToString() of that model, e.g. "ernest: 0.3 + 12/w + ...".
  std::string runtime_model_description;

  /// The prediction as a distribution: point estimate plus bootstrap
  /// P50/P95 and replicates (degenerate when bootstrapping is off).
  /// distribution.point_seconds == predicted_superstep_seconds.
  PredictionDistribution distribution;

  /// Profiles: as measured on the sample, and extrapolated to full scale.
  RunProfile sample_profile;
  RunProfile extrapolated_profile;

  /// Overhead accounting (§5.4): the sample run's own simulated runtime
  /// (all phases) and host wall time.
  double sample_total_seconds = 0.0;
  double sample_wall_seconds = 0.0;
  double realized_sampling_ratio = 0.0;

  /// Which degradation rung produced this report (kFull unless the
  /// request fell back) and the error that caused the fall.
  DegradationInfo degradation;

  /// Attempt/backoff accounting for the request. Excluded from
  /// determinism byte-compares (see RequestAccounting).
  RequestAccounting accounting;

  /// Of the five pipeline stages, how many this request served from
  /// cached artifacts vs actually executed. Like `accounting`, a
  /// property of the execution rather than the prediction: excluded
  /// from determinism byte-compares.
  int stages_reused = 0;
  int stages_recomputed = 5;

  /// Predicted total remote message bytes on the critical-path worker
  /// (the Figure-6 "remote message bytes" key feature).
  double PredictedCriticalRemoteBytes() const;
};

/// The five pipeline stages wired from one PredictorOptions. Immutable
/// after construction and safe to share across threads; every
/// PredictionService runs its predictions through one of these.
struct PredictionPipeline {
  explicit PredictionPipeline(const PredictorOptions& options)
      : sample(options.sampler),
        transform(options.transform),
        profile(options.engine),
        fit(options.cost_model, options.history),
        bootstrap(options.bootstrap) {}

  pipeline::SampleStage sample;
  pipeline::TransformStage transform;
  pipeline::ProfileStage profile;
  pipeline::ExtrapolateStage extrapolate;
  pipeline::FitStage fit;
  /// Interval configuration for AssemblePredictionReport (no stage of
  /// its own: bootstrapping consumes the fit's residuals in place).
  BootstrapOptions bootstrap;
};

/// Runs the back half of the pipeline (extrapolate -> fit -> predict)
/// on already-computed front-half artifacts and assembles the full
/// PredictionReport. Deterministic in its inputs: cached and freshly
/// computed artifacts yield bit-identical reports (modulo
/// sample_wall_seconds, which reports host timing).
Result<PredictionReport> AssemblePredictionReport(
    const PredictionPipeline& stages, const Graph& graph,
    const std::string& algorithm, const std::string& dataset_name,
    const pipeline::SampleArtifact& sample,
    const pipeline::TransformArtifact& transform,
    const pipeline::ProfileArtifact& profile,
    const pipeline::StageContext& fit_ctx = {});

/// The bottom rung of the degradation ladder: a prediction built from the
/// history store alone, with no sample run. Iterations = the rounded mean
/// iteration count of the algorithm's history profiles; per-iteration
/// runtime from an Ernest fit over the (workers, runtime) rows of runs
/// with a known worker count when at least two distinct ones exist, else
/// from the mean of every row. Legacy runs (num_workers = 0) count toward
/// the iteration mean and the mean model, never toward Ernest. Far
/// coarser than the methodology — the report says so via `degradation`
/// (rung kHistoryOnly, the given `cause`).
///
/// Fails with the annotated cause when the options carry no usable
/// history for `algorithm` — the ladder's explicit-error bottom.
Result<PredictionReport> HistoryOnlyPrediction(const PredictorOptions& options,
                                               const std::string& algorithm,
                                               const std::string& dataset_name,
                                               uint32_t num_workers,
                                               const std::string& cause);

/// \brief Runs the PREDIcT methodology for one (algorithm, graph) pair,
/// through a PredictionService built for each call: nothing is cached
/// across calls.
class Predictor {
 public:
  explicit Predictor(PredictorOptions options) : options_(std::move(options)) {}

  /// Predicts the runtime of `algorithm` on `graph`.
  ///
  /// `dataset_name` labels profiles and excludes same-dataset rows from
  /// the history store (the paper trains on "all other datasets but the
  /// predicted one"). `overrides` configure the *actual* run; the
  /// transform function derives the sample run's configuration from them.
  ///
  /// Honors options().robustness: each stage runs under the retry policy
  /// and the request deadline, and when degraded_fallbacks is set a
  /// failed stage falls back to HistoryOnlyPrediction (a call-scoped
  /// service has no previous epoch, so the stale-profile rung never
  /// answers). Validation failures (unknown algorithm, bad override)
  /// never degrade — a misspelled request must fail loudly.
  Result<PredictionReport> PredictRuntime(const std::string& algorithm,
                                          const Graph& graph,
                                          const std::string& dataset_name = "",
                                          const AlgorithmConfig& overrides = {});

  /// Cross-deployment what-if (the paper's §5 deployment axis): predicts
  /// `algorithm` on `graph` under each scenario, as one request per
  /// scenario to the call's service (PredictionService::PredictScenarios
  /// semantics). The sample is drawn once, by the first scenario that
  /// needs it, and joined by the rest (their stages_reused is 1); an
  /// empty sweep draws none. Each scenario is profiled and fitted under
  /// its own engine options, with its own deadline, attempt accounting
  /// and, when degraded_fallbacks is set, its own degradation ladder. A
  /// failed sample is never cached: scenarios that joined the failing
  /// draw share its error, and the next scenario to need it draws again.
  ///
  /// The history store carries no deployment identity — assumption iii
  /// ties its rows to the predictor's configured engine — and the paper
  /// re-trains the cost model per cluster, so history joins a scenario's
  /// fit only when the scenario's canonical engine key matches the
  /// baseline engine's; every other scenario fits on its sample run
  /// alone.
  ///
  /// results[i] corresponds to scenarios[i]. `pool` fans the scenarios
  /// out (null = sequential); every stage is deterministic, so the
  /// fanned-out batch is bit-identical to the sequential loop (modulo
  /// the execution fields sample_wall_seconds, `accounting` and
  /// stages_reused/recomputed). Scenario runs simulate inline on their
  /// fan-out thread (num_threads = 0).
  std::vector<Result<PredictionReport>> PredictAcrossScenarios(
      const std::string& algorithm, const Graph& graph,
      const std::string& dataset_name, const AlgorithmConfig& overrides,
      std::span<const bsp::ClusterScenario> scenarios,
      bsp::ThreadPool* pool = nullptr);

  const PredictorOptions& options() const { return options_; }

 private:
  PredictorOptions options_;
};

/// Signed relative errors of a prediction against the observed actual
/// run ((predicted - actual) / actual; negative = under-prediction).
struct PredictionEvaluation {
  double iterations_error = 0.0;
  double runtime_error = 0.0;           ///< superstep-phase seconds
  double remote_bytes_error = 0.0;      ///< critical-worker remote bytes
  int actual_iterations = 0;
  double actual_superstep_seconds = 0.0;
};

/// Compares a report to the actual run's stats.
PredictionEvaluation EvaluatePrediction(const PredictionReport& report,
                                        const bsp::RunStats& actual);

}  // namespace predict

#endif  // PREDICT_CORE_PREDICTOR_H_
