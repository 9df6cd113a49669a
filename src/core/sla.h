// Feasibility analysis (§1): "Given a cluster deployment and a workload
// of iterative algorithms, is it feasible to execute the workload on an
// input dataset while guaranteeing user specified SLAs?"
//
// Thin decision layer on top of the Predictor: predicts every job's
// runtime and checks it (plus the non-superstep phases) against its
// deadline.

#ifndef PREDICT_CORE_SLA_H_
#define PREDICT_CORE_SLA_H_

#include <string>
#include <vector>

#include "core/predictor.h"

namespace predict {

/// One job of the workload under analysis.
struct JobRequest {
  std::string job_name;
  std::string algorithm;       ///< registered algorithm name
  const Graph* graph = nullptr;
  std::string dataset_name;
  AlgorithmConfig overrides;   ///< actual-run configuration
  double deadline_seconds = 0.0;  ///< the SLA
  /// Probability with which the deadline must hold. The default 0.5 is
  /// the degenerate case: it checks the point estimate, exactly the
  /// pre-interval behavior. Higher values check the bootstrap quantile
  /// (PredictionDistribution::PredictedAtConfidence), which is never
  /// below the point estimate — raising the confidence can only flip a
  /// job from feasible to infeasible, never the reverse.
  double confidence = 0.5;
  /// When set and the predictor runs with degraded fallbacks, a
  /// prediction answered from the history-only degradation rung is not
  /// trusted for this job's SLA: the job is marked infeasible regardless
  /// of the predicted number. Default: a degraded answer is still an
  /// answer.
  bool require_full_quality = false;
};

/// Verdict for one job.
struct JobFeasibility {
  std::string job_name;
  double predicted_seconds = 0.0;  ///< superstep phase, point estimate
  /// Runtime bound checked against the deadline: the point estimate at
  /// confidence <= 0.5, the bootstrap quantile above.
  double predicted_at_confidence_seconds = 0.0;
  double confidence = 0.5;
  double deadline_seconds = 0.0;
  bool feasible = false;
  double headroom_seconds = 0.0;  ///< deadline - predicted at confidence
  /// Copied from the prediction: which rung answered (kFull unless the
  /// predictor degraded) and why.
  DegradationInfo degradation;
  /// True when require_full_quality vetoed a degraded prediction.
  bool rejected_degraded = false;
  PredictionReport report;
};

/// Verdict for the workload.
struct FeasibilityReport {
  std::vector<JobFeasibility> jobs;
  bool all_feasible = true;
  double total_predicted_seconds = 0.0;

  std::string ToString() const;
};

/// Predicts every job and checks it against its SLA.
Result<FeasibilityReport> AnalyzeFeasibility(const std::vector<JobRequest>& jobs,
                                             const PredictorOptions& options);

}  // namespace predict

#endif  // PREDICT_CORE_SLA_H_
