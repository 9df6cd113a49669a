// The history-only rung's models: mean and Ernest (NNLS).
//
// Every full-quality prediction comes from the paper's cost model
// (core/cost_model.h). These two serve only the bottom of the
// degradation ladder, HistoryOnlyPrediction (core/predictor.h), which
// answers from actual-run history alone when the sample run fails. They
// model per-iteration runtime as a function of the cluster's worker count
// alone: Ernest's fixed basis (Ellis' compute_predictions, SNIPPETS.md
// #2) once the history spans two worker counts, the mean before that. On
// leave-one-worker-count-out CV over six PageRank runs Ernest reads 0.9%
// mean |error| against the mean's 30.1% (bench/ablation_history_rung.cc).

#ifndef PREDICT_CORE_MODELS_SCALEOUT_MODELS_H_
#define PREDICT_CORE_MODELS_SCALEOUT_MODELS_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"

namespace predict::models {

/// Which model produced a report's per-iteration runtimes.
enum class ModelTier : int {
  kPaper = 0,   ///< forward-selected OLS over Table-1 features (§3.4)
  kMean = 1,    ///< history-only rung: mean observed runtime
  kErnest = 2,  ///< history-only rung: NNLS scale-out model
};

const char* ModelTierName(ModelTier tier);

/// Which model answered a report, and from how much data.
struct ModelSelection {
  ModelTier tier = ModelTier::kPaper;
  /// Distinct positive worker counts among the history runs (set by the
  /// history-only rung).
  int unique_configurations = 0;
  size_t sample_rows = 0;
  size_t history_rows = 0;
  /// Why a degraded report used the model it did; empty on the full path.
  std::string reason;

  std::string ToString() const;
};

/// One (worker count, observed per-iteration runtime) training point.
struct ScaleOutObservation {
  double scale_out = 0.0;
  double runtime_seconds = 0.0;
};

/// \brief Sparse-history fallback: the mean observed runtime.
class MeanModel {
 public:
  /// Requires at least one observation.
  static Result<MeanModel> Fit(const std::vector<ScaleOutObservation>& points);

  /// The mean, clamped at >= 0, whatever the worker count.
  double PredictIterationSeconds(double scale_out) const;
  std::string ToString() const;

  double mean_seconds() const { return mean_seconds_; }

 private:
  explicit MeanModel(double mean_seconds) : mean_seconds_(mean_seconds) {}
  double mean_seconds_ = 0.0;
};

/// \brief Ernest-style scale-out model: runtime(w) = c0*1 + c1/w +
/// c2*log(w) + c3*w with c >= 0 (NNLS; core/regression FitNnls).
///
/// The basis captures the canonical cluster cost shape: fixed overhead,
/// perfectly parallel work (1/w), tree-aggregation (log w), and per-worker
/// coordination (w). Non-negativity is what keeps extrapolation beyond
/// the observed worker counts monotone-sane.
class ErnestModel {
 public:
  /// Requires >= 2 observations at >= 2 distinct positive worker counts.
  static Result<ErnestModel> Fit(const std::vector<ScaleOutObservation>& points);

  double PredictIterationSeconds(double scale_out) const;
  std::string ToString() const;

  /// The NNLS coefficients over {1, 1/w, log w, w}.
  const std::array<double, 4>& coefficients() const { return coefficients_; }

  /// The Ernest basis row for worker count w.
  static std::array<double, 4> Basis(double scale_out);

 private:
  explicit ErnestModel(std::array<double, 4> coefficients)
      : coefficients_(coefficients) {}
  std::array<double, 4> coefficients_{};
};

}  // namespace predict::models

#endif  // PREDICT_CORE_MODELS_SCALEOUT_MODELS_H_
