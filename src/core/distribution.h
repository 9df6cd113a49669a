// Variance-aware predictions: intervals, not just points.
//
// A point estimate hides exactly the information an SLA decision needs —
// how wrong the model tends to be and how much the cluster's stragglers
// stretch a run. PredictionDistribution carries the point estimate plus
// an empirical distribution of plausible total runtimes built by
// residual bootstrapping: resample the fitted model's training residuals
// (with replacement, deterministic common/rng stream), perturb each
// predicted iteration by a drawn residual, inflate by a straggler factor
// drawn from the deployment's observed worker-speed spread, and sum.
// Quantiles of the resulting sample set give P50/P95 and
// feasible-at-confidence answers; the point-estimate path is the
// degenerate 50%-confidence case.

#ifndef PREDICT_CORE_DISTRIBUTION_H_
#define PREDICT_CORE_DISTRIBUTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace predict {

/// Bootstrap configuration. Deterministic for a fixed seed.
struct BootstrapOptions {
  /// Off = point estimates only (pre-interval behavior).
  bool enabled = true;
  /// Bootstrap replicates; more = smoother quantiles.
  int num_samples = 200;
  uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

/// \brief A predicted total runtime with uncertainty.
///
/// `samples` holds the bootstrap replicates sorted ascending; empty when
/// bootstrapping is disabled or no residuals were available, in which
/// case every quantile degenerates to the point estimate.
struct PredictionDistribution {
  /// The model's point estimate (sum of predicted iteration runtimes).
  double point_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  /// Sorted ascending bootstrap replicates of the total runtime.
  std::vector<double> samples;
  uint64_t seed = 0;

  /// The `q` quantile (q in [0,1]) of the replicates by linear
  /// interpolation over the sorted samples; the point estimate when no
  /// samples exist.
  double QuantileSeconds(double q) const;

  /// Runtime bound that holds with probability `confidence`. Never below
  /// the point estimate, so raising the confidence can only tighten an
  /// SLA decision: confidence <= 0.5 reproduces the point-estimate path
  /// exactly.
  double PredictedAtConfidence(double confidence) const;

  /// e.g. "point=12.3s p50=12.4s p95=14.1s (200 replicates)".
  std::string ToString() const;
};

/// Builds the distribution for a run predicted as `per_iteration_seconds`.
///
/// `residuals` are the fitted model's training residuals (observed -
/// predicted, one per training row); `straggler_spread` >= 0 is the
/// deployment's relative slow-worker overhang (max worker speed factor
/// over mean, minus 1) — each replicate draws a uniform inflation in
/// [1, 1 + spread]. With bootstrapping disabled, no residuals, or no
/// iterations, returns a degenerate distribution (quantiles == point).
PredictionDistribution BootstrapDistribution(
    const std::vector<double>& per_iteration_seconds,
    const std::vector<double>& residuals, double straggler_spread,
    const BootstrapOptions& options);

}  // namespace predict

#endif  // PREDICT_CORE_DISTRIBUTION_H_
