// Algorithm specifications: the metadata PREDIcT's transform-rule engine
// consumes.
//
// §3.2.2 of the paper keys the default transform rules off whether an
// algorithm's convergence threshold is tuned to the dataset size
// (PageRank: absolute aggregate) or not (semi-clustering, top-k: a
// relative ratio). Each algorithm declares that here, along with its
// configuration parameters and defaults, so the transform function can
// map (ConfG, ConvG) -> (ConfS, ConvS) generically.

#ifndef PREDICT_ALGORITHMS_ALGORITHM_SPEC_H_
#define PREDICT_ALGORITHMS_ALGORITHM_SPEC_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace predict {

/// How an algorithm decides it has converged (§3.2.2, §3.5).
enum class ConvergenceKind {
  /// Converges when an absolute aggregate (e.g. total/average delta of
  /// PageRank mass) drops below tau; tau is tuned to dataset size.
  kAbsoluteAggregate,
  /// Converges when a ratio (updates/total) drops below tau; tau is
  /// independent of dataset size.
  kRelativeRatio,
  /// Runs to a fixed point (no updates anywhere); no threshold at all.
  kFixedPoint,
};

const char* ConvergenceKindName(ConvergenceKind kind);

/// Key-value algorithm configuration. Keys are algorithm-specific (see
/// each algorithm's header); "tau" is the convergence threshold by
/// convention.
using AlgorithmConfig = std::map<std::string, double>;

/// Static description of an algorithm, used by the transform rules and
/// the runner registry.
struct AlgorithmSpec {
  std::string name;
  ConvergenceKind convergence = ConvergenceKind::kRelativeRatio;
  AlgorithmConfig default_config;
  /// Which config keys are convergence parameters (Conv in §3.2.2); the
  /// rest are configuration parameters (Conf).
  std::vector<std::string> convergence_keys = {"tau"};
  /// Optional check of a resolved configuration's values (null: any
  /// value goes). ResolveConfig runs it, so a value no run accepts fails
  /// a request's validation, before sampling, instead of its sample run.
  Status (*check_config)(const AlgorithmConfig& config) = nullptr;
};

/// Merges `overrides` over `spec.default_config` and validates that every
/// override key exists in the spec and that the result passes
/// `spec.check_config`.
Result<AlgorithmConfig> ResolveConfig(const AlgorithmSpec& spec,
                                      const AlgorithmConfig& overrides);

/// Fetches a config value, with a precise error naming the key.
Result<double> GetConfigValue(const AlgorithmConfig& config,
                              const std::string& key);

}  // namespace predict

#endif  // PREDICT_ALGORITHMS_ALGORITHM_SPEC_H_
