#include "algorithms/algorithm_spec.h"

namespace predict {

const char* ConvergenceKindName(ConvergenceKind kind) {
  switch (kind) {
    case ConvergenceKind::kAbsoluteAggregate:
      return "absolute_aggregate";
    case ConvergenceKind::kRelativeRatio:
      return "relative_ratio";
    case ConvergenceKind::kFixedPoint:
      return "fixed_point";
  }
  return "unknown";
}

Result<AlgorithmConfig> ResolveConfig(const AlgorithmSpec& spec,
                                      const AlgorithmConfig& overrides) {
  AlgorithmConfig config = spec.default_config;
  for (const auto& [key, value] : overrides) {
    if (config.find(key) == config.end()) {
      return Status::InvalidArgument("algorithm '" + spec.name +
                                     "' has no config parameter '" + key + "'");
    }
    config[key] = value;
  }
  if (spec.check_config != nullptr) {
    PREDICT_RETURN_NOT_OK(spec.check_config(config));
  }
  return config;
}

Result<double> GetConfigValue(const AlgorithmConfig& config,
                              const std::string& key) {
  const auto it = config.find(key);
  if (it == config.end()) {
    return Status::NotFound("missing config parameter '" + key + "'");
  }
  return it->second;
}

}  // namespace predict
