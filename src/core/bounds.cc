#include "core/bounds.h"

#include <cmath>

namespace predict {

Result<double> PageRankIterationUpperBound(double epsilon, double damping) {
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (damping <= 0.0 || damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  return std::log10(epsilon) / std::log10(damping);
}

}  // namespace predict
