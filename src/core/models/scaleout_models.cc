#include "core/models/scaleout_models.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/regression.h"

namespace predict::models {

const char* ModelTierName(ModelTier tier) {
  switch (tier) {
    case ModelTier::kPaper:
      return "paper";
    case ModelTier::kMean:
      return "mean";
    case ModelTier::kErnest:
      return "ernest";
  }
  return "unknown";
}

std::string ModelSelection::ToString() const {
  std::ostringstream out;
  out << "tier=" << ModelTierName(tier)
      << " unique_configs=" << unique_configurations
      << " sample_rows=" << sample_rows << " history_rows=" << history_rows
      << " reason=\"" << reason << "\"";
  return out.str();
}

Result<MeanModel> MeanModel::Fit(const std::vector<ScaleOutObservation>& points) {
  double sum = 0.0;
  int count = 0;
  for (const auto& p : points) {
    if (!std::isfinite(p.runtime_seconds)) {
      return Status::InvalidArgument("non-finite runtime observation");
    }
    sum += p.runtime_seconds;
    ++count;
  }
  if (count == 0) {
    return Status::InvalidArgument("mean model needs at least one observation");
  }
  return MeanModel(sum / count);
}

double MeanModel::PredictIterationSeconds(double /*scale_out*/) const {
  return std::max(0.0, mean_seconds_);
}

std::string MeanModel::ToString() const {
  std::ostringstream out;
  out << "mean: " << mean_seconds_ << " s/iteration";
  return out.str();
}

std::array<double, 4> ErnestModel::Basis(double scale_out) {
  const double w = std::max(scale_out, 1.0);
  return {1.0, 1.0 / w, std::log(w), w};
}

Result<ErnestModel> ErnestModel::Fit(
    const std::vector<ScaleOutObservation>& points) {
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  rows.reserve(points.size());
  targets.reserve(points.size());
  double first_config = 0.0;
  bool multi_config = false;
  for (const auto& p : points) {
    if (!(p.scale_out > 0.0)) {
      return Status::InvalidArgument("ernest fit needs positive worker counts");
    }
    if (!std::isfinite(p.runtime_seconds)) {
      return Status::InvalidArgument("non-finite runtime observation");
    }
    const auto basis = Basis(p.scale_out);
    rows.emplace_back(basis.begin(), basis.end());
    targets.push_back(p.runtime_seconds);
    if (rows.size() == 1) {
      first_config = p.scale_out;
    } else if (p.scale_out != first_config) {
      multi_config = true;
    }
  }
  if (rows.size() < 2 || !multi_config) {
    return Status::FailedPrecondition(
        "ernest fit needs observations at >= 2 distinct worker counts");
  }
  PREDICT_ASSIGN_OR_RETURN(std::vector<double> coeffs, FitNnls(rows, targets));
  std::array<double, 4> c{};
  std::copy_n(coeffs.begin(), 4, c.begin());
  return ErnestModel(c);
}

double ErnestModel::PredictIterationSeconds(double scale_out) const {
  const auto basis = Basis(scale_out);
  double seconds = 0.0;
  for (size_t i = 0; i < basis.size(); ++i) {
    seconds += coefficients_[i] * basis[i];
  }
  return std::max(0.0, seconds);
}

std::string ErnestModel::ToString() const {
  std::ostringstream out;
  out << "ernest: " << coefficients_[0] << " + " << coefficients_[1] << "/w + "
      << coefficients_[2] << "*log(w) + " << coefficients_[3] << "*w";
  return out.str();
}

}  // namespace predict::models
