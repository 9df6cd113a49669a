#include "common/retry.h"

#include <algorithm>
#include <limits>

namespace predict {

Deadline Deadline::After(double seconds) {
  Deadline deadline;
  deadline.infinite_ = false;
  deadline.at_ = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(std::max(0.0, seconds)));
  return deadline;
}

bool Deadline::Expired() const {
  if (infinite_) return false;
  return std::chrono::steady_clock::now() >= at_;
}

double Deadline::RemainingSeconds() const {
  if (infinite_) return std::numeric_limits<double>::infinity();
  const auto left = at_ - std::chrono::steady_clock::now();
  return std::max(0.0, std::chrono::duration<double>(left).count());
}

bool IsRetryableStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:
    case StatusCode::kInternal:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

}  // namespace predict
