#include "common/retry.h"

#include <algorithm>

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

bool IsRetryableStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace predict
