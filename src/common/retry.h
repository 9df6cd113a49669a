// Retry policies and deadlines for the prediction pipeline.
//
// RetryPolicy re-attempts transient failures (IOError, Internal — never
// InvalidArgument/NotFound, which retrying cannot fix, nor
// ResourceExhausted: the engine's simulated memory budget fails the same
// run the same way every time) at once, up to a fixed number of
// attempts.
//
// Deadline is a monotonic-clock budget shared by every stage of one
// request: each attempt checks it before starting. An expired deadline
// surfaces as StatusCode::kDeadlineExceeded, which is NOT retryable —
// waiting longer cannot un-expire a deadline.

#ifndef PREDICT_COMMON_RETRY_H_
#define PREDICT_COMMON_RETRY_H_

#include <chrono>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace predict {

/// \brief A monotonic wall-clock budget. Default-constructed = infinite.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `seconds` from now (clamped to >= 0).
  static Deadline After(double seconds);
  static Deadline Infinite() { return Deadline(); }

  bool Expired() const;

 private:
  bool infinite_ = true;
  std::chrono::steady_clock::time_point at_{};
};

/// \brief Bounded immediate re-attempts.
struct RetryPolicy {
  /// Total attempts including the first; 1 = no retry (the default, so a
  /// default-constructed pipeline behaves exactly as before).
  int max_attempts = 1;
};

/// True for error categories a retry can plausibly fix (IOError,
/// Internal); false for everything else, including ResourceExhausted,
/// DeadlineExceeded and OK.
bool IsRetryableStatus(const Status& status);

/// Per-boundary attempt accounting, surfaced per request in
/// PredictionReport::accounting.
struct AttemptAccounting {
  int attempts = 0;
};

/// Runs `fn` (returning Result<T> or Status-convertible Result) under
/// `policy` and `deadline`. Retries only retryable failures, each at
/// once; gives up when attempts are exhausted or the failure is not
/// retryable. `what` labels deadline errors.
template <typename Fn>
auto RunWithRetry(const RetryPolicy& policy, const Deadline& deadline,
                  const char* what, Fn&& fn,
                  AttemptAccounting* accounting = nullptr) -> decltype(fn()) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1;; ++attempt) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(
          std::string(what) + ": deadline expired before attempt " +
          std::to_string(attempt));
    }
    auto result = fn();
    if (accounting != nullptr) ++accounting->attempts;
    if (result.ok() || !IsRetryableStatus(result.status()) ||
        attempt >= max_attempts) {
      return result;
    }
  }
}

}  // namespace predict

#endif  // PREDICT_COMMON_RETRY_H_
