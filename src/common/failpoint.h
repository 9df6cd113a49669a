// Deterministic fault injection: a process-wide registry of named fail
// points compiled into error-prone sites (history.load, profile.run,
// fit.ols, sample.walk, ...).
//
// A fail point is a named site that can be armed with an activation
// policy; when armed and triggered it makes the site return an injected
// error Status exactly as if the real operation had failed. Policies are
// deterministic so chaos tests and the chaos_gate bench can replay the
// same fault schedule bit-for-bit:
//
//   off                 disarmed
//   once                trigger on the first hit only
//   times:N             trigger on the first N hits
//   every:N             trigger on every Nth hit (N, 2N, ...)
//   prob:P[:seed=S]     trigger with probability P, decided by a
//                       stateless hash (common/rng HashToUnitDouble) of
//                       (S, context, site name) — with a context the
//                       decision is independent of hit order and thread
//                       schedule, which is what makes fault schedules
//                       reproducible through the concurrent service
//   [:code=io|internal] error category of the injection
//
// Configuration comes from tests (Configure), the CLI (--failpoints),
// or the PREDICT_FAILPOINTS environment variable, e.g.
//   PREDICT_FAILPOINTS="profile.run=prob:0.3:seed=7;history.load=once"
//
// Cost when disarmed: one relaxed atomic load (PREDICT_FAIL_POINT
// expands to a branch on fail::AnyActive()); sites pay nothing until a
// fail point anywhere in the process is armed.

#ifndef PREDICT_COMMON_FAILPOINT_H_
#define PREDICT_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace predict::fail {

namespace detail {
/// Number of currently armed fail points; the disarmed fast path.
extern std::atomic<int> g_armed_count;
}  // namespace detail

/// No deterministic context: hit-counter-driven decisions (sequential
/// tests). Sites on concurrent paths should pass a real context instead.
inline constexpr uint64_t kNoContext = ~uint64_t{0};

/// True iff any fail point is armed. Inline relaxed load: the whole cost
/// of fault injection on the zero-fault path.
inline bool AnyActive() {
  return detail::g_armed_count.load(std::memory_order_relaxed) != 0;
}

/// Evaluates the fail point `name`. Returns the injected error when the
/// site is armed and its policy fires on this hit, OK otherwise.
/// `context` keys probability decisions to the work item (e.g. a cache
/// key hash) instead of the hit order; pass kNoContext when there is
/// none. Thread-safe.
Status Inject(std::string_view name, uint64_t context = kNoContext);

/// Arms `name` with a policy spec ("once", "times:3", "every:2",
/// "prob:0.3:seed=7:code=io", "off"). InvalidArgument on a bad spec.
Status Configure(const std::string& name, const std::string& spec);

/// Parses "name=spec;name=spec;..." (the CLI/env syntax) and arms each.
Status ConfigureFromString(const std::string& config);

/// Arms from the PREDICT_FAILPOINTS environment variable (no-op when
/// unset/empty). Runs automatically once at process start.
Status ConfigureFromEnv();

/// Disarms one fail point / all fail points.
void Disable(const std::string& name);
void DisableAll();

/// Cumulative per-fail-point accounting (kept across Disable).
struct FailPointStats {
  uint64_t hits = 0;      ///< times an armed site evaluated the policy
  uint64_t triggers = 0;  ///< times the policy injected a failure
};
FailPointStats StatsFor(const std::string& name);

/// FNV-1a hash of a context string, for keying `prob` decisions to a
/// work item (cache key, dataset, request id).
uint64_t HashContext(std::string_view context);

}  // namespace predict::fail

/// Injects at a named site: returns the injected error Status from the
/// enclosing function when the fail point fires. Zero-cost (one relaxed
/// atomic load) when no fail point is armed.
#define PREDICT_FAIL_POINT(name)                                \
  do {                                                          \
    if (::predict::fail::AnyActive()) {                         \
      ::predict::Status _fp_st = ::predict::fail::Inject(name); \
      if (!_fp_st.ok()) return _fp_st;                          \
    }                                                           \
  } while (0)

/// Same, with a deterministic context hash (fail::HashContext) so `prob`
/// policies fire independently of hit order and thread schedule.
#define PREDICT_FAIL_POINT_CTX(name, context_hash)                   \
  do {                                                               \
    if (::predict::fail::AnyActive()) {                              \
      ::predict::Status _fp_st =                                     \
          ::predict::fail::Inject(name, context_hash);               \
      if (!_fp_st.ok()) return _fp_st;                               \
    }                                                                \
  } while (0)

#endif  // PREDICT_COMMON_FAILPOINT_H_
