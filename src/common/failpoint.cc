#include "common/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/strings.h"

namespace predict::fail {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

enum class Mode { kOff, kOnce, kTimes, kEveryNth, kProbability };

struct Policy {
  Mode mode = Mode::kOff;
  uint64_t n = 1;          // times:N / every:N
  double p = 0.0;          // prob:P
  uint64_t seed = 0;       // prob seed
  StatusCode code = StatusCode::kInternal;
};

struct Entry {
  Policy policy;
  FailPointStats stats;
  bool armed = false;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Entry, std::less<>> entries;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

const char* CodeLabel(StatusCode code) {
  return code == StatusCode::kIOError ? "io" : "internal";
}

Status MakeInjected(std::string_view name, StatusCode code,
                    const std::string& detail) {
  std::string message = "injected fault at '";
  message += name;
  message += "' (";
  message += detail;
  message += ")";
  return Status(code, std::move(message));
}

Result<Policy> ParseSpec(const std::string& spec) {
  Policy policy;
  const std::vector<std::string> parts = SplitString(spec, ':');
  if (parts.empty() || parts[0].empty()) {
    return Status::InvalidArgument("empty fail-point spec");
  }
  size_t next = 1;
  const std::string& mode = parts[0];
  auto parse_count = [&](const char* what) -> Result<uint64_t> {
    if (next >= parts.size()) {
      return Status::InvalidArgument(std::string(what) +
                                     " needs a count, e.g. '" + what + ":3'");
    }
    char* end = nullptr;
    const unsigned long long value =
        std::strtoull(parts[next].c_str(), &end, 10);
    if (end == parts[next].c_str() || *end != '\0' || value == 0) {
      return Status::InvalidArgument("bad count '" + parts[next] + "' in '" +
                                     spec + "'");
    }
    ++next;
    return static_cast<uint64_t>(value);
  };
  if (mode == "off") {
    policy.mode = Mode::kOff;
  } else if (mode == "once") {
    policy.mode = Mode::kOnce;
  } else if (mode == "times") {
    policy.mode = Mode::kTimes;
    PREDICT_ASSIGN_OR_RETURN(policy.n, parse_count("times"));
  } else if (mode == "every") {
    policy.mode = Mode::kEveryNth;
    PREDICT_ASSIGN_OR_RETURN(policy.n, parse_count("every"));
  } else if (mode == "prob") {
    policy.mode = Mode::kProbability;
    if (next >= parts.size()) {
      return Status::InvalidArgument("prob needs a probability, e.g. "
                                     "'prob:0.3'");
    }
    char* end = nullptr;
    policy.p = std::strtod(parts[next].c_str(), &end);
    if (end == parts[next].c_str() || *end != '\0' || policy.p < 0.0 ||
        policy.p > 1.0) {
      return Status::InvalidArgument("bad probability '" + parts[next] +
                                     "' in '" + spec + "' (want [0, 1])");
    }
    ++next;
  } else {
    return Status::InvalidArgument(
        "unknown fail-point mode '" + mode +
        "' (want off|once|times:N|every:N|prob:P)");
  }
  // Trailing key=value options, shared by every mode.
  for (; next < parts.size(); ++next) {
    const std::string& option = parts[next];
    if (StartsWith(option, "seed=")) {
      char* end = nullptr;
      const std::string text = option.substr(5);
      policy.seed = std::strtoull(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad seed in '" + spec + "'");
      }
    } else if (option == "code=io") {
      policy.code = StatusCode::kIOError;
    } else if (option == "code=internal") {
      policy.code = StatusCode::kInternal;
    } else {
      return Status::InvalidArgument("unknown fail-point option '" + option +
                                     "' in '" + spec + "'");
    }
  }
  return policy;
}

// Forces env configuration before main() so PREDICT_FAILPOINTS works for
// any binary linking the library, without an explicit init call.
const bool g_env_configured = [] {
  const Status status = ConfigureFromEnv();
  if (!status.ok()) {
    std::fprintf(stderr, "warning: PREDICT_FAILPOINTS ignored: %s\n",
                 status.ToString().c_str());
  }
  return true;
}();

}  // namespace

uint64_t HashContext(std::string_view context) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : context) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  return hash;
}

Status Inject(std::string_view name, uint64_t context) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.entries.find(name);
  if (it == registry.entries.end() || !it->second.armed) return Status::OK();
  Entry& entry = it->second;
  const uint64_t hit = ++entry.stats.hits;  // 1-based
  const Policy& policy = entry.policy;

  bool fire = false;
  std::string detail;
  switch (policy.mode) {
    case Mode::kOff:
      break;
    case Mode::kOnce:
      fire = hit == 1;
      detail = "once";
      break;
    case Mode::kTimes:
      fire = hit <= policy.n;
      detail = "hit " + std::to_string(hit) + "/" + std::to_string(policy.n);
      break;
    case Mode::kEveryNth:
      fire = hit % policy.n == 0;
      detail = "every " + std::to_string(policy.n) + ", hit " +
               std::to_string(hit);
      break;
    case Mode::kProbability: {
      // Context-keyed decisions depend only on (seed, context, name):
      // independent of hit order, so the same schedule replays through
      // any thread interleaving. Counter-keyed decisions (no context)
      // depend on hit order and suit sequential tests.
      const uint64_t a = context != kNoContext ? context : hit;
      const double draw = Rng::HashToUnitDouble(
          policy.seed, a, HashContext(name) ^ (context != kNoContext));
      fire = draw < policy.p;
      char buf[64];
      if (context != kNoContext) {
        std::snprintf(buf, sizeof(buf), "ctx=%016llx",
                      static_cast<unsigned long long>(context));
      } else {
        std::snprintf(buf, sizeof(buf), "hit %llu",
                      static_cast<unsigned long long>(hit));
      }
      detail = buf;
      break;
    }
  }
  if (!fire) return Status::OK();
  ++entry.stats.triggers;
  detail += ", code=";
  detail += CodeLabel(policy.code);
  return MakeInjected(name, policy.code, detail);
}

Status Configure(const std::string& name, const std::string& spec) {
  if (name.empty()) {
    return Status::InvalidArgument("fail-point name must not be empty");
  }
  PREDICT_ASSIGN_OR_RETURN(const Policy policy, ParseSpec(spec));
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  Entry& entry = registry.entries[name];
  const bool was_armed = entry.armed;
  entry.policy = policy;
  entry.stats = FailPointStats{};  // a fresh arming restarts the schedule
  entry.armed = policy.mode != Mode::kOff;
  if (entry.armed != was_armed) {
    detail::g_armed_count.fetch_add(entry.armed ? 1 : -1,
                                    std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ConfigureFromString(const std::string& config) {
  for (const std::string& assignment : SplitString(config, ';')) {
    const std::string trimmed(TrimWhitespace(assignment));
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    // 'seed=' / 'code=' options also contain '=', so split on the first
    // one only; a missing '=' means a bare name, which is invalid.
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("expected name=spec, got '" + trimmed +
                                     "'");
    }
    PREDICT_RETURN_NOT_OK(
        Configure(trimmed.substr(0, eq), trimmed.substr(eq + 1)));
  }
  return Status::OK();
}

Status ConfigureFromEnv() {
  const char* config = std::getenv("PREDICT_FAILPOINTS");
  if (config == nullptr || config[0] == '\0') return Status::OK();
  return StatusAnnotate(ConfigureFromString(config), "PREDICT_FAILPOINTS");
}

void Disable(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.entries.find(name);
  if (it == registry.entries.end() || !it->second.armed) return;
  it->second.armed = false;
  it->second.policy.mode = Mode::kOff;
  detail::g_armed_count.fetch_add(-1, std::memory_order_relaxed);
}

void DisableAll() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& [name, entry] : registry.entries) {
    if (!entry.armed) continue;
    entry.armed = false;
    entry.policy.mode = Mode::kOff;
    detail::g_armed_count.fetch_add(-1, std::memory_order_relaxed);
  }
}

FailPointStats StatsFor(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.entries.find(name);
  return it == registry.entries.end() ? FailPointStats{} : it->second.stats;
}

}  // namespace predict::fail
