#include "bsp/scenario.h"

#include <cstdio>
#include <vector>

namespace predict::bsp {

namespace {

/// The paper's deployment, shared by most built-ins: Giraph-era
/// hardware, 1 Gbps fabric, Hadoop barriers (the CostProfile defaults),
/// 60-superstep cap and the 300 MiB budget calibrated in
/// datasets/datasets.cc.
ClusterScenario PaperBase() {
  ClusterScenario scenario;
  scenario.num_workers = 29;
  scenario.max_supersteps = 60;
  scenario.memory_budget_bytes = 300ull * 1024 * 1024;
  return scenario;
}

std::vector<ClusterScenario> MakeBuiltins() {
  std::vector<ClusterScenario> scenarios;

  {
    ClusterScenario s = PaperBase();
    s.name = "giraph-29";
    s.description = "the paper's cluster: 29 workers + master, 1 Gbps";
    scenarios.push_back(std::move(s));
  }
  {
    ClusterScenario s = PaperBase();
    s.name = "giraph-10";
    s.description = "10-worker slice of the paper cluster (proportional RAM)";
    s.num_workers = 10;
    s.memory_budget_bytes = PaperBase().memory_budget_bytes * 10 / 29;
    scenarios.push_back(std::move(s));
  }
  {
    ClusterScenario s = PaperBase();
    s.name = "hetero-straggler";
    s.description = "giraph-29 with three degraded workers (stragglers)";
    // Multipliers > 1 slow a worker down. Three degraded machines, the
    // worst at 2.2x — the heterogeneity band reported for shared-cluster
    // runtime variation; everything else runs at paper speed.
    s.cost_profile.worker_speed_factors.assign(s.num_workers, 1.0);
    s.cost_profile.worker_speed_factors[3] = 1.3;
    s.cost_profile.worker_speed_factors[7] = 2.2;
    s.cost_profile.worker_speed_factors[19] = 1.6;
    scenarios.push_back(std::move(s));
  }
  {
    ClusterScenario s = PaperBase();
    s.name = "fast-network-64";
    s.description = "64 workers on a 10x fabric (remote ~ local cost)";
    s.num_workers = 64;
    s.memory_budget_bytes = PaperBase().memory_budget_bytes * 64 / 29;
    // 10 GbE: remote bytes price like a fast interconnect, message
    // initiation cheapens, and the leaner coordination plane syncs
    // faster.
    s.cost_profile.per_remote_byte_seconds = 2e-7;
    s.cost_profile.per_remote_message_seconds = 6e-6;
    s.cost_profile.barrier_seconds = 0.12;
    scenarios.push_back(std::move(s));
  }
  {
    ClusterScenario s = PaperBase();
    s.name = "edge-balanced-29";
    s.description = "giraph-29 with greedy edge-balanced partitioning";
    s.partition = PartitionStrategy::kGreedyEdgeBalanced;
    scenarios.push_back(std::move(s));
  }

  return scenarios;
}

}  // namespace

EngineOptions ClusterScenario::ToEngineOptions(int num_threads) const {
  EngineOptions options;
  options.num_workers = num_workers;
  options.partition = partition;
  options.num_threads = num_threads;
  options.max_supersteps = max_supersteps;
  options.memory_budget_bytes = memory_budget_bytes;
  options.cost_profile = cost_profile;
  return options;
}

const std::vector<ClusterScenario>& BuiltinScenarios() {
  static const std::vector<ClusterScenario> scenarios = MakeBuiltins();
  return scenarios;
}

std::vector<std::string> BuiltinScenarioNames() {
  std::vector<std::string> names;
  for (const ClusterScenario& s : BuiltinScenarios()) names.push_back(s.name);
  return names;
}

Result<ClusterScenario> FindScenario(const std::string& name) {
  for (const ClusterScenario& s : BuiltinScenarios()) {
    if (s.name == name) return s;
  }
  std::string known;
  for (const std::string& n : BuiltinScenarioNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown scenario '" + name + "'; known: " + known);
}

std::string EngineOptionsKey(const EngineOptions& options) {
  const CostProfile& cp = options.cost_profile;
  // Formats twice on overflow rather than truncating: a truncated key
  // could make two different deployments share a cache slot — the exact
  // wrong-hit this key exists to prevent (same bounds-checked idiom as
  // SamplerOptionsKey).
  // path joins the key even though it does not affect simulated output:
  // profiles are keyed by the exact engine configuration that produced
  // them, so two configs that execute differently must never share a
  // cache slot (the SamplerOptionsKey discipline). The edge
  // representation is not an option: the engine reads it off the graph
  // it runs, and a profile's sample graph is always plain CSR.
  const auto format = [&](char* out, size_t size) {
    return std::snprintf(
        out, size,
        "w=%u;part=%s;ms=%d;mem=%llu;av=%.17g;lm=%.17g;rm=%.17g;lb=%.17g;"
        "rb=%.17g;bar=%.17g;set=%.17g;rd=%.17g;wr=%.17g;ns=%.17g;seed=%llu;"
        "path=%s",
        options.num_workers, PartitionStrategyName(options.partition),
        options.max_supersteps,
        static_cast<unsigned long long>(options.memory_budget_bytes),
        cp.per_active_vertex_seconds, cp.per_local_message_seconds,
        cp.per_remote_message_seconds, cp.per_local_byte_seconds,
        cp.per_remote_byte_seconds, cp.barrier_seconds, cp.setup_seconds,
        cp.read_bytes_per_second, cp.write_bytes_per_second, cp.noise_sigma,
        static_cast<unsigned long long>(cp.noise_seed),
        SuperstepPathName(options.superstep_path));
  };
  char buf[512];
  std::string key;
  const int needed = format(buf, sizeof(buf));
  if (needed >= 0 && static_cast<size_t>(needed) < sizeof(buf)) {
    key = buf;
  } else {
    std::vector<char> big(static_cast<size_t>(needed) + 1);
    format(big.data(), big.size());
    key = big.data();
  }
  if (!cp.worker_speed_factors.empty()) {
    key += ";speed=";
    for (const double factor : cp.worker_speed_factors) {
      char fbuf[40];  // one %.17g double + separator always fits
      std::snprintf(fbuf, sizeof(fbuf), "%.17g,", factor);
      key += fbuf;
    }
  }
  return key;
}

std::string ScenarioKey(const ClusterScenario& scenario) {
  return EngineOptionsKey(scenario.ToEngineOptions());
}

}  // namespace predict::bsp
