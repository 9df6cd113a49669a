// Cluster-scenario tests: the registry, the heterogeneous cost clock,
// the canonical engine keys that scope every cached profile to one
// deployment, and the cross-scenario what-if APIs (Predictor and
// PredictionService), whose fanned-out output must be bit-identical to
// a sequential per-scenario loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "algorithms/pagerank.h"
#include "bsp/scenario.h"
#include "common/failpoint.h"
#include "core/predictor.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "service/prediction_service.h"

namespace predict {
namespace {

using bsp::BuiltinScenarioNames;
using bsp::BuiltinScenarios;
using bsp::ClusterScenario;
using bsp::EngineOptionsKey;
using bsp::FindScenario;
using bsp::ScenarioKey;

const Graph& WhatIfGraph() {
  static const Graph g = MakeDataset("wiki", 0.08).MoveValue();
  return g;
}

TEST(ScenarioTest, RegistryContainsTheAdvertisedDeployments) {
  const std::vector<std::string> names = BuiltinScenarioNames();
  for (const char* expected :
       {"giraph-29", "giraph-10", "hetero-straggler", "fast-network-64",
        "edge-balanced-29"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_FALSE(FindScenario("no-such-cluster").ok());
}

TEST(ScenarioTest, Giraph29MatchesPaperClusterOptions) {
  const ClusterScenario scenario = FindScenario("giraph-29").MoveValue();
  const bsp::EngineOptions paper = PaperClusterOptions();
  const bsp::EngineOptions from_scenario = scenario.ToEngineOptions();
  EXPECT_EQ(from_scenario.num_workers, paper.num_workers);
  EXPECT_EQ(from_scenario.max_supersteps, paper.max_supersteps);
  EXPECT_EQ(from_scenario.memory_budget_bytes, paper.memory_budget_bytes);
  EXPECT_EQ(EngineOptionsKey(from_scenario), EngineOptionsKey(paper));
}

TEST(ScenarioTest, EngineKeysAreCanonicalAndDistinct) {
  std::set<std::string> keys;
  for (const ClusterScenario& scenario : BuiltinScenarios()) {
    EXPECT_TRUE(keys.insert(ScenarioKey(scenario)).second)
        << scenario.name << " collides with another scenario";
    // The key is a pure function of the configuration.
    EXPECT_EQ(ScenarioKey(scenario), ScenarioKey(scenario));
  }
  // Every simulation-relevant knob must move the key.
  const ClusterScenario base = FindScenario("giraph-29").MoveValue();
  ClusterScenario changed = base;
  changed.num_workers += 1;
  EXPECT_NE(ScenarioKey(changed), ScenarioKey(base));
  changed = base;
  changed.partition = bsp::PartitionStrategy::kContiguousRange;
  EXPECT_NE(ScenarioKey(changed), ScenarioKey(base));
  changed = base;
  changed.cost_profile.barrier_seconds *= 2;
  EXPECT_NE(ScenarioKey(changed), ScenarioKey(base));
  changed = base;
  changed.cost_profile.worker_speed_factors = {1.0, 2.0};
  EXPECT_NE(ScenarioKey(changed), ScenarioKey(base));
}

TEST(ScenarioTest, ExecutionModeKnobsMoveTheEngineKey) {
  // The superstep path never changes simulated output, but it changes
  // what executed — profiles must not wrong-hit across it (the
  // SamplerOptionsKey discipline).
  const bsp::EngineOptions base = PaperClusterOptions();
  bsp::EngineOptions changed = base;
  changed.superstep_path = bsp::SuperstepPath::kSparse;
  EXPECT_NE(EngineOptionsKey(changed), EngineOptionsKey(base));
  changed.superstep_path = bsp::SuperstepPath::kDense;
  EXPECT_NE(EngineOptionsKey(changed), EngineOptionsKey(base));
}

TEST(ScenarioTest, SpeedFactorsMoveTheCriticalPath) {
  bsp::CostProfile profile;
  profile.noise_sigma = 0.0;
  std::vector<bsp::WorkerCounters> counters(2);
  counters[0].active_vertices = 1000;
  counters[1].active_vertices = 999;  // marginally cheaper than worker 0

  bsp::WorkerId critical = 99;
  const double homogeneous = profile.SuperstepSeconds(counters, 0, &critical);
  EXPECT_EQ(critical, 0u);

  profile.worker_speed_factors = {1.0, 3.0};  // worker 1 is a straggler
  const double straggled = profile.SuperstepSeconds(counters, 0, &critical);
  EXPECT_EQ(critical, 1u);
  EXPECT_GT(straggled, homogeneous);
}

TEST(ScenarioTest, StragglerScenarioSlowsEverySuperstep) {
  const Graph g =
      GeneratePreferentialAttachment({3000, 5, 0.3, 21}).MoveValue();
  const ClusterScenario base = FindScenario("giraph-29").MoveValue();
  const ClusterScenario hetero = FindScenario("hetero-straggler").MoveValue();

  auto run = [&](const ClusterScenario& scenario) {
    bsp::EngineOptions options = scenario.ToEngineOptions(0);
    options.memory_budget_bytes = 0;
    return RunPageRank(g, {{"tau", 1e-4}}, options).MoveValue();
  };
  const PageRankResult uniform = run(base);
  const PageRankResult straggled = run(hetero);
  ASSERT_EQ(uniform.stats.num_supersteps(), straggled.stats.num_supersteps());
  for (int s = 0; s < uniform.stats.num_supersteps(); ++s) {
    EXPECT_GE(straggled.stats.supersteps[s].simulated_seconds,
              uniform.stats.supersteps[s].simulated_seconds)
        << "superstep " << s;
  }
  EXPECT_GT(straggled.stats.superstep_phase_seconds,
            uniform.stats.superstep_phase_seconds);
}

TEST(ScenarioTest, ProfileArtifactsRecordTheirDeployment) {
  pipeline::SampleStage sample_stage{SamplerOptions{}};
  auto sample = sample_stage.Run(WhatIfGraph());
  ASSERT_TRUE(sample.ok());
  pipeline::TransformStage transform_stage;
  auto transform = transform_stage.Run("connected_components", {},
                                       sample->realized_ratio());
  ASSERT_TRUE(transform.ok());

  const ClusterScenario ten = FindScenario("giraph-10").MoveValue();
  pipeline::ProfileStage profile_stage(PaperClusterOptions());
  auto default_profile =
      profile_stage.Run("connected_components", "wiki", *sample, *transform);
  auto scenario_profile = profile_stage.RunWithEngine(
      "connected_components", "wiki", *sample, *transform,
      ten.ToEngineOptions(0));
  ASSERT_TRUE(default_profile.ok());
  ASSERT_TRUE(scenario_profile.ok());
  // Each artifact carries the canonical key of the deployment that
  // measured it — the same identity the service caches under.
  EXPECT_EQ(default_profile->scenario_key,
            EngineOptionsKey(PaperClusterOptions()));
  EXPECT_EQ(scenario_profile->scenario_key, ScenarioKey(ten));
  EXPECT_NE(default_profile->scenario_key, scenario_profile->scenario_key);
}

// ------------------------------------------------ Predictor what-if API

TEST(WhatIfTest, FannedOutSweepIsBitIdenticalToSequential) {
  const std::vector<ClusterScenario>& scenarios = BuiltinScenarios();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 42;
  Predictor predictor(options);

  const AlgorithmConfig config = {
      {"tau", 0.001 / static_cast<double>(WhatIfGraph().num_vertices())}};
  const auto sequential = predictor.PredictAcrossScenarios(
      "pagerank", WhatIfGraph(), "wiki", config, scenarios);

  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &WhatIfGraph();
  request.dataset = "wiki";
  request.overrides = config;
  for (const int threads : {1, 2, 8}) {
    PredictionService service({options, threads});
    const auto fanned = service.PredictScenarios(request, scenarios);
    ASSERT_EQ(fanned.size(), sequential.size());
    for (size_t i = 0; i < fanned.size(); ++i) {
      SCOPED_TRACE(scenarios[i].name + " threads=" + std::to_string(threads));
      EXPECT_EQ(DeterministicContent(fanned[i]),
                DeterministicContent(sequential[i]));
    }
  }
}

TEST(WhatIfTest, EmptySweepDrawsNoSample) {
  const Graph g =
      GeneratePreferentialAttachment({2000, 6, 0.3, 91}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  const uint64_t scans = Graph::FingerprintComputationsForTest();
  const auto reports = Predictor(options).PredictAcrossScenarios(
      "pagerank", g, "g", {}, {});
  EXPECT_TRUE(reports.empty());
  // Sampling would have hashed the graph for the sample's cache key.
  EXPECT_EQ(Graph::FingerprintComputationsForTest(), scans);
}

TEST(WhatIfTest, ReportsCarryTheScenarioAndDiffer) {
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 42;
  Predictor predictor(options);
  const std::vector<ClusterScenario>& scenarios = BuiltinScenarios();
  const auto reports = predictor.PredictAcrossScenarios(
      "connected_components", WhatIfGraph(), "wiki", {}, scenarios);
  ASSERT_EQ(reports.size(), scenarios.size());
  std::set<double> predictions;
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].ok()) << scenarios[i].name;
    EXPECT_EQ(reports[i]->scenario, scenarios[i].name);
    predictions.insert(reports[i]->predicted_superstep_seconds);
  }
  // The deployments genuinely differ, so must the predictions (the two
  // 29-worker homogeneous variants could only collide if the partition
  // strategy had no effect on the critical path).
  EXPECT_GE(predictions.size(), 4u);
}

// History rows carry no deployment identity: they were observed on the
// baseline deployment (assumption iii), and the paper re-trains its
// cost model per cluster. A what-if sweep must therefore fit history
// only into the scenario matching the baseline engine.
TEST(WhatIfTest, HistoryOnlyTrainsTheBaselineScenario) {
  const Graph& g = WhatIfGraph();
  const AlgorithmConfig config = {{"tau", 0.001}};

  // An actual run on another dataset, with runtimes distorted so hard
  // that any fit including these rows must differ from one without.
  const Graph other = MakeDataset("uk", 0.06).MoveValue();
  RunOptions run;
  run.engine = PaperClusterOptions();
  run.config_overrides = config;
  auto other_run = RunAlgorithmByName("topk_ranking", other, run);
  ASSERT_TRUE(other_run.ok());
  RunProfile distorted = ProfileFromRunStats(
      "topk_ranking", "uk", other.num_vertices(), other.num_edges(),
      other_run->stats);
  for (IterationProfile& it : distorted.iterations) {
    it.runtime_seconds *= 1000.0;
  }
  HistoryStore history;
  history.Add(distorted);

  PredictorOptions base_options;
  base_options.sampler.sampling_ratio = 0.1;
  base_options.sampler.seed = 42;
  base_options.engine = PaperClusterOptions();
  PredictorOptions with_history_options = base_options;
  with_history_options.history = &history;

  const std::vector<ClusterScenario> scenarios = {
      FindScenario("giraph-29").MoveValue(),  // == the baseline engine
      FindScenario("giraph-10").MoveValue(),  // a different deployment
  };
  const auto with = Predictor(with_history_options)
                        .PredictAcrossScenarios("topk_ranking", g, "wiki",
                                                config, scenarios);
  const auto without = Predictor(base_options)
                           .PredictAcrossScenarios("topk_ranking", g, "wiki",
                                                   config, scenarios);
  ASSERT_TRUE(with[0].ok() && with[1].ok());
  ASSERT_TRUE(without[0].ok() && without[1].ok());

  // Baseline scenario: the distorted history must have moved the fit.
  EXPECT_NE(with[0]->predicted_superstep_seconds,
            without[0]->predicted_superstep_seconds);
  // Foreign deployment: history is excluded, reports are bit-identical.
  EXPECT_EQ(DeterministicContent(with[1]), DeterministicContent(without[1]));

  // Same rule through the service: a scenario request against a
  // history-configured service matches a history-free service when the
  // scenario is not the configured deployment.
  PredictionServiceOptions service_options;
  service_options.predictor = with_history_options;
  service_options.predictor.engine.num_threads = 0;
  service_options.num_threads = 0;
  PredictionService with_history_service(service_options);
  service_options.predictor.history = nullptr;
  PredictionService history_free_service(service_options);

  PredictionRequest request;
  request.algorithm = "topk_ranking";
  request.graph = &g;
  request.dataset = "wiki";
  request.overrides = config;
  request.scenario = scenarios[1];
  auto service_with = with_history_service.Predict(request);
  auto service_without = history_free_service.Predict(request);
  ASSERT_TRUE(service_with.ok() && service_without.ok());
  EXPECT_EQ(DeterministicContent(service_with),
            DeterministicContent(service_without));
}

// ------------------------------------------- PredictionService scenarios

PredictionServiceOptions ServiceOptions(int num_threads = 0) {
  PredictionServiceOptions options;
  options.predictor.sampler.sampling_ratio = 0.1;
  options.predictor.sampler.seed = 42;
  options.predictor.engine.num_threads = 0;
  options.num_threads = num_threads;
  return options;
}

PredictionRequest WikiRequest() {
  PredictionRequest request;
  request.algorithm = "connected_components";
  request.graph = &WhatIfGraph();
  request.dataset = "wiki";
  return request;
}

TEST(ScenarioServiceTest, ProfileCacheNeverServesAcrossScenarios) {
  PredictionService service(ServiceOptions());
  PredictionRequest request = WikiRequest();

  request.scenario = FindScenario("giraph-29").MoveValue();
  ASSERT_TRUE(service.Predict(request).ok());
  ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 0u);

  // Same request, same scenario: warm.
  ASSERT_TRUE(service.Predict(request).ok());
  stats = service.cache_stats();
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 1u);

  // Same request under another scenario: the warmed profile must NOT be
  // served — a miss, not a wrong hit.
  request.scenario = FindScenario("giraph-10").MoveValue();
  auto other = service.Predict(request);
  ASSERT_TRUE(other.ok());
  stats = service.cache_stats();
  EXPECT_EQ(stats.profile_misses, 2u);
  EXPECT_EQ(stats.profile_hits, 1u);
  // The sample is deployment-independent and stays shared.
  EXPECT_EQ(stats.sample_misses, 1u);
  EXPECT_EQ(stats.sample_hits, 2u);

  // And the two scenarios' profiles are genuinely different artifacts.
  request.scenario = FindScenario("giraph-29").MoveValue();
  auto original = service.Predict(request);
  ASSERT_TRUE(original.ok());
  EXPECT_NE(original->predicted_superstep_seconds,
            other->predicted_superstep_seconds);
}

TEST(ScenarioServiceTest, ScenarioRequestMatchesUnsetRequestForSameEngine) {
  // A request with scenario == the service's own engine configuration
  // must share the cache slot with scenario-less requests (the key is
  // the canonical engine key, not the optional's presence).
  PredictionServiceOptions options = ServiceOptions();
  const ClusterScenario paper = FindScenario("giraph-29").MoveValue();
  options.predictor.engine = paper.ToEngineOptions(0);
  PredictionService service(options);

  PredictionRequest request = WikiRequest();
  ASSERT_TRUE(service.Predict(request).ok());
  request.scenario = paper;
  ASSERT_TRUE(service.Predict(request).ok());
  const ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 1u);
}

TEST(ScenarioServiceTest, PredictScenariosBitIdenticalToSequentialPredict) {
  const std::vector<ClusterScenario>& scenarios = BuiltinScenarios();

  // Sequential reference: a fresh cold service, one scenario at a time.
  PredictionService reference(ServiceOptions(0));
  std::vector<Result<PredictionReport>> expected;
  for (const ClusterScenario& scenario : scenarios) {
    PredictionRequest request = WikiRequest();
    request.scenario = scenario;
    expected.push_back(reference.Predict(request));
  }

  for (const int threads : {0, 2, 8}) {
    PredictionService service(ServiceOptions(threads));
    const auto results = service.PredictScenarios(WikiRequest(), scenarios);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(scenarios[i].name + " threads=" + std::to_string(threads));
      EXPECT_EQ(DeterministicContent(results[i]),
                DeterministicContent(expected[i]));
    }
    // One shared sample; one profile slot per scenario.
    const ServiceCacheStats stats = service.cache_stats();
    EXPECT_EQ(stats.sample_misses, 1u);
    EXPECT_EQ(stats.sample_hits, scenarios.size() - 1);
    EXPECT_EQ(stats.profile_misses, scenarios.size());
  }
}

// ------------------------------------------- the two sweep APIs agree

// Predictor's sweep and the service's are one request path, so they
// land on the same degradation rung with the same answer, whether every
// profile run succeeds or every one fails.
TEST(WhatIfTest, SweepMatchesPredictScenariosOnEveryRung) {
  // Actual runs at two worker counts: history enough for every rung.
  const Graph other =
      GeneratePreferentialAttachment({3000, 6, 0.3, 93}).MoveValue();
  HistoryStore history;
  for (const uint32_t workers : {4u, 8u}) {
    RunOptions run;
    run.engine.num_workers = workers;
    auto actual = RunAlgorithmByName("connected_components", other, run);
    ASSERT_TRUE(actual.ok());
    history.Add(ProfileFromRunStats("connected_components", "other",
                                    other.num_vertices(), other.num_edges(),
                                    actual->stats));
  }
  PredictionServiceOptions options = ServiceOptions();
  options.predictor.history = &history;
  options.predictor.robustness.degraded_fallbacks = true;
  const std::vector<ClusterScenario>& scenarios = BuiltinScenarios();

  for (const DegradationRung rung :
       {DegradationRung::kFull, DegradationRung::kHistoryOnly}) {
    SCOPED_TRACE(DegradationRungName(rung));
    if (rung == DegradationRung::kHistoryOnly) {
      ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
    }
    const auto swept = Predictor(options.predictor)
                           .PredictAcrossScenarios("connected_components",
                                                   WhatIfGraph(), "wiki", {},
                                                   scenarios);
    PredictionService service(options);
    const auto served = service.PredictScenarios(WikiRequest(), scenarios);
    fail::DisableAll();

    ASSERT_EQ(swept.size(), scenarios.size());
    ASSERT_EQ(served.size(), scenarios.size());
    for (size_t i = 0; i < scenarios.size(); ++i) {
      SCOPED_TRACE(scenarios[i].name);
      ASSERT_TRUE(swept[i].ok()) << swept[i].status().ToString();
      EXPECT_EQ(swept[i]->degradation.rung, rung);
      EXPECT_EQ(swept[i]->scenario, scenarios[i].name);
      EXPECT_EQ(DeterministicContent(swept[i]),
                DeterministicContent(served[i]));
    }
  }
}

}  // namespace
}  // namespace predict
