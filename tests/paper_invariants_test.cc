// Integration tests of the paper's headline claims, at reduced dataset
// scale. paper_panel's views sweep Figures 4-9 and check the claims that
// hold at every scale; these tests assert invariants of single requests
// at their own scale and budget — so a regression in any stage of the
// pipeline (sampling bias, transform rule, extrapolation, cost model)
// fails CI instead of silently bending a curve.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "core/cost_model.h"
#include "core/predictor.h"
#include "core/transform.h"
#include "datasets/datasets.h"

namespace predict {
namespace {

constexpr double kScale = 0.12;  // dataset scale for test speed

const Graph& TestDataset(const std::string& name) {
  static std::map<std::string, Graph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, MakeDataset(name, kScale).MoveValue()).first;
  }
  return it->second;
}

bsp::EngineOptions TestEngine() {
  bsp::EngineOptions options = PaperClusterOptions();
  options.memory_budget_bytes = 0;  // OOM behaviour is tested elsewhere
  return options;
}

PredictorOptions TestOptions(double ratio = 0.1) {
  PredictorOptions options;
  options.sampler.sampling_ratio = ratio;
  options.sampler.seed = 42;
  options.engine = TestEngine();
  return options;
}

AlgorithmConfig PrConfig(const Graph& g, double epsilon = 0.001) {
  return {{"tau", epsilon / static_cast<double>(g.num_vertices())}};
}

// §5.1 / Figure 4: on scale-free graphs the 10% sample run predicts the
// iteration count within a modest band; the non-power-law LJ stand-in
// over-predicts.
TEST(PaperInvariantsTest, ScaleFreeGraphsPredictPageRankIterations) {
  for (const std::string name : {"wiki", "uk", "tw"}) {
    const Graph& g = TestDataset(name);
    const AlgorithmConfig config = PrConfig(g);
    Predictor predictor(TestOptions());
    auto report = predictor.PredictRuntime("pagerank", g, name, config);
    ASSERT_TRUE(report.ok()) << name;
    RunOptions run;
    run.engine = TestEngine();
    run.config_overrides = config;
    auto actual = RunAlgorithmByName("pagerank", g, run);
    ASSERT_TRUE(actual.ok()) << name;
    const double error =
        EvaluatePrediction(*report, actual->stats).iterations_error;
    EXPECT_LE(std::abs(error), 0.6) << name;
  }
}

TEST(PaperInvariantsTest, LiveJournalStandInOverPredicts) {
  const Graph& g = TestDataset("lj");
  const AlgorithmConfig config = PrConfig(g);
  Predictor predictor(TestOptions());
  auto report = predictor.PredictRuntime("pagerank", g, "lj", config);
  ASSERT_TRUE(report.ok());
  RunOptions run;
  run.engine = TestEngine();
  run.config_overrides = config;
  auto actual = RunAlgorithmByName("pagerank", g, run);
  ASSERT_TRUE(actual.ok());
  // Footnote 7's structural problem shows as over-prediction: the
  // non-power-law graph's samples converge strictly slower.
  EXPECT_GT(report->predicted_iterations, actual->stats.num_supersteps());
}

// §3.2.2 / Figure 2: the transform function is necessary — with it,
// total iteration error across datasets is strictly smaller than with
// the identity transform.
TEST(PaperInvariantsTest, TransformBeatsIdentityAcrossDatasets) {
  const IdentityTransform identity;
  double with_transform_error = 0.0;
  double without_transform_error = 0.0;
  for (const std::string name : {"wiki", "uk", "tw"}) {
    const Graph& g = TestDataset(name);
    const AlgorithmConfig config = PrConfig(g);
    RunOptions run;
    run.engine = TestEngine();
    run.config_overrides = config;
    auto actual = RunAlgorithmByName("pagerank", g, run);
    ASSERT_TRUE(actual.ok());
    const double actual_iters = actual->stats.num_supersteps();

    auto scaled =
        Predictor(TestOptions()).PredictRuntime("pagerank", g, name, config);
    PredictorOptions options = TestOptions();
    options.transform = &identity;
    auto unscaled =
        Predictor(options).PredictRuntime("pagerank", g, name, config);
    ASSERT_TRUE(scaled.ok());
    ASSERT_TRUE(unscaled.ok());
    with_transform_error +=
        std::abs(scaled->predicted_iterations - actual_iters);
    without_transform_error +=
        std::abs(unscaled->predicted_iterations - actual_iters);
  }
  EXPECT_LT(with_transform_error, without_transform_error);
}

// §5.4 / Table 3: a 10% sample run is much cheaper than the actual run.
// At unit-test graph scale the fixed setup phase dominates both jobs, so
// the assertion targets the part that scales with the input: the
// superstep phase.
TEST(PaperInvariantsTest, SampleRunsAreMuchCheaperThanActualRuns) {
  const Graph& g = TestDataset("uk");
  for (const std::string algorithm :
       {"pagerank", "semiclustering", "topk_ranking"}) {
    AlgorithmConfig config;
    if (algorithm == "pagerank") {
      config = PrConfig(g);
    } else {
      config = {{"tau", 0.001}};
    }
    Predictor predictor(TestOptions());
    auto report = predictor.PredictRuntime(algorithm, g, "uk", config);
    ASSERT_TRUE(report.ok()) << algorithm;
    RunOptions run;
    run.engine = TestEngine();
    run.config_overrides = config;
    auto actual = RunAlgorithmByName(algorithm, g, run);
    ASSERT_TRUE(actual.ok()) << algorithm;
    EXPECT_LT(report->sample_profile.total_superstep_seconds(),
              0.6 * actual->stats.superstep_phase_seconds)
        << algorithm;
  }
}

// §5.4 / Table 3, across deployments: the overhead *shape* — sample runs
// dominated by the fixed per-job phases (setup/read/write), actual runs
// dominated by the superstep phase — is a property of the methodology,
// not of the default 29-worker cluster. It must hold for every worker
// count a scenario can configure, because the whatif API compares
// deployments through exactly these phase totals. (Run at a scale where
// the full job's superstep phase clears the fixed overhead even on 64
// workers; below that the shape degenerates for any predictor.)
TEST(PaperInvariantsTest, Table3ShapeHoldsAcrossWorkerCounts) {
  const Graph g = MakeDataset("uk", 0.3).MoveValue();
  const AlgorithmConfig config = PrConfig(g);
  for (const uint32_t workers : {10u, 29u, 64u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    bsp::ClusterScenario scenario;
    scenario.num_workers = workers;
    scenario.max_supersteps = 60;
    scenario.memory_budget_bytes = 0;

    PredictorOptions options;
    options.sampler.sampling_ratio = 0.1;
    options.sampler.seed = 42;
    options.engine = scenario.ToEngineOptions();
    Predictor predictor(options);
    auto report = predictor.PredictRuntime("pagerank", g, "uk", config);
    ASSERT_TRUE(report.ok());
    // Sample run: the fixed phases dominate its own superstep phase.
    const double sample_supersteps =
        report->sample_profile.total_superstep_seconds();
    const double sample_overhead =
        report->sample_total_seconds - sample_supersteps;
    EXPECT_GT(sample_overhead, sample_supersteps);

    RunOptions run;
    run.engine = options.engine;
    run.config_overrides = config;
    auto actual = RunAlgorithmByName("pagerank", g, run);
    ASSERT_TRUE(actual.ok());
    // Actual run: the superstep phase dominates the fixed phases.
    const bsp::RunStats& stats = actual->stats;
    const double actual_overhead =
        stats.setup_seconds + stats.read_seconds + stats.write_seconds;
    EXPECT_GT(stats.superstep_phase_seconds, actual_overhead);
    // And the sample run stays far cheaper than the job it predicts.
    EXPECT_LT(report->sample_total_seconds, 0.75 * stats.total_seconds);
  }
}

// §3.4 "Training Methodology": cost factors are dataset-independent, so
// a model trained on one dataset's actual run prices another dataset's
// iterations correctly.
TEST(PaperInvariantsTest, CostModelTransfersAcrossDatasets) {
  const AlgorithmConfig config = {{"tau", 0.001}};
  RunOptions run;
  run.engine = TestEngine();
  run.config_overrides = config;

  auto uk_run = RunAlgorithmByName("topk_ranking", TestDataset("uk"), run);
  auto wiki_run = RunAlgorithmByName("topk_ranking", TestDataset("wiki"), run);
  ASSERT_TRUE(uk_run.ok());
  ASSERT_TRUE(wiki_run.ok());

  const RunProfile uk_profile = ProfileFromRunStats(
      "topk_ranking", "uk", TestDataset("uk").num_vertices(),
      TestDataset("uk").num_edges(), uk_run->stats);
  auto model = CostModel::Train(TrainingRowsFromProfile(uk_profile));
  ASSERT_TRUE(model.ok());

  // Price wiki's iterations with the uk-trained model.
  const RunProfile wiki_profile = ProfileFromRunStats(
      "topk_ranking", "wiki", TestDataset("wiki").num_vertices(),
      TestDataset("wiki").num_edges(), wiki_run->stats);
  double predicted_total = 0.0;
  for (const IterationProfile& it : wiki_profile.iterations) {
    predicted_total += model->PredictIterationSeconds(it.critical_features);
  }
  const double actual_total = wiki_run->stats.superstep_phase_seconds;
  EXPECT_NEAR(predicted_total, actual_total, 0.4 * actual_total);
}

// §5.2: adding history of actual runs never degrades the training fit.
TEST(PaperInvariantsTest, HistoryNeverDegradesFit) {
  const Graph& g = TestDataset("uk");
  const AlgorithmConfig config = {{"tau", 0.001}};
  RunOptions run;
  run.engine = TestEngine();
  run.config_overrides = config;
  auto wiki_run = RunAlgorithmByName("topk_ranking", TestDataset("wiki"), run);
  ASSERT_TRUE(wiki_run.ok());
  HistoryStore history;
  history.Add(ProfileFromRunStats("topk_ranking", "wiki",
                                  TestDataset("wiki").num_vertices(),
                                  TestDataset("wiki").num_edges(),
                                  wiki_run->stats));

  auto without =
      Predictor(TestOptions()).PredictRuntime("topk_ranking", g, "uk", config);
  PredictorOptions with_options = TestOptions();
  with_options.history = &history;
  auto with =
      Predictor(with_options).PredictRuntime("topk_ranking", g, "uk", config);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_GE(with->cost_model.r_squared() + 0.1,
            without->cost_model.r_squared());
}

}  // namespace
}  // namespace predict
