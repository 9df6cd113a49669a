// End-to-end tests of the Predictor (Figure 1 pipeline) and the SLA
// feasibility layer, on generated scale-free graphs.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/runner.h"
#include "core/predictor.h"
#include "core/sla.h"
#include "graph/generators.h"

namespace predict {
namespace {

Graph TestGraph(VertexId n = 20000, uint64_t seed = 77) {
  return GeneratePreferentialAttachment({n, 8, 0.3, seed}).MoveValue();
}

bsp::EngineOptions TestEngine() {
  bsp::EngineOptions options;
  options.num_workers = 8;
  options.cost_profile.setup_seconds = 2.0;
  options.max_supersteps = 100;
  return options;
}

PredictorOptions TestOptions(double ratio = 0.1) {
  PredictorOptions options;
  options.sampler.sampling_ratio = ratio;
  options.sampler.seed = 5;
  options.engine = TestEngine();
  return options;
}

double PageRankTau(const Graph& g, double epsilon = 0.001) {
  return epsilon / static_cast<double>(g.num_vertices());
}

// -------------------------------------------------------------- happy path

TEST(PredictorTest, PageRankIterationsWithinPaperErrorBand) {
  const Graph g = TestGraph();
  Predictor predictor(TestOptions());
  const AlgorithmConfig config = {{"tau", PageRankTau(g)}};
  auto report = predictor.PredictRuntime("pagerank", g, "test", config);
  ASSERT_TRUE(report.ok());

  RunOptions run_options;
  run_options.engine = TestEngine();
  run_options.config_overrides = config;
  auto actual = RunAlgorithmByName("pagerank", g, run_options);
  ASSERT_TRUE(actual.ok());

  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  // The paper reports <=20% iteration error at 10% sampling for
  // scale-free graphs; allow some slack for the small synthetic graph.
  EXPECT_LE(std::abs(eval.iterations_error), 0.35)
      << "predicted " << report->predicted_iterations << " actual "
      << eval.actual_iterations;
}

TEST(PredictorTest, TopKRuntimeWithinPaperErrorBand) {
  const Graph g = TestGraph(20000, 78);
  Predictor predictor(TestOptions());
  auto report = predictor.PredictRuntime("topk_ranking", g, "test", {});
  ASSERT_TRUE(report.ok());

  RunOptions run_options;
  run_options.engine = TestEngine();
  auto actual = RunAlgorithmByName("topk_ranking", g, run_options);
  ASSERT_TRUE(actual.ok());

  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  EXPECT_LE(std::abs(eval.runtime_error), 0.6)
      << "predicted " << report->predicted_superstep_seconds << " actual "
      << eval.actual_superstep_seconds;
}

TEST(PredictorTest, ReportFieldsPopulated) {
  const Graph g = TestGraph();
  Predictor predictor(TestOptions());
  auto report =
      predictor.PredictRuntime("pagerank", g, "ds", {{"tau", PageRankTau(g)}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "pagerank");
  EXPECT_EQ(report->dataset, "ds");
  EXPECT_GT(report->predicted_iterations, 0);
  EXPECT_EQ(report->per_iteration_seconds.size(),
            static_cast<size_t>(report->predicted_iterations));
  EXPECT_GT(report->predicted_superstep_seconds, 0.0);
  EXPECT_NEAR(report->realized_sampling_ratio, 0.1, 0.01);
  EXPECT_GT(report->factors.vertex_factor, 5.0);
  EXPECT_GT(report->factors.edge_factor, 1.0);
  EXPECT_GT(report->sample_total_seconds, 0.0);
  EXPECT_EQ(report->sample_profile.num_iterations(),
            report->predicted_iterations);
  EXPECT_NE(report->transform_description.find("tau_S = tau_G / sr"),
            std::string::npos);
  // The sample run's tau was scaled by 1/sr.
  EXPECT_NEAR(report->sample_config.at("tau"),
              PageRankTau(g) / report->realized_sampling_ratio,
              PageRankTau(g) * 0.2);
}

TEST(PredictorTest, PredictedSuperstepSecondsIsSumOfIterations) {
  const Graph g = TestGraph();
  Predictor predictor(TestOptions());
  auto report =
      predictor.PredictRuntime("pagerank", g, "", {{"tau", PageRankTau(g)}});
  ASSERT_TRUE(report.ok());
  double sum = 0.0;
  for (const double s : report->per_iteration_seconds) sum += s;
  EXPECT_DOUBLE_EQ(report->predicted_superstep_seconds, sum);
}

TEST(PredictorTest, DeterministicForFixedSeeds) {
  const Graph g = TestGraph();
  Predictor predictor(TestOptions());
  const AlgorithmConfig config = {{"tau", PageRankTau(g)}};
  auto a = predictor.PredictRuntime("pagerank", g, "", config);
  auto b = predictor.PredictRuntime("pagerank", g, "", config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->predicted_iterations, b->predicted_iterations);
  EXPECT_DOUBLE_EQ(a->predicted_superstep_seconds,
                   b->predicted_superstep_seconds);
}

// ------------------------------------------------------- transform ablation

TEST(PredictorTest, TransformAblationChangesIterations) {
  // Figure 2's lesson: without tau scaling, the sample run keeps
  // iterating past the point where the actual run would have converged,
  // over-predicting iterations. With the default rule the counts align.
  const Graph g = TestGraph(30000, 80);
  const AlgorithmConfig config = {{"tau", PageRankTau(g)}};

  PredictorOptions with_transform = TestOptions();
  PredictorOptions without_transform = TestOptions();
  const IdentityTransform identity;
  without_transform.transform = &identity;

  auto scaled = Predictor(with_transform).PredictRuntime("pagerank", g, "", config);
  auto unscaled =
      Predictor(without_transform).PredictRuntime("pagerank", g, "", config);
  ASSERT_TRUE(scaled.ok());
  ASSERT_TRUE(unscaled.ok());
  EXPECT_GT(unscaled->predicted_iterations, scaled->predicted_iterations);
}

// ------------------------------------------------------------------ history

TEST(PredictorTest, HistoryImprovesCostModelFit) {
  const Graph g = TestGraph(20000, 81);
  // Build history from an actual run on a *different* dataset.
  const Graph other = TestGraph(15000, 99);
  RunOptions run_options;
  run_options.engine = TestEngine();
  auto other_run = RunAlgorithmByName("topk_ranking", other, run_options);
  ASSERT_TRUE(other_run.ok());
  HistoryStore history;
  history.Add(ProfileFromRunStats("topk_ranking", "other",
                                  other.num_vertices(), other.num_edges(),
                                  other_run->stats));

  PredictorOptions without = TestOptions();
  PredictorOptions with = TestOptions();
  with.history = &history;

  auto report_without =
      Predictor(without).PredictRuntime("topk_ranking", g, "test", {});
  auto report_with =
      Predictor(with).PredictRuntime("topk_ranking", g, "test", {});
  ASSERT_TRUE(report_without.ok());
  ASSERT_TRUE(report_with.ok());
  // With full-scale observations in training, R^2 should not degrade.
  EXPECT_GE(report_with->cost_model.r_squared() + 0.05,
            report_without->cost_model.r_squared());
}

TEST(PredictorTest, HistoryExcludesSameDataset) {
  const Graph g = TestGraph(15000, 82);
  HistoryStore history;
  RunProfile profile;
  profile.algorithm = "pagerank";
  profile.dataset = "mine";
  IterationProfile poisoned;
  poisoned.runtime_seconds = 1e9;  // absurd row that would wreck the fit
  profile.iterations.push_back(poisoned);
  history.Add(profile);

  PredictorOptions options = TestOptions();
  options.history = &history;
  auto report = Predictor(options).PredictRuntime("pagerank", g, "mine",
                                                  {{"tau", PageRankTau(g)}});
  ASSERT_TRUE(report.ok());
  // The poisoned same-dataset row must have been excluded.
  EXPECT_LT(report->predicted_superstep_seconds, 1e6);
}

TEST(PredictorTest, MultiConfigHistoryFitsTheCostModel) {
  const Graph g = TestGraph(20000, 81);
  // Actual runs of other datasets at three worker counts.
  HistoryStore history;
  size_t history_rows = 0;
  for (const uint32_t workers : {2u, 4u, 8u}) {
    const Graph other = TestGraph(5000, 90 + workers);
    RunOptions run_options;
    run_options.engine = TestEngine();
    run_options.engine.num_workers = workers;
    run_options.config_overrides = {{"tau", PageRankTau(other)}};
    auto run = RunAlgorithmByName("pagerank", other, run_options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    history.Add(ProfileFromRunStats("pagerank",
                                    "other_w" + std::to_string(workers),
                                    other.num_vertices(), other.num_edges(),
                                    run->stats));
    history_rows += run->stats.supersteps.size();
  }

  PredictorOptions options = TestOptions();
  options.history = &history;
  auto report = Predictor(options).PredictRuntime("pagerank", g, "test",
                                                  {{"tau", PageRankTau(g)}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // History spanning several worker counts still predicts through the
  // paper's cost model, trained on sample rows plus every history row.
  EXPECT_EQ(report->model_selection.tier, models::ModelTier::kPaper);
  EXPECT_EQ(report->model_selection.sample_rows,
            report->sample_profile.iterations.size());
  EXPECT_EQ(report->model_selection.history_rows, history_rows);
  EXPECT_EQ(report->runtime_model_description, report->cost_model.ToString());
  EXPECT_EQ(report->per_iteration_seconds,
            report->cost_model.PredictProfile(report->extrapolated_profile));
}

// ------------------------------------------------------------------ errors

TEST(PredictorTest, UnknownAlgorithmFails) {
  const Graph g = TestGraph(1000, 83);
  Predictor predictor(TestOptions());
  EXPECT_TRUE(
      predictor.PredictRuntime("kmeans", g, "", {}).status().IsNotFound());
}

TEST(PredictorTest, BadOverrideKeyFails) {
  const Graph g = TestGraph(1000, 84);
  Predictor predictor(TestOptions());
  EXPECT_TRUE(predictor.PredictRuntime("pagerank", g, "", {{"zzz", 1.0}})
                  .status()
                  .IsInvalidArgument());
}

TEST(PredictorTest, EmptyGraphFails) {
  GraphBuilder b(0);
  const Graph g = b.Build().MoveValue();
  Predictor predictor(TestOptions());
  EXPECT_FALSE(predictor.PredictRuntime("pagerank", g, "", {}).ok());
}

// --------------------------------------------------------------- evaluation

TEST(EvaluatePredictionTest, SignedErrorsComputed) {
  PredictionReport report;
  report.predicted_iterations = 12;
  report.predicted_superstep_seconds = 90.0;
  bsp::RunStats actual;
  actual.superstep_phase_seconds = 100.0;
  bsp::SuperstepStats step;
  step.per_worker.resize(1);
  step.per_worker[0].remote_message_bytes = 1000;
  for (int i = 0; i < 10; ++i) actual.supersteps.push_back(step);
  const PredictionEvaluation eval = EvaluatePrediction(report, actual);
  EXPECT_DOUBLE_EQ(eval.iterations_error, 0.2);   // 12 vs 10
  EXPECT_DOUBLE_EQ(eval.runtime_error, -0.1);     // 90 vs 100
  EXPECT_EQ(eval.actual_iterations, 10);
}

// --------------------------------------------------------------------- SLA

TEST(SlaTest, FeasibleAndInfeasibleJobs) {
  const Graph g = TestGraph(15000, 85);
  std::vector<JobRequest> jobs(2);
  jobs[0].job_name = "nightly-ranking";
  jobs[0].algorithm = "pagerank";
  jobs[0].graph = &g;
  jobs[0].dataset_name = "g";
  jobs[0].overrides = {{"tau", PageRankTau(g)}};
  jobs[0].deadline_seconds = 1e9;  // generous: feasible
  jobs[1] = jobs[0];
  jobs[1].job_name = "instant-ranking";
  jobs[1].deadline_seconds = 1e-9;  // impossible: infeasible

  auto report = AnalyzeFeasibility(jobs, TestOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->jobs.size(), 2u);
  EXPECT_TRUE(report->jobs[0].feasible);
  EXPECT_FALSE(report->jobs[1].feasible);
  EXPECT_FALSE(report->all_feasible);
  EXPECT_GT(report->jobs[0].headroom_seconds, 0.0);
  EXPECT_LT(report->jobs[1].headroom_seconds, 0.0);
  const std::string text = report->ToString();
  EXPECT_NE(text.find("VIOLATES"), std::string::npos);
  EXPECT_NE(text.find("INFEASIBLE"), std::string::npos);
}

TEST(SlaTest, ConfidenceOnlyTightensTheVerdict) {
  // The interval contract at the SLA layer: a job admitted at high
  // confidence is admitted by the point-estimate path too, never the
  // reverse — raising confidence can only flip feasible -> infeasible.
  const Graph g = TestGraph(15000, 85);
  JobRequest base;
  base.job_name = "ranking";
  base.algorithm = "pagerank";
  base.graph = &g;
  base.dataset_name = "g";
  base.overrides = {{"tau", PageRankTau(g)}};
  base.deadline_seconds = 1e9;

  std::vector<JobRequest> jobs(3, base);
  jobs[0].confidence = 0.5;
  jobs[1].confidence = 0.95;
  jobs[2].confidence = 0.99;

  // Straggler spread widens the interval above the point estimate.
  PredictorOptions options = TestOptions();
  options.engine.cost_profile.worker_speed_factors = {2.0, 1.5};

  auto report = AnalyzeFeasibility(jobs, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->jobs.size(), 3u);
  const JobFeasibility& point = report->jobs[0];
  EXPECT_DOUBLE_EQ(point.predicted_at_confidence_seconds,
                   point.predicted_seconds);
  double previous = point.predicted_at_confidence_seconds;
  for (size_t i = 1; i < report->jobs.size(); ++i) {
    const JobFeasibility& job = report->jobs[i];
    // All three predictions are the same run; only the checked bound moves.
    EXPECT_DOUBLE_EQ(job.predicted_seconds, point.predicted_seconds);
    EXPECT_GE(job.predicted_at_confidence_seconds, previous);
    previous = job.predicted_at_confidence_seconds;
    EXPECT_LE(job.headroom_seconds, point.headroom_seconds);
    // Admitted at confidence implies admitted at the point estimate.
    if (job.feasible) EXPECT_TRUE(point.feasible);
  }
  EXPECT_GT(report->jobs[2].predicted_at_confidence_seconds,
            point.predicted_seconds);

  // A deadline between the point estimate and the high-confidence bound
  // is exactly the case confidence checking exists for: the point path
  // admits, the 99% path must refuse.
  std::vector<JobRequest> tight(2, base);
  tight[0].confidence = 0.5;
  tight[1].confidence = 0.99;
  tight[0].deadline_seconds = tight[1].deadline_seconds =
      (point.predicted_at_confidence_seconds +
       report->jobs[2].predicted_at_confidence_seconds) /
      2.0;
  auto tight_report = AnalyzeFeasibility(tight, options);
  ASSERT_TRUE(tight_report.ok());
  EXPECT_TRUE(tight_report->jobs[0].feasible);
  EXPECT_FALSE(tight_report->jobs[1].feasible);
}

TEST(SlaTest, NullGraphRejected) {
  std::vector<JobRequest> jobs(1);
  jobs[0].job_name = "broken";
  jobs[0].algorithm = "pagerank";
  jobs[0].graph = nullptr;
  EXPECT_TRUE(
      AnalyzeFeasibility(jobs, TestOptions()).status().IsInvalidArgument());
}

}  // namespace
}  // namespace predict
