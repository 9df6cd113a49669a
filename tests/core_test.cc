// Tests for core/: regression + forward selection, transform rules,
// extrapolation, the cost model, the history store, and analytical
// bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "common/rng.h"

#include "algorithms/pagerank.h"
#include "algorithms/semiclustering.h"
#include "algorithms/topk_ranking.h"
#include "core/bounds.h"
#include "core/cost_model.h"
#include "core/extrapolator.h"
#include "core/features.h"
#include "core/history.h"
#include "core/regression.h"
#include "core/transform.h"
#include "graph/generators.h"

namespace predict {
namespace {

// -------------------------------------------------------------- regression

TEST(RegressionTest, ExactRecoveryOfLinearData) {
  // y = 3*x0 - 2*x2 + 5, no noise.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    const double x0 = i, x1 = (i * 7) % 13, x2 = (i * 3) % 11;
    rows.push_back({x0, x1, x2});
    y.push_back(3.0 * x0 - 2.0 * x2 + 5.0);
  }
  auto model = FitOls(rows, y, {0, 1, 2});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients[0], 3.0, 1e-6);
  EXPECT_NEAR(model->coefficients[1], 0.0, 1e-6);
  EXPECT_NEAR(model->coefficients[2], -2.0, 1e-6);
  EXPECT_NEAR(model->intercept, 5.0, 1e-6);
  EXPECT_NEAR(model->r_squared, 1.0, 1e-9);
}

TEST(RegressionTest, PredictUsesSelectedIndicesOnly) {
  LinearModel model;
  model.feature_indices = {2};
  model.coefficients = {10.0};
  model.intercept = 1.0;
  EXPECT_DOUBLE_EQ(model.Predict({100.0, 200.0, 3.0}), 31.0);
}

TEST(RegressionTest, HandlesBadlyScaledFeatures) {
  // Byte counts ~1e8 next to an intercept: needs column scaling.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 1; i <= 20; ++i) {
    const double bytes = 1e8 * i;
    rows.push_back({bytes});
    y.push_back(9e-8 * bytes + 0.25);
  }
  auto model = FitOls(rows, y, {0});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients[0], 9e-8, 1e-12);
  EXPECT_NEAR(model->intercept, 0.25, 1e-6);
}

TEST(RegressionTest, CollinearFeaturesStillSolvable) {
  // x1 = 2*x0 exactly; ridge keeps the system solvable.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 1; i <= 20; ++i) {
    rows.push_back({static_cast<double>(i), 2.0 * i});
    y.push_back(4.0 * i);
  }
  auto model = FitOls(rows, y, {0, 1});
  ASSERT_TRUE(model.ok());
  // Any split of the coefficient mass is fine; predictions must be right.
  EXPECT_NEAR(model->Predict({10.0, 20.0}), 40.0, 1e-3);
}

TEST(RegressionTest, ErrorsOnEmptyInput) {
  EXPECT_FALSE(FitOls({}, {}, {0}).ok());
  std::vector<std::vector<double>> rows = {{1.0}};
  EXPECT_FALSE(FitOls(rows, {}, {0}).ok());
  EXPECT_TRUE(FitOls(rows, {1.0}, {5}).status().IsOutOfRange());
}

TEST(RegressionTest, InterceptOnlyFitsMean) {
  std::vector<std::vector<double>> rows = {{1.0}, {2.0}, {3.0}};
  std::vector<double> y = {10.0, 20.0, 30.0};
  auto model = FitOls(rows, y, {});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->intercept, 20.0, 1e-9);
}

TEST(RegressionTest, ToStringShowsFeatureNames) {
  LinearModel model;
  model.feature_indices = {1};
  model.coefficients = {2.5};
  model.intercept = 0.1;
  model.r_squared = 0.9;
  const std::string s = model.ToString({"a", "RemBytes"});
  EXPECT_NE(s.find("RemBytes"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(ForwardSelectTest, PicksTheTrueFeatures) {
  // y depends on features 1 and 3 out of 5 candidates.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row(5);
    for (auto& x : row) x = rng.NextDouble() * 100.0;
    rows.push_back(row);
    y.push_back(7.0 * row[1] - 3.0 * row[3] + 2.0);
  }
  auto model = ForwardSelect(rows, y, 5);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->feature_indices.size(), 2u);
  const std::set<int> selected(model->feature_indices.begin(),
                               model->feature_indices.end());
  EXPECT_TRUE(selected.count(1));
  EXPECT_TRUE(selected.count(3));
  EXPECT_NEAR(model->r_squared, 1.0, 1e-9);
}

TEST(ForwardSelectTest, StopsAtMaxFeatures) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row(6);
    for (auto& x : row) x = rng.NextDouble();
    rows.push_back(row);
    // All six features matter a bit.
    double target = 0.0;
    for (int j = 0; j < 6; ++j) target += (j + 1) * row[j];
    y.push_back(target);
  }
  ForwardSelectionOptions options;
  options.max_features = 2;
  auto model = ForwardSelect(rows, y, 6, options);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->feature_indices.size(), 2u);
}

TEST(ForwardSelectTest, PureNoiseSelectsNothing) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 80; ++i) {
    rows.push_back({rng.NextDouble(), rng.NextDouble()});
    y.push_back(5.0);  // constant target
  }
  auto model = ForwardSelect(rows, y, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->feature_indices.empty());
  EXPECT_NEAR(model->intercept, 5.0, 1e-9);
}

TEST(RSquaredTest, PerfectAndMeanPredictions) {
  EXPECT_DOUBLE_EQ(RSquared({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_NEAR(RSquared({2, 2, 2}, {1, 2, 3}), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(RSquared({1, 2}, {1, 2, 3}), 0.0);  // size mismatch
}

// -------------------------------------------------------------- transform

TEST(TransformTest, AbsoluteAggregateScalesTau) {
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 1e-8}};
  auto sample = DefaultTransform::Instance().Apply(PageRankSpec(), config, 0.1);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 1e-7);        // tau / sr
  EXPECT_DOUBLE_EQ(sample->at("damping"), 0.85);    // ID_Conf
}

TEST(TransformTest, RelativeRatioKeepsTau) {
  const AlgorithmConfig config =
      ResolveConfig(SemiClusteringSpec(), {}).MoveValue();
  auto sample =
      DefaultTransform::Instance().Apply(SemiClusteringSpec(), config, 0.1);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), config.at("tau"));
  EXPECT_DOUBLE_EQ(sample->at("v_max"), config.at("v_max"));
}

TEST(TransformTest, FullRatioIsIdentityEvenForAbsolute) {
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 1e-8}};
  auto sample = DefaultTransform::Instance().Apply(PageRankSpec(), config, 1.0);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 1e-8);
}

TEST(TransformTest, RejectsBadRatio) {
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 1e-8}};
  EXPECT_FALSE(DefaultTransform::Instance().Apply(PageRankSpec(), config, 0.0).ok());
  EXPECT_FALSE(DefaultTransform::Instance().Apply(PageRankSpec(), config, 1.5).ok());
}

TEST(TransformTest, MissingConvergenceKeyIsError) {
  AlgorithmSpec spec = PageRankSpec();
  spec.convergence_keys = {"not_there"};
  const AlgorithmConfig config = {{"damping", 0.85}};
  EXPECT_TRUE(DefaultTransform::Instance()
                  .Apply(spec, config, 0.1)
                  .status()
                  .IsInvalidArgument());
}

TEST(TransformTest, IdentityTransformNeverScales) {
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 1e-8}};
  auto sample = IdentityTransform::Instance().Apply(PageRankSpec(), config, 0.1);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 1e-8);
}

TEST(TransformTest, DescribeStringsMentionRule) {
  EXPECT_NE(DefaultTransform::Instance().Describe(PageRankSpec()).find("/ sr"),
            std::string::npos);
  EXPECT_NE(DefaultTransform::Instance()
                .Describe(SemiClusteringSpec())
                .find("tau_S = tau_G"),
            std::string::npos);
}

TEST(TransformTest, DispatcherUsesCustomWhenProvided) {
  const AlgorithmConfig config = {{"damping", 0.85}, {"tau", 1e-8}};
  const IdentityTransform identity;
  auto sample = TransformConfigForSample(PageRankSpec(), config, 0.1, &identity);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->at("tau"), 1e-8);  // not scaled
}

// ----------------------------------------------------------- extrapolator

TEST(ExtrapolatorTest, FactorsFromGraphSizes) {
  const Graph full = GenerateComplete(20).MoveValue();    // 380 edges
  const Graph sample = GenerateComplete(10).MoveValue();  // 90 edges
  auto factors = ComputeExtrapolationFactors(full, sample);
  ASSERT_TRUE(factors.ok());
  EXPECT_DOUBLE_EQ(factors->vertex_factor, 2.0);
  EXPECT_NEAR(factors->edge_factor, 380.0 / 90.0, 1e-12);
}

TEST(ExtrapolatorTest, EmptySampleRejected) {
  const Graph full = GenerateComplete(20).MoveValue();
  GraphBuilder b(3);
  const Graph no_edges = b.Build().MoveValue();
  EXPECT_FALSE(ComputeExtrapolationFactors(full, no_edges).ok());
}

TEST(ExtrapolatorTest, VertexFeaturesScaleByEv) {
  FeatureVector features{};
  features[static_cast<int>(Feature::kActVert)] = 10.0;
  features[static_cast<int>(Feature::kTotVert)] = 20.0;
  features[static_cast<int>(Feature::kRemMsg)] = 100.0;
  features[static_cast<int>(Feature::kRemMsgSize)] = 1000.0;
  features[static_cast<int>(Feature::kAvgMsgSize)] = 10.0;
  const ExtrapolationFactors factors{3.0, 5.0};
  const FeatureVector scaled = ExtrapolateFeatures(features, factors);
  EXPECT_DOUBLE_EQ(scaled[static_cast<int>(Feature::kActVert)], 30.0);
  EXPECT_DOUBLE_EQ(scaled[static_cast<int>(Feature::kTotVert)], 60.0);
  EXPECT_DOUBLE_EQ(scaled[static_cast<int>(Feature::kRemMsg)], 500.0);
  EXPECT_DOUBLE_EQ(scaled[static_cast<int>(Feature::kRemMsgSize)], 5000.0);
  // AvgMsgSize must NOT scale (Table 1).
  EXPECT_DOUBLE_EQ(scaled[static_cast<int>(Feature::kAvgMsgSize)], 10.0);
}

TEST(ExtrapolatorTest, ProfileScalesIterationByIteration) {
  RunProfile profile;
  profile.num_vertices = 10;
  profile.num_edges = 20;
  for (int i = 0; i < 3; ++i) {
    IterationProfile it;
    it.iteration = i;
    it.critical_features[static_cast<int>(Feature::kRemMsg)] = 10.0 * (i + 1);
    it.runtime_seconds = 1.0;
    profile.iterations.push_back(it);
  }
  const RunProfile scaled = ExtrapolateProfile(profile, {2.0, 4.0});
  ASSERT_EQ(scaled.iterations.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(
        scaled.iterations[i].critical_features[static_cast<int>(Feature::kRemMsg)],
        40.0 * (i + 1));
    EXPECT_DOUBLE_EQ(scaled.iterations[i].runtime_seconds, 0.0);
  }
  EXPECT_EQ(scaled.num_vertices, 20u);
  EXPECT_EQ(scaled.num_edges, 80u);
}

// --------------------------------------------------------------- features

TEST(FeaturesTest, FromCountersMapsEveryField) {
  bsp::WorkerCounters counters;
  counters.active_vertices = 1;
  counters.total_vertices = 2;
  counters.local_messages = 3;
  counters.remote_messages = 4;
  counters.local_message_bytes = 30;
  counters.remote_message_bytes = 40;
  const FeatureVector f = FeaturesFromCounters(counters);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kActVert)], 1.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kTotVert)], 2.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kLocMsg)], 3.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kRemMsg)], 4.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kLocMsgSize)], 30.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kRemMsgSize)], 40.0);
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kAvgMsgSize)], 10.0);
}

TEST(FeaturesTest, FeatureNamesMatchTable1) {
  EXPECT_STREQ(FeatureName(Feature::kActVert), "ActVert");
  EXPECT_STREQ(FeatureName(Feature::kRemMsgSize), "RemMsgSize");
  EXPECT_STREQ(FeatureName(Feature::kAvgMsgSize), "AvgMsgSize");
}

TEST(FeaturesTest, ProfileFromRunStatsUsesCriticalWorker) {
  bsp::RunStats stats;
  stats.static_critical_worker = 1;
  bsp::SuperstepStats step;
  step.superstep = 0;
  step.per_worker.resize(2);
  step.per_worker[0].remote_messages = 5;
  step.per_worker[1].remote_messages = 77;
  step.simulated_seconds = 2.5;
  stats.supersteps.push_back(step);
  const RunProfile profile = ProfileFromRunStats("alg", "ds", 100, 200, stats);
  ASSERT_EQ(profile.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(
      profile.iterations[0].critical_features[static_cast<int>(Feature::kRemMsg)],
      77.0);
  EXPECT_DOUBLE_EQ(profile.iterations[0].runtime_seconds, 2.5);
  EXPECT_DOUBLE_EQ(profile.total_superstep_seconds(), 2.5);
}

// -------------------------------------------------------------- cost model

std::vector<TrainingRow> SyntheticCostRows(int n, uint64_t seed) {
  // Ground truth: runtime = 2e-6*RemMsg + 1e-7*RemMsgSize + 0.25.
  std::vector<TrainingRow> rows;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    TrainingRow row;
    const double rem_msgs = rng.NextDouble() * 1e6;
    const double rem_bytes = rem_msgs * (10.0 + rng.NextDouble() * 100.0);
    row.features[static_cast<int>(Feature::kActVert)] = rng.NextDouble() * 1e4;
    row.features[static_cast<int>(Feature::kRemMsg)] = rem_msgs;
    row.features[static_cast<int>(Feature::kRemMsgSize)] = rem_bytes;
    row.runtime_seconds = 2e-6 * rem_msgs + 1e-7 * rem_bytes + 0.25;
    rows.push_back(row);
  }
  return rows;
}

TEST(CostModelTest, RecoversGroundTruthCostFactors) {
  auto model = CostModel::Train(SyntheticCostRows(100, 3));
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->r_squared(), 0.999);
  // Both true features selected, the irrelevant one not.
  const auto selected = model->selected_features();
  const std::set<Feature> set(selected.begin(), selected.end());
  EXPECT_TRUE(set.count(Feature::kRemMsg));
  EXPECT_TRUE(set.count(Feature::kRemMsgSize));
  EXPECT_FALSE(set.count(Feature::kActVert));
}

TEST(CostModelTest, PredictionExtrapolatesBeyondTrainingRange) {
  auto model = CostModel::Train(SyntheticCostRows(100, 4));
  ASSERT_TRUE(model.ok());
  FeatureVector features{};
  features[static_cast<int>(Feature::kRemMsg)] = 1e8;    // 100x training max
  features[static_cast<int>(Feature::kRemMsgSize)] = 5e9;
  const double expected = 2e-6 * 1e8 + 1e-7 * 5e9 + 0.25;
  EXPECT_NEAR(model->PredictIterationSeconds(features), expected,
              expected * 0.02);
}

TEST(CostModelTest, NegativePredictionsClampedToZero) {
  std::vector<TrainingRow> rows;
  for (int i = 1; i <= 10; ++i) {
    TrainingRow row;
    row.features[0] = i;
    row.runtime_seconds = i - 5.0;  // intercept about -5
    rows.push_back(row);
  }
  CostModelOptions options;
  options.use_feature_selection = false;
  auto model = CostModel::Train(rows, options);
  ASSERT_TRUE(model.ok());
  FeatureVector zero{};
  EXPECT_GE(model->PredictIterationSeconds(zero), 0.0);
}

TEST(CostModelTest, NoSelectionUsesAllFeatures) {
  CostModelOptions options;
  options.use_feature_selection = false;
  auto model = CostModel::Train(SyntheticCostRows(50, 5), options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->model().feature_indices.size(),
            static_cast<size_t>(kNumFeatures));
}

TEST(CostModelTest, EmptyTrainingFails) {
  EXPECT_FALSE(CostModel::Train({}).ok());
}

TEST(CostModelTest, ToStringListsSelectedFeatureNames) {
  auto model = CostModel::Train(SyntheticCostRows(100, 6));
  ASSERT_TRUE(model.ok());
  EXPECT_NE(model->ToString().find("RemMsg"), std::string::npos);
}

TEST(CostModelTest, PredictProfileOneValuePerIteration) {
  auto model = CostModel::Train(SyntheticCostRows(50, 7));
  ASSERT_TRUE(model.ok());
  RunProfile profile;
  profile.iterations.resize(4);
  EXPECT_EQ(model->PredictProfile(profile).size(), 4u);
}

// ----------------------------------------------------------------- history

RunProfile MakeProfile(const std::string& algorithm, const std::string& dataset,
                       int iterations, double base_runtime) {
  RunProfile profile;
  profile.algorithm = algorithm;
  profile.dataset = dataset;
  profile.num_vertices = 1000;
  profile.num_edges = 5000;
  for (int i = 0; i < iterations; ++i) {
    IterationProfile it;
    it.iteration = i;
    it.critical_features[static_cast<int>(Feature::kRemMsg)] = 100.0 * (i + 1);
    it.runtime_seconds = base_runtime * (i + 1);
    profile.iterations.push_back(it);
  }
  return profile;
}

TEST(HistoryTest, TrainingRowsFilterByAlgorithm) {
  HistoryStore store;
  store.Add(MakeProfile("pagerank", "lj", 3, 1.0));
  store.Add(MakeProfile("semiclustering", "lj", 2, 2.0));
  EXPECT_EQ(store.TrainingRowsFor("pagerank").size(), 3u);
  EXPECT_EQ(store.TrainingRowsFor("semiclustering").size(), 2u);
  EXPECT_EQ(store.TrainingRowsFor("unknown").size(), 0u);
}

TEST(HistoryTest, ExcludesNamedDataset) {
  HistoryStore store;
  store.Add(MakeProfile("pagerank", "lj", 3, 1.0));
  store.Add(MakeProfile("pagerank", "uk", 4, 1.0));
  EXPECT_EQ(store.TrainingRowsExcluding("pagerank", "lj").size(), 4u);
  EXPECT_EQ(store.TrainingRowsExcluding("pagerank", "uk").size(), 3u);
  EXPECT_EQ(store.TrainingRowsExcluding("pagerank", "").size(), 7u);
}

TEST(HistoryTest, CsvRoundTrip) {
  HistoryStore store;
  store.Add(MakeProfile("pagerank", "lj", 3, 1.5));
  store.Add(MakeProfile("topk_ranking", "uk", 2, 0.75));
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_history_test.csv")
          .string();
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = HistoryStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  const auto rows = loaded->TrainingRowsFor("pagerank");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[1].runtime_seconds, 3.0);
  EXPECT_DOUBLE_EQ(rows[1].features[static_cast<int>(Feature::kRemMsg)], 200.0);
  std::filesystem::remove(path);
}

TEST(HistoryTest, LoadMissingFileFails) {
  EXPECT_TRUE(
      HistoryStore::LoadFromFile("/no/such/file.csv").status().IsIOError());
}

// ------------------------------------------------------------------ bounds

TEST(BoundsTest, LangvilleMeyerFormulaValues) {
  // The paper (§5.1): eps=0.001, d=0.85 -> ~42 iterations.
  auto bound = PageRankIterationUpperBound(0.001, 0.85);
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(*bound, 42.5, 0.5);
  // eps = 0.1 -> ~14.
  EXPECT_NEAR(PageRankIterationUpperBound(0.1, 0.85).value(), 14.2, 0.5);
}

TEST(BoundsTest, RejectsOutOfRangeParameters) {
  EXPECT_FALSE(PageRankIterationUpperBound(0.0, 0.85).ok());
  EXPECT_FALSE(PageRankIterationUpperBound(1.5, 0.85).ok());
  EXPECT_FALSE(PageRankIterationUpperBound(0.01, 0.0).ok());
  EXPECT_FALSE(PageRankIterationUpperBound(0.01, 1.0).ok());
}

}  // namespace
}  // namespace predict
