// Unit tests for the staged prediction pipeline: every stage exercised
// in isolation through its artifact types, with hand-built inputs where
// the stage's natural producer is not needed. No test here runs the full
// pipeline end to end (that is predictor_test.cc's job).

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "pipeline/artifacts.h"
#include "pipeline/stages.h"

namespace predict {
namespace {

using pipeline::ExtrapolateStage;
using pipeline::ExtrapolationArtifact;
using pipeline::FitStage;
using pipeline::ModelArtifact;
using pipeline::ProfileArtifact;
using pipeline::ProfileStage;
using pipeline::SampleArtifact;
using pipeline::SampleKey;
using pipeline::SampleStage;
using pipeline::TransformArtifact;
using pipeline::TransformStage;

Graph TestGraph(VertexId n = 4000, uint64_t seed = 77) {
  return GeneratePreferentialAttachment({n, 6, 0.3, seed}).MoveValue();
}

bsp::EngineOptions TestEngine() {
  bsp::EngineOptions options;
  options.num_workers = 4;
  options.num_threads = 0;
  return options;
}

// Builds a SampleArtifact by hand: the "sample" is the whole graph.
SampleArtifact WholeGraphSample(const Graph& graph) {
  SampleArtifact artifact;
  artifact.sample.subgraph = graph;
  artifact.sample.vertices.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    artifact.sample.vertices[v] = v;
  }
  artifact.sample.original_num_vertices = graph.num_vertices();
  artifact.sample.realized_ratio = 1.0;
  return artifact;
}

// Builds a TransformArtifact by hand with the given sample config (no
// TransformStage involved).
TransformArtifact HandTransform(const AlgorithmConfig& sample_config) {
  TransformArtifact artifact;
  artifact.sample_config = sample_config;
  artifact.description = "hand-built";
  return artifact;
}

// ------------------------------------------------------------ SampleStage

TEST(SampleStageTest, ProducesArtifactWithRealizedRatio) {
  const Graph g = TestGraph();
  SamplerOptions options;
  options.sampling_ratio = 0.1;
  options.seed = 5;
  const SampleStage stage(options);
  auto artifact = stage.Run(g);
  ASSERT_TRUE(artifact.ok());
  EXPECT_NEAR(artifact->realized_ratio(), 0.1, 0.01);
  EXPECT_EQ(artifact->sample.original_num_vertices, g.num_vertices());
  EXPECT_EQ(artifact->sample.subgraph.num_vertices(),
            artifact->sample.vertices.size());
}

TEST(SampleStageTest, DeterministicForFixedOptions) {
  const Graph g = TestGraph();
  SamplerOptions options;
  options.sampling_ratio = 0.1;
  options.seed = 5;
  const SampleStage stage(options);
  auto a = stage.Run(g);
  auto b = stage.Run(g);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sample.vertices, b->sample.vertices);
  EXPECT_EQ(a->sample.subgraph.Fingerprint(), b->sample.subgraph.Fingerprint());
  EXPECT_EQ(a->ContentKey(), b->ContentKey());
}

// A segmented stage and a graph version one edge insert away from the
// version it was first sampled on.
struct VersionPair {
  Graph parent;
  Graph child;
};

VersionPair OneInsertApart() {
  EvolvingGraph evolving(TestGraph());
  VersionPair pair{**evolving.Current(), Graph()};
  EXPECT_TRUE(evolving.Apply({EdgeDelta::Insert(3, 17)}).ok());
  pair.child = **evolving.Current();
  return pair;
}

SamplerOptions SegmentedStageOptions() {
  SamplerOptions options;
  options.sampling_ratio = 0.1;
  options.seed = 5;
  options.walk_segment_steps = 128;
  return options;
}

void ExpectSameArtifact(const SampleArtifact& a, const SampleArtifact& b) {
  EXPECT_EQ(a.ContentKey(), b.ContentKey());
  EXPECT_EQ(a.sample.vertices, b.sample.vertices);
}

TEST(SampleStageTest, RecordedAndIncrementalRunsMatchRun) {
  const VersionPair versions = OneInsertApart();
  const SampleStage stage(SegmentedStageOptions());

  SampleWalkRecord record;
  auto recorded = stage.RunRecorded(versions.parent, &record);
  auto plain = stage.Run(versions.parent);
  ASSERT_TRUE(recorded.ok());
  ASSERT_TRUE(plain.ok());
  ExpectSameArtifact(*recorded, *plain);

  ASSERT_NE(versions.child.lineage(), nullptr);
  SampleWalkRecord updated;
  SampleStage::IncrementalStats stats;
  auto incremental =
      stage.RunIncremental(versions.child, versions.child.lineage()->dirty,
                           record, &updated, &stats);
  auto cold = stage.Run(versions.child);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  ASSERT_TRUE(cold.ok());
  ExpectSameArtifact(*incremental, *cold);
  EXPECT_FALSE(stats.full_resample);
  EXPECT_GT(stats.segments_total, 0u);
}

TEST(SampleStageTest, IncrementalRejectsARecordMadeWithOtherOptions) {
  const VersionPair versions = OneInsertApart();
  SamplerOptions other = SegmentedStageOptions();
  other.seed = 6;
  SampleWalkRecord foreign;
  ASSERT_TRUE(SampleStage(other).RunRecorded(versions.parent, &foreign).ok());

  const SampleStage stage(SegmentedStageOptions());
  SampleWalkRecord updated;
  SampleStage::IncrementalStats stats;
  EXPECT_TRUE(stage
                  .RunIncremental(versions.child,
                                  versions.child.lineage()->dirty, foreign,
                                  &updated, &stats)
                  .status()
                  .IsInvalidArgument());
}

TEST(SampleKeyTest, DistinguishesGraphsAndOptions) {
  const Graph g1 = TestGraph(4000, 77);
  const Graph g2 = TestGraph(4000, 78);
  SamplerOptions options;
  const std::string k1 = SampleKey::For(g1, options).ToString();
  const std::string k2 = SampleKey::For(g2, options).ToString();
  options.sampling_ratio = 0.2;
  const std::string k3 = SampleKey::For(g1, options).ToString();
  options.sampling_ratio = 0.1;
  options.seed = 99;
  const std::string k4 = SampleKey::For(g1, options).ToString();
  EXPECT_NE(k1, k2);  // different graph content
  EXPECT_NE(k1, k3);  // different ratio
  EXPECT_NE(k1, k4);  // different seed
  EXPECT_EQ(k1, SampleKey::For(g1, SamplerOptions{}).ToString());
}

// --------------------------------------------------------- TransformStage

TEST(TransformStageTest, ScalesTauForAbsoluteAggregateAlgorithms) {
  // No sample involved: the stage consumes only the realized ratio.
  const TransformStage stage;
  auto artifact = stage.Run("pagerank", {{"tau", 1e-6}}, 0.1);
  ASSERT_TRUE(artifact.ok());
  EXPECT_NEAR(artifact->sample_config.at("tau"), 1e-5, 1e-12);
  EXPECT_FALSE(artifact->description.empty());
}

TEST(TransformStageTest, KeepsTauForRelativeRatioAlgorithms) {
  const TransformStage stage;
  auto artifact = stage.Run("semiclustering", {{"tau", 0.001}}, 0.1);
  ASSERT_TRUE(artifact.ok());
  EXPECT_DOUBLE_EQ(artifact->sample_config.at("tau"), 0.001);
}

TEST(TransformStageTest, CustomTransformHonored) {
  const IdentityTransform identity;
  const TransformStage stage(&identity);
  auto artifact = stage.Run("pagerank", {{"tau", 1e-6}}, 0.1);
  ASSERT_TRUE(artifact.ok());
  EXPECT_DOUBLE_EQ(artifact->sample_config.at("tau"), 1e-6);  // unscaled
}

TEST(TransformStageTest, UnknownAlgorithmAndBadKeyFail) {
  const TransformStage stage;
  EXPECT_TRUE(stage.Run("kmeans", {}, 0.1).status().IsNotFound());
  EXPECT_TRUE(
      stage.Run("pagerank", {{"zzz", 1.0}}, 0.1).status().IsInvalidArgument());
}

TEST(TransformArtifactTest, ConfigKeyIsCanonical) {
  TransformArtifact a = HandTransform({{"tau", 0.5}, {"d", 0.85}});
  TransformArtifact b = HandTransform({{"d", 0.85}, {"tau", 0.5}});
  EXPECT_EQ(a.ConfigKey(), b.ConfigKey());  // map order is canonical
  TransformArtifact c = HandTransform({{"tau", 0.25}, {"d", 0.85}});
  EXPECT_NE(a.ConfigKey(), c.ConfigKey());
}

// A registered algorithm may use long parameter names. Two values of
// one long-named parameter must still get two keys, or the profile cache
// would serve one config's sample run for the other.
TEST(TransformArtifactTest, ConfigKeyNeverTruncatesLongNames) {
  const std::string name(60, 'p');
  TransformArtifact a = HandTransform({{name, 0.125}});
  TransformArtifact b = HandTransform({{name, 0.5}});
  EXPECT_NE(a.ConfigKey(), b.ConfigKey());
  EXPECT_EQ(a.ConfigKey(), name + "=0.125;");
}

// ----------------------------------------------------------- ProfileStage

TEST(ProfileStageTest, ProfilesHandBuiltSampleArtifact) {
  const Graph g = TestGraph(2000, 11);
  const SampleArtifact sample = WholeGraphSample(g);
  const TransformArtifact transform = HandTransform({});
  const ProfileStage stage(TestEngine());
  auto profile = stage.Run("connected_components", "ds", sample, transform);
  ASSERT_TRUE(profile.ok());
  EXPECT_GT(profile->sample_profile.num_iterations(), 0);
  EXPECT_EQ(profile->sample_profile.algorithm, "connected_components");
  EXPECT_EQ(profile->sample_profile.dataset, "ds_sample");
  EXPECT_EQ(profile->sample_profile.num_vertices, g.num_vertices());
  EXPECT_GT(profile->sample_total_seconds, 0.0);
  // Every iteration carries critical-worker features.
  for (const IterationProfile& it : profile->sample_profile.iterations) {
    EXPECT_GE(it.runtime_seconds, 0.0);
    EXPECT_GT(it.critical_features[static_cast<int>(Feature::kTotVert)], 0.0);
  }
}

TEST(ProfileStageTest, EmptyDatasetLabelledSample) {
  const Graph g = TestGraph(1000, 12);
  const SampleArtifact sample = WholeGraphSample(g);
  const TransformArtifact transform = HandTransform({});
  const ProfileStage stage(TestEngine());
  auto profile = stage.Run("connected_components", "", sample, transform);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->sample_profile.dataset, "sample");
}

// ------------------------------------------------------- ExtrapolateStage

TEST(ExtrapolateStageTest, ScalesHandBuiltProfileByGraphRatios) {
  // Full graph 8 vertices / 8 edges; "sample" 4 vertices / 2 edges —
  // both hand-built, no sampler involved.
  GraphBuilder full_b(8);
  for (VertexId v = 0; v < 8; ++v) full_b.AddEdge(v, (v + 1) % 8);
  const Graph full = full_b.Build().MoveValue();
  GraphBuilder sample_b(4);
  sample_b.AddEdge(0, 1);
  sample_b.AddEdge(1, 2);
  const Graph sample_graph = sample_b.Build().MoveValue();

  SampleArtifact sample;
  sample.sample.subgraph = sample_graph;
  sample.sample.original_num_vertices = full.num_vertices();
  sample.sample.realized_ratio = 0.5;

  ProfileArtifact profile;
  profile.sample_profile.algorithm = "x";
  IterationProfile it;
  it.iteration = 0;
  it.critical_features[static_cast<int>(Feature::kActVert)] = 10.0;
  it.critical_features[static_cast<int>(Feature::kRemMsgSize)] = 100.0;
  it.critical_features[static_cast<int>(Feature::kAvgMsgSize)] = 8.0;
  it.runtime_seconds = 1.5;
  profile.sample_profile.iterations.push_back(it);

  const ExtrapolateStage stage;
  auto extrapolation = stage.Run(full, sample, profile);
  ASSERT_TRUE(extrapolation.ok());
  EXPECT_DOUBLE_EQ(extrapolation->factors.vertex_factor, 2.0);  // 8/4
  EXPECT_DOUBLE_EQ(extrapolation->factors.edge_factor, 4.0);    // 8/2
  const FeatureVector& f =
      extrapolation->extrapolated_profile.iterations[0].critical_features;
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kActVert)], 20.0);     // eV
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kRemMsgSize)], 400.0); // eE
  EXPECT_DOUBLE_EQ(f[static_cast<int>(Feature::kAvgMsgSize)], 8.0);   // kept
}

TEST(ExtrapolateStageTest, EmptySampleGraphFails) {
  const Graph full = TestGraph(1000, 13);
  SampleArtifact sample;  // default: empty subgraph
  ProfileArtifact profile;
  const ExtrapolateStage stage;
  EXPECT_FALSE(stage.Run(full, sample, profile).ok());
}

// -------------------------------------------------------------- FitStage

// The deployment every FitStage below is configured with.
std::string TestEngineKey() { return bsp::EngineOptionsKey(TestEngine()); }

// A profile measured under TestEngine() whose runtimes follow an exact
// linear law over one feature.
ProfileArtifact LinearProfile(int rows, double slope, double intercept) {
  ProfileArtifact artifact;
  artifact.scenario_key = TestEngineKey();
  artifact.sample_profile.algorithm = "synthetic";
  for (int i = 0; i < rows; ++i) {
    IterationProfile it;
    it.iteration = i;
    const double x = 1000.0 * (i + 1);
    it.critical_features[static_cast<int>(Feature::kRemMsgSize)] = x;
    it.runtime_seconds = slope * x + intercept;
    artifact.sample_profile.iterations.push_back(it);
  }
  return artifact;
}

TEST(FitStageTest, RecoversLinearLawFromHandBuiltProfile) {
  const ProfileArtifact profile = LinearProfile(12, 2e-6, 0.25);
  const FitStage stage(CostModelOptions{}, nullptr, TestEngineKey());
  auto model = stage.Run(profile, "synthetic", "");
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->model.r_squared(), 0.999);
  FeatureVector probe{};
  probe[static_cast<int>(Feature::kRemMsgSize)] = 50000.0;
  EXPECT_NEAR(model->model.PredictIterationSeconds(probe),
              2e-6 * 50000.0 + 0.25, 1e-3);
}

TEST(FitStageTest, MergesHistoryButExcludesSameDataset) {
  const ProfileArtifact profile = LinearProfile(8, 2e-6, 0.25);

  HistoryStore history;
  RunProfile poisoned;
  poisoned.algorithm = "synthetic";
  poisoned.dataset = "mine";
  IterationProfile bad;
  bad.runtime_seconds = 1e9;
  poisoned.iterations.push_back(bad);
  history.Add(poisoned);

  const FitStage stage(CostModelOptions{}, &history, TestEngineKey());
  auto model = stage.Run(profile, "synthetic", "mine");
  ASSERT_TRUE(model.ok());
  // The absurd same-dataset row was excluded; the clean linear law holds.
  EXPECT_GT(model->model.r_squared(), 0.999);
}

// History rows ran on the configured deployment (assumption iii), so
// they join only a fit whose profile was measured under it.
TEST(FitStageTest, MergesHistoryOnlyUnderTheConfiguredDeployment) {
  HistoryStore history;
  RunProfile other;
  other.algorithm = "synthetic";
  other.dataset = "other";
  IterationProfile row;
  row.critical_features[static_cast<int>(Feature::kRemMsgSize)] = 4500.0;
  row.runtime_seconds = 2e-6 * 4500.0 + 0.25;
  other.iterations.push_back(row);
  history.Add(other);
  const FitStage stage(CostModelOptions{}, &history, TestEngineKey());

  ProfileArtifact profile = LinearProfile(8, 2e-6, 0.25);
  auto model = stage.Run(profile, "synthetic", "mine");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->selection.sample_rows, 8u);
  EXPECT_EQ(model->selection.history_rows, 1u);
  EXPECT_EQ(model->residuals.size(), 9u);

  bsp::EngineOptions foreign = TestEngine();
  foreign.num_workers = 10;
  profile.scenario_key = bsp::EngineOptionsKey(foreign);
  model = stage.Run(profile, "synthetic", "mine");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->selection.sample_rows, 8u);
  EXPECT_EQ(model->selection.history_rows, 0u);
  EXPECT_EQ(model->residuals.size(), 8u);
}

TEST(FitStageTest, EmptyProfileFails) {
  const ProfileArtifact empty;
  const FitStage stage(CostModelOptions{}, nullptr, TestEngineKey());
  EXPECT_FALSE(stage.Run(empty, "synthetic", "").ok());
}

}  // namespace
}  // namespace predict
