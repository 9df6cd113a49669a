// Tests for the extension surface: RWR proximity (§5.3's "random walks
// with restart"), binary graph I/O, and prediction of the extended-
// version algorithms (CC, NH) end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "algorithms/rwr_proximity.h"
#include "algorithms/runner.h"
#include "core/predictor.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace predict {
namespace {

bsp::EngineOptions FastEngine(uint32_t workers = 4) {
  bsp::EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;
  options.cost_profile.noise_sigma = 0.0;
  options.cost_profile.setup_seconds = 0.0;
  options.cost_profile.read_bytes_per_second = 0.0;
  options.cost_profile.write_bytes_per_second = 0.0;
  return options;
}

// ------------------------------------------------------------------- RWR

TEST(RwrTest, ScoresSumToRoughlyOne) {
  // No dangling vertices in PA graphs, so the personalized PageRank mass
  // is conserved up to the convergence tolerance.
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.4, 3}).MoveValue();
  auto result = RunRwrProximity(g, {{"tau", 1e-12}}, FastEngine());
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const double s : result->scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-5);
}

TEST(RwrTest, SourceHasHighestScore) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.4, 5}).MoveValue();
  auto result = RunRwrProximity(g, {{"tau", 1e-10}}, FastEngine());
  ASSERT_TRUE(result.ok());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == result->source) continue;
    EXPECT_GT(result->scores[result->source], result->scores[v]);
  }
}

TEST(RwrTest, AutoSourceIsMaxOutDegree) {
  const Graph g = GenerateStar(50).MoveValue();  // hub = vertex 0
  auto result = RunRwrProximity(g, {}, FastEngine());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, 0u);
}

TEST(RwrTest, ExplicitSourceRespected) {
  const Graph g = GenerateComplete(10).MoveValue();
  auto result = RunRwrProximity(g, {{"source", 7.0}}, FastEngine());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->source, 7u);
}

TEST(RwrTest, ProximityDecaysWithDistance) {
  // Chain with the source forced at vertex 0: score must strictly decay
  // along the chain.
  const Graph g = GenerateChain(10).MoveValue();
  auto result = RunRwrProximity(g, {{"source", 0.0}, {"tau", 1e-14}},
                                FastEngine(2));
  ASSERT_TRUE(result.ok());
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_LT(result->scores[v], result->scores[v - 1]) << "vertex " << v;
  }
}

TEST(RwrTest, RegisteredWithAbsoluteAggregateConvergence) {
  auto spec = FindAlgorithmSpec("rwr_proximity");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->convergence, ConvergenceKind::kAbsoluteAggregate);
}

TEST(RwrTest, PredictorEndToEnd) {
  const Graph g = GeneratePreferentialAttachment({15000, 6, 0.3, 7}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.engine = FastEngine(8);
  Predictor predictor(options);
  const AlgorithmConfig config = {
      {"tau", 0.001 / static_cast<double>(g.num_vertices())}};
  auto report = predictor.PredictRuntime("rwr_proximity", g, "rwr", config);
  ASSERT_TRUE(report.ok());

  RunOptions run_options;
  run_options.engine = options.engine;
  run_options.config_overrides = config;
  auto actual = RunAlgorithmByName("rwr_proximity", g, run_options);
  ASSERT_TRUE(actual.ok());
  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  EXPECT_LE(std::abs(eval.iterations_error), 0.4);
}

// ------------------------------------------------------------- binary I/O

TEST(BinaryIoTest, RoundTripUnweighted) {
  const Graph g = GeneratePreferentialAttachment({500, 4, 0.3, 9}).MoveValue();
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_bin_test.prdg").string();
  ASSERT_TRUE(WriteBinaryGraphFile(g, path).ok());
  auto loaded = ReadBinaryGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_vertices(), g.num_vertices());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.out_neighbors(v);
    const auto b = loaded->out_neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::filesystem::remove(path);
}

TEST(BinaryIoTest, RoundTripWeighted) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.5f);
  b.AddEdge(1, 2, 0.25f);
  const Graph g = b.Build().MoveValue();
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_binw_test.prdg")
          .string();
  ASSERT_TRUE(WriteBinaryGraphFile(g, path).ok());
  auto loaded = ReadBinaryGraphFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->is_weighted());
  EXPECT_FLOAT_EQ(loaded->out_weights(0)[0], 2.5f);
  EXPECT_FLOAT_EQ(loaded->out_weights(1)[0], 0.25f);
  std::filesystem::remove(path);
}

TEST(BinaryIoTest, RejectsNonPrdgFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_notbin.txt").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("0 1\n1 2\n", f);
    std::fclose(f);
  }
  EXPECT_TRUE(ReadBinaryGraphFile(path).status().IsIOError());
  std::filesystem::remove(path);
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_trunc.prdg").string();
  const Graph g = GenerateComplete(5).MoveValue();
  ASSERT_TRUE(WriteBinaryGraphFile(g, path).ok());
  std::filesystem::resize_file(path, 30);  // cut into the edge section
  EXPECT_TRUE(ReadBinaryGraphFile(path).status().IsIOError());
  std::filesystem::remove(path);
}

TEST(BinaryIoTest, RejectsEdgeCountBeyondFileSize) {
  // A header-only file whose edge count claims more edges than the file
  // holds is an IOError, not an allocation failure.
  const std::string path =
      (std::filesystem::temp_directory_path() / "predict_count.prdg").string();
  for (const uint64_t claimed : {uint64_t{1} << 40, uint64_t{1} << 61}) {
    SCOPED_TRACE(claimed);
    ASSERT_TRUE(
        WriteBinaryGraphFile(GraphBuilder(4).Build().MoveValue(), path).ok());
    ASSERT_EQ(std::filesystem::file_size(path), 25u);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(16);  // magic (4) + version (4) + |V| (8)
      f.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
    }
    EXPECT_TRUE(ReadBinaryGraphFile(path).status().IsIOError());
  }
  std::filesystem::remove(path);
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadBinaryGraphFile("/no/such/file.prdg").status().IsIOError());
}

// --------------------------------------- CC / NH prediction (extended TR)

TEST(ExtendedTest, ConnectedComponentsPrediction) {
  const Graph g = GeneratePreferentialAttachment({20000, 6, 0.3, 11}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.15;
  options.engine = FastEngine(8);
  Predictor predictor(options);
  auto report = predictor.PredictRuntime("connected_components", g, "", {});
  ASSERT_TRUE(report.ok());
  // Fixed-point convergence: nothing to transform.
  EXPECT_NE(report->transform_description.find("ID_Conv"), std::string::npos);

  RunOptions run_options;
  run_options.engine = options.engine;
  auto actual = RunAlgorithmByName("connected_components", g, run_options);
  ASSERT_TRUE(actual.ok());
  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  EXPECT_LE(std::abs(eval.iterations_error), 0.5);
}

TEST(ExtendedTest, NeighborhoodPrediction) {
  const Graph g = GeneratePreferentialAttachment({15000, 6, 0.3, 13}).MoveValue();
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.15;
  options.engine = FastEngine(8);
  Predictor predictor(options);
  auto report =
      predictor.PredictRuntime("neighborhood", g, "", {{"tau", 0.001}});
  ASSERT_TRUE(report.ok());
  RunOptions run_options;
  run_options.engine = options.engine;
  run_options.config_overrides = {{"tau", 0.001}};
  auto actual = RunAlgorithmByName("neighborhood", g, run_options);
  ASSERT_TRUE(actual.ok());
  const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
  EXPECT_LE(std::abs(eval.iterations_error), 0.5);
}

}  // namespace
}  // namespace predict
