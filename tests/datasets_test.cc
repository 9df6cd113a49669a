// Tests for the dataset registry: the four stand-ins exist, have the
// shape properties the paper's findings depend on, and the paper-cluster
// engine options reproduce the §5 "Memory Limits" OOM pattern.

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/runner.h"
#include "datasets/datasets.h"
#include "graph/stats.h"

namespace predict {
namespace {

TEST(DatasetsTest, RegistryHasFourInTable2Order) {
  const auto names = PaperDatasetNames();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "lj");
  EXPECT_EQ(names[1], "wiki");
  EXPECT_EQ(names[2], "tw");
  EXPECT_EQ(names[3], "uk");
}

TEST(DatasetsTest, UnknownNameIsNotFound) {
  EXPECT_TRUE(MakeDataset("facebook").status().IsNotFound());
}

TEST(DatasetsTest, BadScaleRejected) {
  EXPECT_TRUE(MakeDataset("lj", 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(MakeDataset("lj", 2.0).status().IsInvalidArgument());
  EXPECT_TRUE(MakeDataset("lj", std::nan("")).status().IsInvalidArgument());
}

TEST(DatasetsTest, ScaleShrinksVertexCount) {
  auto small = MakeDataset("wiki", 0.05);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_vertices(), 5000u);
}

TEST(DatasetsTest, GenerationIsDeterministic) {
  auto a = MakeDataset("uk", 0.05);
  auto b = MakeDataset("uk", 0.05);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_edges(), b->num_edges());
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(a->out_degree(v), b->out_degree(v));
  }
}

TEST(DatasetsTest, AllConnected) {
  for (const auto& name : PaperDatasetNames()) {
    auto g = MakeDataset(name, 0.1);
    ASSERT_TRUE(g.ok()) << name;
    EXPECT_GT(LargestComponentFraction(*g), 0.99) << name;
  }
}

TEST(DatasetsTest, TwitterIsTheDensest) {
  // The paper's §5.4 overhead result hinges on Twitter's density.
  double tw_density = 0.0, max_other = 0.0;
  for (const auto& name : PaperDatasetNames()) {
    auto g = MakeDataset(name, 0.1);
    ASSERT_TRUE(g.ok());
    const double density = static_cast<double>(g->num_edges()) /
                           static_cast<double>(g->num_vertices());
    if (name == "tw") {
      tw_density = density;
    } else {
      max_other = std::max(max_other, density);
    }
  }
  EXPECT_GT(tw_density, 2.0 * max_other);
}

TEST(DatasetsTest, OnlyLjIsNotScaleFree) {
  // Footnote 7 of the paper: LiveJournal's out-degree distribution does
  // not follow a power law; the registry metadata and the measured
  // distribution must agree.
  for (const auto& info : PaperDatasets()) {
    auto g = MakeDataset(info.name, info.name == "tw" ? 0.35 : 0.35);
    ASSERT_TRUE(g.ok());
    const PowerLawFit fit = FitOutDegreePowerLaw(*g);
    EXPECT_EQ(fit.plausible, info.scale_free)
        << info.name << ": R2=" << fit.r_squared << " curv=" << fit.curvature;
  }
}

TEST(DatasetsTest, PaperClusterOptionsMatchPaperSetup) {
  const bsp::EngineOptions options = PaperClusterOptions();
  EXPECT_EQ(options.num_workers, 29u);  // 30 tasks = 29 workers + 1 master
  EXPECT_GT(options.memory_budget_bytes, 0u);
}

TEST(DatasetsTest, MemoryLimitsReproducePaperOomPattern) {
  // §5 "Memory Limits": semi-clustering, top-k and neighborhood
  // estimation exhaust memory on Twitter; everything runs on wiki-scale
  // graphs. Run at reduced scale with a proportionally reduced budget to
  // keep the test fast.
  const double scale = 0.25;
  auto tw = MakeDataset("tw", scale);
  ASSERT_TRUE(tw.ok());
  bsp::EngineOptions engine = PaperClusterOptions();
  engine.memory_budget_bytes = static_cast<uint64_t>(
      static_cast<double>(engine.memory_budget_bytes) * scale);
  engine.cost_profile.noise_sigma = 0.0;

  RunOptions run_options;
  run_options.engine = engine;
  // PageRank and connected components fit on tw.
  run_options.config_overrides = {{"tau", 0.001 / tw->num_vertices()}};
  EXPECT_TRUE(RunAlgorithmByName("pagerank", *tw, run_options).ok());
  run_options.config_overrides = {};
  EXPECT_TRUE(RunAlgorithmByName("connected_components", *tw, run_options).ok());
  // The message-heavy three do not.
  EXPECT_TRUE(RunAlgorithmByName("semiclustering", *tw, run_options)
                  .status()
                  .IsResourceExhausted());
  EXPECT_TRUE(RunAlgorithmByName("topk_ranking", *tw, run_options)
                  .status()
                  .IsResourceExhausted());
  EXPECT_TRUE(RunAlgorithmByName("neighborhood", *tw, run_options)
                  .status()
                  .IsResourceExhausted());
}

TEST(DatasetsTest, DescriptionsNonEmpty) {
  for (const auto& info : PaperDatasets()) {
    EXPECT_FALSE(info.description.empty());
    EXPECT_GT(info.num_vertices, 0u);
    EXPECT_GT(info.approx_edges, 0u);
  }
}

// -------------------------------------------------------- scale tier

TEST(ScaleDatasetsTest, RegistryListsRmatTier) {
  const auto names = ScaleDatasetNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "rmat10m");
  EXPECT_EQ(names[1], "rmat100m");
  for (const auto& info : ScaleDatasets()) {
    EXPECT_FALSE(info.description.empty());
    EXPECT_GE(info.approx_edges, 10000000u);
  }
}

TEST(ScaleDatasetsTest, RmatTierShipsCompressedAndDeterministic) {
  // Scale far down for the unit suite: representation and determinism
  // are scale-independent, the 10M-edge count is pinned by the
  // rmat_scale_gate bench at scale 1.
  auto a = MakeDataset("rmat10m", 0.01);
  auto b = MakeDataset("rmat10m", 0.01);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->edges_compressed());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  EXPECT_GT(a->num_edges(), 0u);
  // 2^17 vertices at scale 1, shrunk by whole powers of two.
  EXPECT_LT(a->num_vertices(), 131072u);
}

TEST(ScaleDatasetsTest, ScaleTierRunsEndToEnd) {
  // A tiny slice of the compressed RMAT graph must flow through the
  // stock runner path (sampling + engine) like any paper dataset.
  auto g = MakeDataset("rmat10m", 0.002);
  ASSERT_TRUE(g.ok());
  RunOptions run_options;
  run_options.engine = PaperClusterOptions();
  run_options.engine.memory_budget_bytes = 0;  // not the OOM test
  run_options.config_overrides = {{"tau", 1e-4}};
  EXPECT_TRUE(RunAlgorithmByName("pagerank", *g, run_options).ok());
  run_options.config_overrides = {};
  EXPECT_TRUE(RunAlgorithmByName("connected_components", *g, run_options).ok());
}

}  // namespace
}  // namespace predict
