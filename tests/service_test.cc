// PredictionService tests: cache hit/miss accounting, and the
// determinism contract — PredictBatch output has the DeterministicContent
// of sequential Predictor::PredictRuntime calls for any thread count and
// any cache temperature.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/predictor.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "sampling/sampler.h"
#include "service/prediction_service.h"

namespace predict {
namespace {

Graph TestGraph(VertexId n, uint64_t seed) {
  return GeneratePreferentialAttachment({n, 6, 0.3, seed}).MoveValue();
}

PredictorOptions TestPredictorOptions() {
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 5;
  options.engine.num_workers = 4;
  // Inline simulation: the batch fan-out supplies the parallelism.
  options.engine.num_threads = 0;
  return options;
}

PredictionServiceOptions TestServiceOptions(int num_threads = 0) {
  PredictionServiceOptions options;
  options.predictor = TestPredictorOptions();
  options.num_threads = num_threads;
  return options;
}

double PageRankTau(const Graph& g) {
  return 0.001 / static_cast<double>(g.num_vertices());
}

// The 8-request batch of the acceptance criteria: 4 algorithms x 2
// datasets, sharing one sample per dataset.
std::vector<PredictionRequest> TestBatch(const Graph& g1, const Graph& g2) {
  std::vector<PredictionRequest> requests;
  for (const Graph* graph : {&g1, &g2}) {
    const std::string dataset = graph == &g1 ? "ds1" : "ds2";
    for (const std::string& algorithm :
         {std::string("pagerank"), std::string("connected_components"),
          std::string("topk_ranking"), std::string("neighborhood")}) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = graph;
      request.dataset = dataset;
      if (algorithm == "pagerank") {
        request.overrides = {{"tau", PageRankTau(*graph)}};
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

// ----------------------------------------------------------------- errors

TEST(PredictionServiceTest, NullGraphRejected) {
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "pagerank";
  EXPECT_TRUE(service.Predict(request).status().IsInvalidArgument());
}

TEST(PredictionServiceTest, UnknownAlgorithmFailsFastWithoutSampling) {
  const Graph g = TestGraph(2000, 31);
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "kmeans";
  request.graph = &g;
  EXPECT_TRUE(service.Predict(request).status().IsNotFound());
  // The doomed request never sampled nor touched the caches.
  EXPECT_EQ(service.cache_stats().sample_misses, 0u);
  request.algorithm = "connected_components";
  request.overrides = {{"zzz", 1.0}};
  EXPECT_TRUE(service.Predict(request).status().IsInvalidArgument());
  EXPECT_EQ(service.cache_stats().sample_misses, 0u);
  // A good request pays the one sampling.
  request.overrides = {};
  EXPECT_TRUE(service.Predict(request).ok());
  EXPECT_EQ(service.cache_stats().sample_misses, 1u);
  EXPECT_EQ(service.cache_stats().sample_hits, 0u);
}

// ------------------------------------------------------- cache accounting

TEST(PredictionServiceTest, CacheHitMissAccounting) {
  const Graph g = TestGraph(3000, 32);
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "connected_components";
  request.graph = &g;
  request.dataset = "ds";

  ASSERT_TRUE(service.Predict(request).ok());
  ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 1u);
  EXPECT_EQ(stats.sample_hits, 0u);
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 0u);

  // Same request again: both caches hit.
  ASSERT_TRUE(service.Predict(request).ok());
  stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 1u);
  EXPECT_EQ(stats.sample_hits, 1u);
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 1u);

  // Different algorithm on the same graph: sample hit, profile miss.
  request.algorithm = "neighborhood";
  ASSERT_TRUE(service.Predict(request).ok());
  stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 1u);
  EXPECT_EQ(stats.sample_hits, 2u);
  EXPECT_EQ(stats.profile_misses, 2u);
  EXPECT_EQ(stats.profile_hits, 1u);
}

TEST(PredictionServiceTest, BatchAccountsOneSampleMissPerDistinctGraph) {
  const Graph g1 = TestGraph(3000, 33);
  const Graph g2 = TestGraph(3500, 34);
  PredictionService service(TestServiceOptions(4));
  const std::vector<PredictionRequest> requests = TestBatch(g1, g2);
  const auto results = service.PredictBatch(requests);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << "request " << i << ": "
                                 << results[i].status().ToString();
  }
  const ServiceCacheStats stats = service.cache_stats();
  // 8 requests over 2 graphs: exactly 2 sample computations, no
  // duplicated work even with concurrent first requests.
  EXPECT_EQ(stats.sample_misses, 2u);
  EXPECT_EQ(stats.sample_hits, 6u);
  EXPECT_EQ(stats.profile_misses, 8u);  // all (algorithm, dataset) distinct
  EXPECT_EQ(stats.profile_hits, 0u);
}

TEST(PredictionServiceTest, ClearCachesForcesRecomputation) {
  const Graph g = TestGraph(2000, 36);
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "connected_components";
  request.graph = &g;
  ASSERT_TRUE(service.Predict(request).ok());
  service.ClearCaches();
  ASSERT_TRUE(service.Predict(request).ok());
  const ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 2u);
  EXPECT_EQ(stats.profile_misses, 2u);
}

// ------------------------------------------------------------ determinism

TEST(PredictionServiceTest, PredictMatchesPredictorBitIdentically) {
  const Graph g = TestGraph(4000, 37);
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &g;
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(g)}};

  auto served = service.Predict(request);
  ASSERT_TRUE(served.ok());
  Predictor predictor(TestPredictorOptions());
  auto direct = predictor.PredictRuntime("pagerank", g, "ds", request.overrides);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(DeterministicContent(served), DeterministicContent(direct));

  // Warm repeat (both caches hit): still bit-identical.
  auto warm = service.Predict(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(DeterministicContent(warm), DeterministicContent(direct));
}

TEST(PredictionServiceTest, BatchBitIdenticalToSequentialForAnyThreadCount) {
  const Graph g1 = TestGraph(4000, 38);
  const Graph g2 = TestGraph(4500, 39);
  const std::vector<PredictionRequest> requests = TestBatch(g1, g2);

  // Sequential cold baseline through the uncached Predictor.
  Predictor predictor(TestPredictorOptions());
  std::vector<PredictionReport> baseline;
  for (const PredictionRequest& request : requests) {
    auto report = predictor.PredictRuntime(
        request.algorithm, *request.graph, request.dataset, request.overrides);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    baseline.push_back(std::move(report).MoveValue());
  }

  for (const int threads : {0, 1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PredictionService service(TestServiceOptions(threads));
    // Cold pass, then a fully warm pass: both must match the baseline.
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("pass=" + std::to_string(pass));
      const auto results = service.PredictBatch(requests);
      ASSERT_EQ(results.size(), requests.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << "request " << i << ": "
                                     << results[i].status().ToString();
        EXPECT_EQ(DeterministicContent(results[i]),
                  DeterministicContent(baseline[i]));
      }
    }
  }
}

// Cache hygiene under failure: a failed stage must never populate a
// cache (no poisoning), and a failure observed by concurrent requests
// must not latch — the next request for the same key re-attempts.
class ServiceFailureTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisableAll(); }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(ServiceFailureTest, FailedProfileIsNotCachedAndTheNextRequestRetries) {
  const Graph g = TestGraph(4000, 41);
  PredictionService service(TestServiceOptions(0));
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &g;
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(g)}};

  ASSERT_TRUE(fail::Configure("profile.run", "once").ok());
  auto failed = service.Predict(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("profile.run"), std::string::npos);
  EXPECT_EQ(service.cache_stats().profile_misses, 1u);

  // The 'once' fault is consumed; the retry must recompute (a second
  // miss, not a poisoned hit) and succeed.
  auto retried = service.Predict(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(service.cache_stats().profile_misses, 2u);
  EXPECT_EQ(service.cache_stats().profile_hits, 0u);
  // The sample succeeded the first time and stayed cached.
  EXPECT_EQ(service.cache_stats().sample_misses, 1u);
  EXPECT_EQ(service.cache_stats().sample_hits, 1u);

  // And the recovered artifact serves bit-identical full-quality reports.
  auto direct = Predictor(TestPredictorOptions())
                    .PredictRuntime("pagerank", g, "ds", request.overrides);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(DeterministicContent(retried), DeterministicContent(direct));
}

TEST_F(ServiceFailureTest, FailedSampleIsNotCachedAndTheNextRequestRetries) {
  const Graph g = TestGraph(4000, 42);
  PredictionService service(TestServiceOptions(0));
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &g;
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(g)}};

  ASSERT_TRUE(fail::Configure("sample.walk", "once").ok());
  auto failed = service.Predict(request);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("sample.walk"), std::string::npos);
  EXPECT_EQ(service.cache_stats().sample_misses, 1u);

  auto retried = service.Predict(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(service.cache_stats().sample_misses, 2u);
  EXPECT_EQ(service.cache_stats().sample_hits, 0u);
  EXPECT_FALSE(retried->degradation.degraded());
}

TEST_F(ServiceFailureTest, PersistentFailuresNeverLatchAcrossABatch) {
  // Every profile run fails for a whole concurrent batch (duplicate
  // keys included); once the fault clears, the very same requests
  // succeed — nothing was latched or poisoned in between.
  const Graph g = TestGraph(4000, 43);
  PredictionService service(TestServiceOptions(4));
  std::vector<PredictionRequest> requests(6);
  for (auto& request : requests) {
    request.algorithm = "pagerank";
    request.graph = &g;
    request.dataset = "ds";
    request.overrides = {{"tau", PageRankTau(g)}};
  }

  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  for (const auto& result : service.PredictBatch(requests)) {
    EXPECT_FALSE(result.ok());
  }
  const ServiceCacheStats after_failures = service.cache_stats();

  fail::DisableAll();
  for (const auto& result : service.PredictBatch(requests)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->degradation.degraded());
  }
  // All six post-recovery requests were answered by one computation:
  // exactly one more miss (the recomputation) and five joins/hits.
  const ServiceCacheStats after_recovery = service.cache_stats();
  EXPECT_EQ(after_recovery.profile_misses - after_failures.profile_misses, 1u);
  EXPECT_EQ(after_recovery.profile_hits - after_failures.profile_hits, 5u);
}

TEST_F(ServiceFailureTest, DegradedAnswersDoNotPoisonTheFullQualityPath) {
  // A request answered from the history-only rung must leave the caches
  // exactly as a failure would: the next request (fault cleared) runs
  // the full pipeline, not a cached degraded artifact.
  const Graph g = TestGraph(4000, 44);
  HistoryStore history;
  for (uint32_t workers : {2u, 4u}) {
    RunProfile profile;
    profile.algorithm = "pagerank";
    profile.dataset = "hist" + std::to_string(workers);
    profile.num_vertices = 1000;
    profile.num_edges = 5000;
    profile.num_workers = workers;
    IterationProfile it;
    it.iteration = 0;
    it.critical_features[0] = 10.0;
    it.runtime_seconds = 1.0 + 4.0 / workers;
    profile.iterations.push_back(it);
    profile.iterations.push_back(it);
    history.Add(profile);
  }
  PredictionServiceOptions options = TestServiceOptions(0);
  options.predictor.history = &history;
  options.predictor.robustness.degraded_fallbacks = true;
  PredictionService service(options);
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &g;
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(g)}};

  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  auto degraded = service.Predict(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->degradation.rung, DegradationRung::kHistoryOnly);
  EXPECT_EQ(service.cache_stats().history_only_fallbacks, 1u);

  fail::DisableAll();
  auto full = service.Predict(request);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->degradation.degraded());
  // Full-quality recovery matches the uncached Predictor bit for bit.
  PredictorOptions plain = TestPredictorOptions();
  plain.history = &history;
  auto direct = Predictor(plain).PredictRuntime("pagerank", g, "ds",
                                                request.overrides);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(DeterministicContent(full), DeterministicContent(direct));
}

// ------------------------------------ evolving graphs / staleness tracking

PredictionServiceOptions IncrementalServiceOptions() {
  PredictionServiceOptions options = TestServiceOptions();
  options.predictor.sampler.kind = SamplerKind::kRandomJump;
  options.predictor.sampler.walk_segment_steps = 256;
  return options;
}

// Mutates `base` only at vertices the walk record never touched: the
// graph version changes but a re-walk reproduces the identical sample.
Graph MutateOutsideSample(const Graph& base, const SamplerOptions& sampler) {
  SampleWalkRecord record;
  auto sample = SampleGraphRecorded(base, sampler, &record);
  EXPECT_TRUE(sample.ok());
  std::vector<VertexId> untouched;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (!record.touched[v]) untouched.push_back(v);
  }
  EXPECT_GE(untouched.size(), 2u);
  EvolvingGraph evolving(base);
  EXPECT_TRUE(evolving
                  .Apply({EdgeDelta::Insert(untouched[0], untouched[1]),
                          EdgeDelta::Insert(untouched[1], untouched[0])})
                  .ok());
  auto current = evolving.Current();
  EXPECT_TRUE(current.ok());
  return **current;
}

TEST(ServiceStalenessTest, ReportsCountReusedStages) {
  const Graph g = TestGraph(4000, 61);
  PredictionService service(TestServiceOptions());
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &g;
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(g)}};

  auto cold = service.Predict(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stages_reused, 0);

  auto warm = service.Predict(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stages_reused, 2);  // sample + profile from cache
  EXPECT_EQ(DeterministicContent(cold), DeterministicContent(warm));
}

TEST(ServiceStalenessTest, ProfileCacheSurvivesChurnOutsideTheSample) {
  const PredictionServiceOptions options = IncrementalServiceOptions();
  const Graph base = EvolvingGraph::Canonicalize(TestGraph(4000, 67));
  const Graph mutated = MutateOutsideSample(base, options.predictor.sampler);
  ASSERT_NE(base.Fingerprint(), mutated.Fingerprint());

  PredictionService service(options);
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.dataset = "ds";
  request.overrides = {{"tau", PageRankTau(base)}};

  request.graph = &base;
  auto before = service.Predict(request);
  ASSERT_TRUE(before.ok());

  request.graph = &mutated;
  auto after = service.Predict(request);
  ASSERT_TRUE(after.ok());
  // The graph version changed, so the sample was recomputed (a cache
  // miss) — but it came out content-identical, so the profile (and
  // everything downstream of it) was served from cache.
  const ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 2u);
  EXPECT_EQ(stats.profile_misses, 1u);
  EXPECT_EQ(stats.profile_hits, 1u);
  EXPECT_EQ(after->stages_reused, 1);
  // And the re-walk itself was incremental: every segment replayed.
  EXPECT_EQ(stats.incremental_sample_updates, 1u);
  EXPECT_GT(stats.incremental_segments_reused, 0u);
}

// Re-predicting a child version re-samples from its lineage: no scan of
// the version (its fingerprint was stamped by compaction), no diff, one
// scan of the new sample's subgraph. A version whose parent the service
// never sampled walks cold — and both still match an uncached Predictor.
TEST(ServiceStalenessTest, ChildVersionResamplesFromItsLineage) {
  const PredictionServiceOptions options = IncrementalServiceOptions();
  ASSERT_EQ(options.num_threads, 0);
  EvolvingGraph evolving(TestGraph(4000, 79));
  PredictionService service(options);
  Predictor predictor(options.predictor);
  PredictionRequest request;
  request.algorithm = "connected_components";
  request.dataset = "ds";

  auto parent = evolving.Current();
  ASSERT_TRUE(parent.ok());
  request.graph = *parent;
  ASSERT_TRUE(service.Predict(request).ok());

  ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(3, 17)}).ok());
  auto child = evolving.Current();
  ASSERT_TRUE(child.ok());
  request.graph = *child;
  uint64_t scans = Graph::FingerprintComputationsForTest();
  auto report = service.Predict(request);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(Graph::FingerprintComputationsForTest() - scans, 1u);
  EXPECT_EQ(service.cache_stats().incremental_sample_updates, 1u);
  auto direct = predictor.PredictRuntime(request.algorithm, **child,
                                         request.dataset);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(DeterministicContent(report), DeterministicContent(direct));

  // Two versions later: the lineage names a parent the service never
  // sampled.
  ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(5, 29)}).ok());
  ASSERT_TRUE(evolving.Current().ok());
  ASSERT_TRUE(evolving.Apply({EdgeDelta::Delete(3, 17)}).ok());
  auto grandchild = evolving.Current();
  ASSERT_TRUE(grandchild.ok());
  request.graph = *grandchild;
  scans = Graph::FingerprintComputationsForTest();
  report = service.Predict(request);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(Graph::FingerprintComputationsForTest() - scans, 1u);
  EXPECT_EQ(service.cache_stats().incremental_sample_updates, 1u);
  direct = predictor.PredictRuntime(request.algorithm, **grandchild,
                                    request.dataset);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(DeterministicContent(report), DeterministicContent(direct));
}

// A transient fault in a child version's sample compute must not cost
// the walk record it took: the retry still re-samples from the lineage.
// Two children: vertex 3, on the walk, re-walks by splicing; a source the
// walk never touched keeps its parent's sample, and its retry too.
TEST(ServiceStalenessTest, FailedResampleKeepsTheWalkRecord) {
  const PredictionServiceOptions options = IncrementalServiceOptions();
  SampleWalkRecord record;
  ASSERT_TRUE(SampleGraphRecorded(EvolvingGraph::Canonicalize(
                                      TestGraph(4000, 83)),
                                  options.predictor.sampler, &record)
                  .ok());
  ASSERT_TRUE(record.touched[3]);
  ASSERT_EQ(record.fill_picks, 0u);
  VertexId untouched = 0;
  while (record.touched[untouched]) ++untouched;

  for (const VertexId source : {VertexId{3}, untouched}) {
    SCOPED_TRACE("dirty source " + std::to_string(source));
    EvolvingGraph evolving(TestGraph(4000, 83));
    PredictionService service(options);
    PredictionRequest request;
    request.algorithm = "connected_components";
    request.dataset = "ds";

    auto parent = evolving.Current();
    ASSERT_TRUE(parent.ok());
    request.graph = *parent;
    ASSERT_TRUE(service.Predict(request).ok());

    ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(source, 17)}).ok());
    auto child = evolving.Current();
    ASSERT_TRUE(child.ok());
    request.graph = *child;
    ASSERT_TRUE(fail::Configure("sample.walk", "once").ok());
    auto failed = service.Predict(request);
    fail::DisableAll();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(service.cache_stats().incremental_sample_updates, 0u);

    const uint64_t scans = Graph::FingerprintComputationsForTest();
    auto retried = service.Predict(request);
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(service.cache_stats().incremental_sample_updates, 1u);
    // A kept sample's subgraph was hashed with its parent's.
    EXPECT_EQ(Graph::FingerprintComputationsForTest() - scans,
              source == untouched ? 0u : 1u);
    auto direct = Predictor(options.predictor)
                      .PredictRuntime(request.algorithm, **child,
                                      request.dataset);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(DeterministicContent(retried), DeterministicContent(direct));
  }
}

// A chain of versions through one service fanning out over two threads:
// periphery, periphery, core, periphery. Each periphery version keeps its
// parent's sample (no scan at all), the core version re-walks, and every
// report matches an uncached Predictor. The walk state stays one.
TEST(ServiceStalenessTest, KeptSamplesFollowAChainOfVersions) {
  PredictionServiceOptions options = IncrementalServiceOptions();
  options.num_threads = 2;
  EvolvingGraph evolving(TestGraph(4000, 89));
  PredictionService service(options);
  Predictor predictor(options.predictor);

  // A vertex pair off `version`'s walk, or a vertex on it.
  const auto pick = [&](const Graph& version, bool on_walk) {
    SampleWalkRecord record;
    EXPECT_TRUE(
        SampleGraphRecorded(version, options.predictor.sampler, &record).ok());
    EXPECT_EQ(record.fill_picks, 0u);
    std::vector<VertexId> picked;
    for (VertexId v = 0; v < version.num_vertices() && picked.size() < 2;
         ++v) {
      if ((record.touched[v] != 0) == on_walk) picked.push_back(v);
    }
    EXPECT_EQ(picked.size(), 2u);
    return picked;
  };
  const auto predict = [&](const Graph& version) {
    std::vector<PredictionRequest> requests;
    for (const char* algorithm : {"connected_components", "topk_ranking"}) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = &version;
      request.dataset = "ds";
      requests.push_back(std::move(request));
    }
    const uint64_t scans = Graph::FingerprintComputationsForTest();
    const auto reports = service.PredictBatch(requests);
    const uint64_t scanned = Graph::FingerprintComputationsForTest() - scans;
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(DeterministicContent(reports[i]),
                DeterministicContent(predictor.PredictRuntime(
                    requests[i].algorithm, version, requests[i].dataset)))
          << requests[i].algorithm;
    }
    return scanned;
  };

  predict(**evolving.Current());
  std::vector<VertexId> periphery = pick(**evolving.Current(), false);
  for (const bool core : {false, false, true, false}) {
    SCOPED_TRACE(core ? "core version" : "periphery version");
    const VertexId src = core ? pick(**evolving.Current(), true)[0]
                              : periphery[0];
    ASSERT_TRUE(evolving.Apply({EdgeDelta::Insert(src, periphery[1])}).ok());
    const Graph& version = **evolving.Current();
    const uint64_t scanned = predict(version);
    if (core) {
      periphery = pick(version, false);
    } else {
      EXPECT_EQ(scanned, 0u);
    }
  }
  const ServiceCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.sample_misses, 5u);
  EXPECT_EQ(stats.incremental_sample_updates, 4u);
  EXPECT_EQ(service.ClearCaches().incremental_states, 1u);
}

TEST(ServiceStalenessTest, ClearCachesReportsEvictions) {
  const Graph g1 = TestGraph(3000, 73);
  const Graph g2 = TestGraph(3000, 74);
  PredictionService service(IncrementalServiceOptions());
  const auto batch = TestBatch(g1, g2);
  const auto results = service.PredictBatch(batch);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  const ServiceCacheEvictions evicted = service.ClearCaches();
  EXPECT_EQ(evicted.sample_entries, 2u);   // one sample per graph
  EXPECT_EQ(evicted.profile_entries, 8u);  // one per request
  EXPECT_EQ(evicted.incremental_states, 1u);

  const ServiceCacheEvictions again = service.ClearCaches();
  EXPECT_EQ(again.sample_entries, 0u);
  EXPECT_EQ(again.profile_entries, 0u);
  EXPECT_EQ(again.incremental_states, 0u);
}

}  // namespace
}  // namespace predict
