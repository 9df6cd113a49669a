// service_smoke: a standalone PredictBatch stressor, the workload the
// asan-ubsan CMake preset runs (ctest preset "service-smoke-asan") to
// shake data races, lifetime bugs, and UB out of the PredictionService's
// concurrent cache paths. Also registered as a plain ctest in every
// build config as a cheap end-to-end smoke of the service layer.
//
// Exercises: cold and warm PredictBatch fan-out, concurrent external
// callers hammering Predict() against an in-flight batch, cache-stats
// consistency, and warm reports bit-identical to cold ones
// (DeterministicContent, errors included). Exits 0 on success, 1 with a
// message on any failure.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "graph/generators.h"
#include "service/prediction_service.h"

namespace {

using namespace predict;

std::atomic<int> g_failures{0};  // Check runs from the hammer threads too

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    g_failures.fetch_add(1);
  }
}

}  // namespace

int main() {
  const Graph g1 =
      GeneratePreferentialAttachment({3000, 6, 0.3, 41}).MoveValue();
  const Graph g2 =
      GeneratePreferentialAttachment({3500, 6, 0.3, 42}).MoveValue();

  PredictionServiceOptions options;
  options.predictor.sampler.sampling_ratio = 0.1;
  options.predictor.sampler.seed = 7;
  options.predictor.engine.num_workers = 4;
  options.predictor.engine.num_threads = 0;  // fan-out supplies parallelism
  options.num_threads = 8;
  PredictionService service(options);

  std::vector<PredictionRequest> requests;
  for (const Graph* graph : {&g1, &g2}) {
    for (const char* algorithm :
         {"pagerank", "connected_components", "topk_ranking", "neighborhood"}) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = graph;
      request.dataset = graph == &g1 ? "g1" : "g2";
      if (request.algorithm == "pagerank") {
        request.overrides = {
            {"tau", 0.001 / static_cast<double>(graph->num_vertices())}};
      }
      requests.push_back(std::move(request));
    }
  }

  // Cold batch: every request answered, one sample per distinct graph.
  const auto cold = service.PredictBatch(requests);
  for (size_t i = 0; i < cold.size(); ++i) {
    Check(cold[i].ok(), "cold request " + std::to_string(i) + ": " +
                            cold[i].status().ToString());
  }
  const ServiceCacheStats cold_stats = service.cache_stats();
  Check(cold_stats.sample_misses == 2, "expected 2 sample misses, got " +
                                           std::to_string(cold_stats.sample_misses));

  // Warm batch while two external threads hammer single Predicts: the
  // sanitizers watch the shared caches, entries, and history paths.
  std::thread hammer1([&] {
    for (int i = 0; i < 4; ++i) Check(service.Predict(requests[0]).ok(), "hammer1");
  });
  std::thread hammer2([&] {
    for (int i = 0; i < 4; ++i) Check(service.Predict(requests[5]).ok(), "hammer2");
  });
  const auto warm = service.PredictBatch(requests);
  hammer1.join();
  hammer2.join();

  for (size_t i = 0; i < warm.size(); ++i) {
    Check(DeterministicContent(warm[i]) == DeterministicContent(cold[i]),
          "warm/cold reports differ at " + std::to_string(i));
  }

  const ServiceCacheStats stats = service.cache_stats();
  Check(stats.sample_misses == 2,
        "sample cache recomputed: " + std::to_string(stats.sample_misses));
  Check(stats.profile_misses == 8,
        "profile cache recomputed: " + std::to_string(stats.profile_misses));
  const uint64_t lookups = stats.sample_hits + stats.sample_misses;
  // 16 batch requests + 8 hammered singles.
  Check(lookups == 24, "sample lookups: " + std::to_string(lookups));

  const int failures = g_failures.load();
  if (failures == 0) {
    std::printf("service_smoke OK: %zu requests, stats: sample %llu/%llu, "
                "profile %llu/%llu (hits/misses)\n",
                requests.size() + warm.size() + 8,
                static_cast<unsigned long long>(stats.sample_hits),
                static_cast<unsigned long long>(stats.sample_misses),
                static_cast<unsigned long long>(stats.profile_hits),
                static_cast<unsigned long long>(stats.profile_misses));
    return 0;
  }
  std::fprintf(stderr, "service_smoke: %d failure(s)\n", failures);
  return 1;
}
