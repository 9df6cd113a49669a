// Batch what-if serving: a scheduler asks the PredictionService how long
// every registered algorithm would take on each of tonight's datasets,
// in one concurrent batch over shared sample artifacts.
//
//   $ ./examples/batch_service
//
// Demonstrates the staged pipeline's artifact caching: the two datasets
// are sampled once each (not once per algorithm), the eight sample runs
// fan out across the service's thread pool, and a second, warm batch is
// answered from the caches almost for free — with bit-identical reports.

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/predictor.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "service/prediction_service.h"

int main() {
  using namespace predict;

  // Tonight's datasets: two scale-free crawls.
  const Graph web = GeneratePreferentialAttachment({40000, 10, 0.3, 7}).MoveValue();
  const Graph social = GeneratePreferentialAttachment({25000, 8, 0.3, 9}).MoveValue();
  std::printf("datasets:\n  web:    %s\n  social: %s\n",
              DescribeGraph(web).c_str(), DescribeGraph(social).c_str());

  // One service instance for the night: BRJ sampling at 10%, inline
  // engine threads (the batch fan-out supplies the parallelism).
  PredictionServiceOptions options;
  options.predictor.sampler.kind = SamplerKind::kBiasedRandomJump;
  options.predictor.sampler.sampling_ratio = 0.10;
  options.predictor.sampler.seed = 42;
  options.predictor.engine.num_workers = 8;
  options.predictor.engine.num_threads = 0;
  options.num_threads = 8;
  PredictionService service(options);

  // The what-if matrix: 4 algorithms x 2 datasets.
  std::vector<PredictionRequest> requests;
  for (const Graph* graph : {&web, &social}) {
    for (const char* algorithm :
         {"pagerank", "connected_components", "topk_ranking", "neighborhood"}) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = graph;
      request.dataset = graph == &web ? "web" : "social";
      if (request.algorithm == "pagerank") {
        request.overrides = {
            {"tau", 0.001 / static_cast<double>(graph->num_vertices())}};
      }
      requests.push_back(std::move(request));
    }
  }

  const auto batch_start = std::chrono::steady_clock::now();
  const auto reports = service.PredictBatch(requests);
  const double batch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    batch_start)
          .count();

  std::printf("\n%-22s %-8s %6s %14s %8s\n", "algorithm", "dataset", "iters",
              "predicted", "R2");
  for (size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].ok()) {
      std::printf("%-22s %-8s  failed: %s\n", requests[i].algorithm.c_str(),
                  requests[i].dataset.c_str(),
                  reports[i].status().ToString().c_str());
      continue;
    }
    std::printf("%-22s %-8s %6d %12.1f s %8.3f\n",
                requests[i].algorithm.c_str(), requests[i].dataset.c_str(),
                reports[i]->predicted_iterations,
                reports[i]->predicted_superstep_seconds,
                reports[i]->cost_model.r_squared());
  }

  ServiceCacheStats stats = service.cache_stats();
  std::printf("\ncold batch: %.2f s wall; sample cache %llu hits / %llu "
              "misses (one sampling per dataset)\n",
              batch_seconds, static_cast<unsigned long long>(stats.sample_hits),
              static_cast<unsigned long long>(stats.sample_misses));

  // A second round of the same what-ifs: answered from the caches.
  const auto warm_start = std::chrono::steady_clock::now();
  const auto warm = service.PredictBatch(requests);
  const double warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    warm_start)
          .count();
  bool identical = true;
  for (size_t i = 0; i < warm.size(); ++i) {
    identical = identical && warm[i].ok() &&
                DeterministicContent(warm[i]) ==
                    DeterministicContent(reports[i]);
  }
  stats = service.cache_stats();
  std::printf("warm batch: %.2f s wall (%.0fx faster); reports bit-identical: "
              "%s; profile cache %llu hits / %llu misses\n",
              warm_seconds, batch_seconds / warm_seconds,
              identical ? "yes" : "NO",
              static_cast<unsigned long long>(stats.profile_hits),
              static_cast<unsigned long long>(stats.profile_misses));
  return identical ? 0 : 1;
}
