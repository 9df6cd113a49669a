// PredictionService throughput: predictions/sec for a batch of
// concurrent what-if requests, warm vs. cold sample cache, against the
// sequential uncached Predictor baseline.
//
// The acceptance bar for the service layer: a warm-sample-cache
// PredictBatch over 8 (algorithm, dataset) requests must be >= 3x
// faster than sequential cold PredictRuntime calls, with bit-identical
// reports. This bench measures and verifies exactly that.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "graph/generators.h"
#include "service/prediction_service.h"

namespace {

using namespace predict;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::printf(
      "== service_throughput: PredictBatch warm/cold vs sequential ==\n");

  // Two datasets x 4 algorithms = the 8-request batch.
  const Graph g1 =
      GeneratePreferentialAttachment({30000, 8, 0.3, 21}).MoveValue();
  const Graph g2 =
      GeneratePreferentialAttachment({36000, 7, 0.3, 22}).MoveValue();

  PredictorOptions predictor_options;
  predictor_options.sampler.sampling_ratio = 0.1;
  predictor_options.sampler.seed = 42;
  predictor_options.engine.num_workers = 8;
  predictor_options.engine.num_threads = 0;  // fan-out supplies parallelism

  std::vector<PredictionRequest> requests;
  for (const Graph* graph : {&g1, &g2}) {
    for (const char* algorithm :
         {"pagerank", "connected_components", "topk_ranking", "neighborhood"}) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = graph;
      request.dataset = graph == &g1 ? "ds1" : "ds2";
      if (request.algorithm == "pagerank") {
        request.overrides = {
            {"tau", 0.001 / static_cast<double>(graph->num_vertices())}};
      }
      requests.push_back(std::move(request));
    }
  }
  const double n = static_cast<double>(requests.size());

  // Baseline: sequential, uncached, single-threaded.
  std::vector<PredictionReport> baseline;
  Predictor predictor(predictor_options);
  auto start = std::chrono::steady_clock::now();
  for (const PredictionRequest& request : requests) {
    auto report = predictor.PredictRuntime(request.algorithm, *request.graph,
                                           request.dataset, request.overrides);
    if (!report.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    baseline.push_back(std::move(report).MoveValue());
  }
  const double sequential_cold = SecondsSince(start);
  std::printf("%-34s %8.3f s  %6.1f predictions/s\n",
              "sequential cold (Predictor)", sequential_cold,
              n / sequential_cold);

  double warm_best = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    PredictionServiceOptions service_options;
    service_options.predictor = predictor_options;
    service_options.num_threads = threads;
    PredictionService service(service_options);

    start = std::chrono::steady_clock::now();
    auto cold = service.PredictBatch(requests);
    const double batch_cold = SecondsSince(start);

    start = std::chrono::steady_clock::now();
    auto warm = service.PredictBatch(requests);
    const double batch_warm = SecondsSince(start);

    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string expected = DeterministicContent(baseline[i]);
      if (DeterministicContent(cold[i]) != expected ||
          DeterministicContent(warm[i]) != expected) {
        std::fprintf(stderr,
                     "determinism violation at request %zu (threads=%d)\n", i,
                     threads);
        return 1;
      }
    }

    char label[64];
    std::snprintf(label, sizeof(label), "batch cold, %d thread(s)", threads);
    std::printf("%-34s %8.3f s  %6.1f predictions/s  (%4.1fx)\n", label,
                batch_cold, n / batch_cold, sequential_cold / batch_cold);
    std::snprintf(label, sizeof(label), "batch warm, %d thread(s)", threads);
    std::printf("%-34s %8.3f s  %6.1f predictions/s  (%4.1fx)\n", label,
                batch_warm, n / batch_warm, sequential_cold / batch_warm);
    if (sequential_cold / batch_warm > warm_best) {
      warm_best = sequential_cold / batch_warm;
    }
  }

  std::printf("\nwarm-cache batch speedup vs sequential cold: %.1fx "
              "(acceptance bar: >= 3x, bit-identical reports verified)\n",
              warm_best);
  if (warm_best < 3.0) {
    std::fprintf(stderr, "FAIL: warm batch speedup below 3x\n");
    return 1;
  }
  return 0;
}
