// Prediction-driven deployment selection: the paper's §1 resource-
// allocation motivation ("runtime estimates ... are a pre-requisite for
// optimizing cluster resource allocations in a similar manner as query
// cost estimates are a pre-requisite for DBMS optimizers").
//
// A scheduler receives iterative jobs, each with an SLA on its superstep
// phase, and may run each job on any registered cluster scenario
// (bsp/scenario.h): the paper deployment, a 10-worker slice, a straggler
// cluster, a 64-worker fast-network build-out, or an edge-balanced
// layout. PREDIcT answers the what-if question from ONE 10% sample per
// job — PredictionService::PredictScenarios reuses the sampled subgraph
// and profiles it under each deployment — and the scheduler picks the
// cheapest scenario (in worker-seconds, the resources the job occupies)
// whose predicted runtime meets the SLA. Each choice is then verified
// against an actual run on the chosen deployment.

#include <cstdio>
#include <string>
#include <vector>

#include "bsp/scenario.h"
#include "common/strings.h"
#include "datasets/datasets.h"
#include "service/prediction_service.h"

int main() {
  using namespace predict;

  struct Job {
    std::string name;
    std::string algorithm;
    std::string dataset;
    AlgorithmConfig config;
    double sla_seconds = 0.0;  // deadline on the superstep phase
  };

  auto wiki = MakeDataset("wiki", 0.25);
  auto uk = MakeDataset("uk", 0.25);
  if (!wiki.ok() || !uk.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  auto graph_of = [&](const std::string& name) -> const Graph& {
    return name == "wiki" ? wiki.value() : uk.value();
  };

  std::vector<Job> jobs = {
      {"J1-semiclustering-uk", "semiclustering", "uk", {{"tau", 0.001}}, 600.0},
      {"J2-pagerank-wiki", "pagerank", "wiki", {}, 40.0},
      {"J3-topk-uk", "topk_ranking", "uk", {{"tau", 0.001}}, 300.0},
      {"J4-components-wiki", "connected_components", "wiki", {}, 30.0},
      {"J5-neighborhood-uk", "neighborhood", "uk", {{"tau", 0.001}}, 300.0},
  };
  // PageRank tau convention.
  jobs[1].config = {{"tau", 0.001 / static_cast<double>(wiki->num_vertices())}};

  const std::vector<bsp::ClusterScenario>& scenarios = bsp::BuiltinScenarios();
  // Only the sampler (and cost-model/history) options matter here:
  // PredictScenarios profiles each scenario under that scenario's own
  // engine configuration, two scenarios at a time.
  PredictionServiceOptions options;
  options.predictor.sampler.sampling_ratio = 0.10;
  options.predictor.sampler.seed = 11;
  options.num_threads = 2;
  PredictionService service(options);

  std::printf("choosing deployments for %zu jobs from one 10%% sample run "
              "per (job, scenario)...\n",
              jobs.size());

  double chosen_worker_seconds = 0.0;
  double baseline_worker_seconds = 0.0;
  int met = 0;
  for (const Job& job : jobs) {
    const Graph& graph = graph_of(job.dataset);
    const auto reports = service.PredictScenarios(
        {job.algorithm, &graph, job.dataset, job.config, {}}, scenarios);

    std::printf("\n%s (SLA %s on the superstep phase)\n", job.name.c_str(),
                FormatSeconds(job.sla_seconds).c_str());
    int best = -1;
    double best_cost = 0.0;
    double paper_cluster_cost = -1.0;
    for (size_t i = 0; i < reports.size(); ++i) {
      if (!reports[i].ok()) {
        // A scenario can be infeasible outright (e.g. the job OOMs its
        // memory budget) — that is a prediction too.
        std::printf("  %-18s infeasible: %s\n", scenarios[i].name.c_str(),
                    reports[i].status().ToString().c_str());
        continue;
      }
      const double predicted = reports[i]->predicted_superstep_seconds;
      const double cost = predicted * scenarios[i].num_workers;
      const bool ok = predicted <= job.sla_seconds;
      std::printf("  %-18s predicted %8s  %8.0f worker-sec  %s\n",
                  scenarios[i].name.c_str(), FormatSeconds(predicted).c_str(),
                  cost, ok ? "meets SLA" : "misses SLA");
      if (scenarios[i].name == "giraph-29") paper_cluster_cost = cost;
      if (ok && (best < 0 || cost < best_cost)) {
        best = static_cast<int>(i);
        best_cost = cost;
      }
    }
    if (best < 0) {
      std::printf("  -> no scenario meets the SLA; job needs a new deadline "
                  "or a bigger cluster\n");
      continue;
    }

    // Verify the choice: run the job for real on the chosen deployment,
    // with the same configuration the prediction was made for.
    RunOptions run_options;
    run_options.engine = scenarios[best].ToEngineOptions();
    run_options.config_overrides = job.config;
    auto actual = RunAlgorithmByName(job.algorithm, graph, run_options);
    if (!actual.ok()) {
      std::fprintf(stderr, "  -> verification run failed: %s\n",
                   actual.status().ToString().c_str());
      return 1;
    }
    const double predicted = reports[best]->predicted_superstep_seconds;
    const double observed = actual->stats.superstep_phase_seconds;
    std::printf("  -> chose %s; actual %s (prediction error %+.1f%%, SLA %s)\n",
                scenarios[best].name.c_str(), FormatSeconds(observed).c_str(),
                100.0 * (predicted - observed) / observed,
                observed <= job.sla_seconds ? "met" : "MISSED");
    // The cost comparison covers exactly the scheduled jobs, on both
    // sides (a job giraph-29 cannot run is excluded from the baseline
    // and from the chosen total alike).
    if (paper_cluster_cost >= 0) {
      chosen_worker_seconds += best_cost;
      baseline_worker_seconds += paper_cluster_cost;
    }
    met += observed <= job.sla_seconds;
  }

  std::printf("\nscheduled %d/%zu jobs within SLA; chosen deployments cost "
              "%.0f worker-seconds vs %.0f running the same jobs on "
              "giraph-29\n",
              met, jobs.size(), chosen_worker_seconds,
              baseline_worker_seconds);
  return 0;
}
