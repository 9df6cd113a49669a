// History-rung ablation gate (ctest: ablation_history_rung, labels
// bench-smoke and models).
//
// HistoryOnlyPrediction (core/predictor.h), the bottom rung of the
// degradation ladder, answers from actual-run history alone with one of
// two models of runtime against worker count: Ernest once the history
// spans two worker counts, the mean model before that. Over a real
// multi-deployment history (PageRank actual runs at six worker counts on
// one generated graph) this gate checks:
//
//   1. Leave-one-worker-count-out CV: each held-out run's superstep-phase
//      runtime, predicted from the other five runs by Ernest and by the
//      mean model. Ernest stays only while its mean |error| is below the
//      mean model's.
//   2. Bootstrap determinism: the paper's cost model fit on all six runs
//      gives bit-identical prediction intervals for identical inputs and
//      seed, and different ones for another seed.
//
// Results mirror to BENCH_ablation_history_rung.json (bench_json.h).

#include <cmath>
#include <cstdio>
#include <vector>

#include "algorithms/runner.h"
#include "bench_json.h"
#include "core/cost_model.h"
#include "core/distribution.h"
#include "core/features.h"
#include "core/models/scaleout_models.h"
#include "datasets/datasets.h"
#include "graph/generators.h"

namespace {

using namespace predict;

const std::vector<uint32_t> kWorkerCounts = {8, 12, 16, 20, 24, 29};

// One actual run per worker count; the profile carries num_workers.
Result<std::vector<RunProfile>> RunHistory(const Graph& graph) {
  std::vector<RunProfile> profiles;
  for (const uint32_t workers : kWorkerCounts) {
    RunOptions options;
    options.engine = PaperClusterOptions();
    options.engine.num_workers = workers;
    options.config_overrides = {
        {"tau", 0.001 / static_cast<double>(graph.num_vertices())}};
    PREDICT_ASSIGN_OR_RETURN(
        AlgorithmRunResult run,
        RunAlgorithmByName("pagerank", graph, options));
    char label[32];
    std::snprintf(label, sizeof(label), "w%u", workers);
    profiles.push_back(ProfileFromRunStats("pagerank", label,
                                           graph.num_vertices(),
                                           graph.num_edges(), run.stats));
  }
  return profiles;
}

// The (worker count, iteration runtime) points of every run but the one
// at `skip_workers`: the history-only rung's training data.
std::vector<models::ScaleOutObservation> ObservationsOf(
    const std::vector<RunProfile>& profiles, uint32_t skip_workers) {
  std::vector<models::ScaleOutObservation> points;
  for (const RunProfile& profile : profiles) {
    if (profile.num_workers == skip_workers) continue;
    for (const IterationProfile& it : profile.iterations) {
      points.push_back(
          {static_cast<double>(profile.num_workers), it.runtime_seconds});
    }
  }
  return points;
}

}  // namespace

int main() {
  std::printf(
      "history-rung ablation gate: PageRank across %zu worker counts\n\n",
      kWorkerCounts.size());
  auto graph = GeneratePreferentialAttachment({20000, 8, 0.3, 123});
  if (!graph.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  auto profiles = RunHistory(*graph);
  if (!profiles.ok()) {
    std::fprintf(stderr, "history runs failed: %s\n",
                 profiles.status().ToString().c_str());
    return 1;
  }

  benchutil::BenchJson json("ablation_history_rung");
  json.Add("worker_counts", kWorkerCounts.size());
  bool ok = true;

  // ---- 1. Leave-one-worker-count-out CV: Ernest vs the mean model.
  double ernest_abs_error = 0.0;
  double mean_abs_error = 0.0;
  std::printf("held-out     actual      ernest (err)     mean (err)\n");
  for (const RunProfile& held_out : *profiles) {
    const std::vector<models::ScaleOutObservation> train =
        ObservationsOf(*profiles, held_out.num_workers);
    auto ernest = models::ErnestModel::Fit(train);
    auto mean = models::MeanModel::Fit(train);
    if (!ernest.ok() || !mean.ok()) {
      std::fprintf(stderr, "FAIL: CV fold w=%u did not fit\n",
                   held_out.num_workers);
      ok = false;
      continue;
    }
    const double actual = held_out.total_superstep_seconds();
    const double iterations = held_out.num_iterations();
    const double ernest_predicted =
        iterations * ernest->PredictIterationSeconds(held_out.num_workers);
    const double mean_predicted =
        iterations * mean->PredictIterationSeconds(held_out.num_workers);
    const double ernest_error = (ernest_predicted - actual) / actual;
    const double mean_error = (mean_predicted - actual) / actual;
    ernest_abs_error += std::fabs(ernest_error);
    mean_abs_error += std::fabs(mean_error);
    std::printf("w=%-8u %8.3fs %8.3fs (%+5.1f%%) %8.3fs (%+5.1f%%)\n",
                held_out.num_workers, actual, ernest_predicted,
                100.0 * ernest_error, mean_predicted, 100.0 * mean_error);
  }
  ernest_abs_error /= static_cast<double>(profiles->size());
  mean_abs_error /= static_cast<double>(profiles->size());
  std::printf("mean |error|: ernest %.1f%%, mean model %.1f%%\n",
              100.0 * ernest_abs_error, 100.0 * mean_abs_error);
  json.Add("ernest_cv_mean_abs_error", ernest_abs_error);
  json.Add("mean_cv_mean_abs_error", mean_abs_error);
  if (!(ernest_abs_error < mean_abs_error)) {
    std::fprintf(stderr,
                 "FAIL: ernest CV error %.1f%% does not beat the mean "
                 "model's %.1f%%\n",
                 100.0 * ernest_abs_error, 100.0 * mean_abs_error);
    ok = false;
  }

  // ---- 2. Bootstrap determinism.
  std::vector<TrainingRow> rows;
  for (const RunProfile& profile : *profiles) {
    const std::vector<TrainingRow> profile_rows =
        TrainingRowsFromProfile(profile);
    rows.insert(rows.end(), profile_rows.begin(), profile_rows.end());
  }
  auto cost = CostModel::Train(rows);
  if (!cost.ok()) {
    std::fprintf(stderr, "FAIL: full-history fit: %s\n",
                 cost.status().ToString().c_str());
    ok = false;
  } else {
    std::vector<double> residuals;
    for (const TrainingRow& row : rows) {
      residuals.push_back(row.runtime_seconds -
                          cost->PredictIterationSeconds(row.features));
    }
    const std::vector<double> per_iteration =
        cost->PredictProfile(profiles->front());
    BootstrapOptions boot;
    const PredictionDistribution a =
        BootstrapDistribution(per_iteration, residuals, 0.1, boot);
    const PredictionDistribution b =
        BootstrapDistribution(per_iteration, residuals, 0.1, boot);
    BootstrapOptions other_seed = boot;
    other_seed.seed += 1;
    const PredictionDistribution c =
        BootstrapDistribution(per_iteration, residuals, 0.1, other_seed);
    const bool deterministic = a.samples == b.samples;
    const bool seed_sensitive = a.samples != c.samples;
    std::printf("\nbootstrap: point %.3fs, p50 %.3fs, p95 %.3fs; "
                "deterministic %s, seed-sensitive %s\n",
                a.point_seconds, a.p50_seconds, a.p95_seconds,
                deterministic ? "yes" : "NO", seed_sensitive ? "yes" : "NO");
    json.Add("bootstrap_p50_seconds", a.p50_seconds);
    json.Add("bootstrap_p95_seconds", a.p95_seconds);
    json.Add("bootstrap_deterministic", deterministic);
    if (!deterministic || !seed_sensitive) {
      std::fprintf(stderr, "FAIL: bootstrap determinism contract broken\n");
      ok = false;
    }
  }

  json.Add("pass", ok);
  json.Write();
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
