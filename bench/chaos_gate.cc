// Chaos gate (ctest: chaos_gate, labels bench-smoke and chaos).
//
// Guards the robustness bargain of the fault-injection PR with three
// checks over a concurrent PredictionService serving two generated
// graphs x four algorithms while the profile stage fails with
// probability 0.3:
//
//   1. Availability: across every chaos round, >= 99% of requests must
//      still be answered — degraded (history-only) answers count,
//      errors do not.
//   2. Replay: the same fault schedule (same seeds, same requests) run
//      on a second fresh service must produce byte-identical reports,
//      errors included — the context-keyed fail-point decisions make
//      chaos deterministic even under a 4-thread batch fan-out.
//   3. Disabled equivalence: with every fail point disarmed, the
//      robustness-configured service must be bit-identical to the plain
//      uncached Predictor (the zero-fault path pays nothing and changes
//      nothing).
//
// Results mirror to BENCH_chaos_gate.json (bench_json.h).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/failpoint.h"
#include "core/features.h"
#include "core/history.h"
#include "core/predictor.h"
#include "graph/generators.h"
#include "service/prediction_service.h"

namespace {

using namespace predict;

constexpr int kChaosRounds = 6;
constexpr double kFailProbability = 0.3;

const std::vector<const char*> kAlgorithms = {
    "pagerank", "connected_components", "topk_ranking", "neighborhood"};

Graph MakeGraph(VertexId n, uint64_t seed) {
  auto graph = GeneratePreferentialAttachment({n, 6, 0.3, seed});
  if (!graph.ok()) {
    std::fprintf(stderr, "graph generation failed: %s\n",
                 graph.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(graph).MoveValue();
}

PredictorOptions BasePredictorOptions() {
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 5;
  options.engine.num_workers = 4;
  options.engine.num_threads = 0;
  return options;
}

// Hand-built actual-run history (2 deployments per algorithm) so the
// history-only rung can answer when a profile run fails.
HistoryStore SeedHistory() {
  HistoryStore store;
  for (const char* algorithm : kAlgorithms) {
    for (const uint32_t workers : {2u, 4u}) {
      RunProfile profile;
      profile.algorithm = algorithm;
      profile.dataset = "hist_w" + std::to_string(workers);
      profile.num_vertices = 2000;
      profile.num_edges = 12000;
      profile.num_workers = workers;
      for (int i = 0; i < 4; ++i) {
        IterationProfile it;
        it.iteration = i;
        it.critical_features[0] = 100.0 + i;
        it.runtime_seconds = 0.8 + 3.2 / workers + 0.02 * i;
        profile.iterations.push_back(it);
      }
      store.Add(profile);
    }
  }
  return store;
}

std::vector<PredictionRequest> MakeRequests(const Graph& g1, const Graph& g2) {
  std::vector<PredictionRequest> requests;
  for (const Graph* graph : {&g1, &g2}) {
    for (const char* algorithm : kAlgorithms) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = graph;
      request.dataset = graph == &g1 ? "ds1" : "ds2";
      if (std::string(algorithm) == "pagerank") {
        request.overrides = {
            {"tau", 0.001 / static_cast<double>(graph->num_vertices())}};
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

struct ScheduleOutcome {
  std::vector<std::string> reports;  // DeterministicContent, request order
  int total = 0;
  int answered = 0;
  int degraded = 0;
  int errors = 0;
};

// One full chaos run on a fresh service: a clean warm-up round (every
// request must be answered), then kChaosRounds rounds, each starting
// from cleared caches with profile.run failing at kFailProbability under
// a per-round seed.
ScheduleOutcome RunSchedule(const std::vector<PredictionRequest>& requests,
                            const HistoryStore& history) {
  fail::DisableAll();
  PredictionServiceOptions options;
  options.predictor = BasePredictorOptions();
  options.predictor.history = &history;
  options.predictor.robustness.degraded_fallbacks = true;
  options.num_threads = 4;
  PredictionService service(options);

  ScheduleOutcome outcome;
  for (const auto& result : service.PredictBatch(requests)) {
    if (!result.ok()) {
      std::fprintf(stderr, "warm-up request failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }

  for (int round = 1; round <= kChaosRounds; ++round) {
    service.ClearCaches();
    char spec[64];
    std::snprintf(spec, sizeof(spec), "prob:%g:seed=%d", kFailProbability,
                  round);
    const Status armed = fail::Configure("profile.run", spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "cannot arm profile.run: %s\n",
                   armed.ToString().c_str());
      std::exit(1);
    }
    for (const auto& result : service.PredictBatch(requests)) {
      ++outcome.total;
      if (result.ok()) {
        ++outcome.answered;
        if (result->degradation.degraded()) ++outcome.degraded;
      } else {
        ++outcome.errors;
      }
      outcome.reports.push_back(DeterministicContent(result));
    }
  }
  fail::DisableAll();
  return outcome;
}

}  // namespace

int main() {
  const Graph g1 = MakeGraph(3000, 101);
  const Graph g2 = MakeGraph(2200, 103);
  const HistoryStore history = SeedHistory();
  const std::vector<PredictionRequest> requests = MakeRequests(g1, g2);

  benchutil::BenchJson json("chaos_gate");
  json.Add("chaos_rounds", kChaosRounds);
  json.Add("fail_probability", kFailProbability);
  json.Add("requests_per_round", requests.size());

  // ---- 1. availability under 30% injected profile failures
  const ScheduleOutcome first = RunSchedule(requests, history);
  const double answered_fraction =
      first.total == 0
          ? 0.0
          : static_cast<double>(first.answered) / first.total;
  const bool availability_ok = answered_fraction >= 0.99;
  const bool chaos_bit = first.degraded > 0;  // the schedule actually injected
  std::printf(
      "chaos rounds: %d requests, %d answered (%d degraded), %d errors "
      "-> %.1f%% availability [%s]\n",
      first.total, first.answered, first.degraded, first.errors,
      100.0 * answered_fraction, availability_ok ? "OK" : "FAIL");
  json.Add("requests_total", first.total);
  json.Add("requests_answered", first.answered);
  json.Add("requests_degraded", first.degraded);
  json.Add("requests_errored", first.errors);
  json.Add("answered_fraction", answered_fraction);
  json.Add("availability_ok", availability_ok);
  json.Add("faults_injected", chaos_bit);

  // ---- 2. the same fault schedule replays byte-identically
  const ScheduleOutcome second = RunSchedule(requests, history);
  bool replay_ok = first.reports.size() == second.reports.size();
  size_t first_divergence = first.reports.size();
  if (replay_ok) {
    for (size_t i = 0; i < first.reports.size(); ++i) {
      if (first.reports[i] != second.reports[i]) {
        replay_ok = false;
        first_divergence = i;
        break;
      }
    }
  }
  std::printf("replay: %zu reports, %s\n", first.reports.size(),
              replay_ok ? "byte-identical [OK]" : "DIVERGED [FAIL]");
  if (!replay_ok && first_divergence < first.reports.size()) {
    std::printf("  first divergence at report %zu:\n    run1: %s\n    "
                "run2: %s\n",
                first_divergence, first.reports[first_divergence].c_str(),
                second.reports[first_divergence].c_str());
  }
  json.Add("replay_ok", replay_ok);

  // ---- 3. all fail points disarmed: service == plain Predictor
  fail::DisableAll();
  PredictionServiceOptions robust;
  robust.predictor = BasePredictorOptions();
  robust.predictor.history = &history;
  robust.predictor.robustness.retry.max_attempts = 3;
  robust.predictor.robustness.deadline_seconds = 3600.0;
  robust.predictor.robustness.degraded_fallbacks = true;
  robust.num_threads = 4;
  PredictionService service(robust);
  PredictorOptions plain = BasePredictorOptions();
  plain.history = &history;
  Predictor predictor(plain);

  bool disabled_ok = true;
  const auto served = service.PredictBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto direct = predictor.PredictRuntime(
        requests[i].algorithm, *requests[i].graph, requests[i].dataset,
        requests[i].overrides);
    if (DeterministicContent(served[i]) != DeterministicContent(direct)) {
      disabled_ok = false;
      std::printf("  disabled-equivalence mismatch on request %zu (%s/%s)\n",
                  i, requests[i].algorithm.c_str(),
                  requests[i].dataset.c_str());
    }
  }
  std::printf("disabled equivalence vs plain Predictor: %s\n",
              disabled_ok ? "bit-identical [OK]" : "MISMATCH [FAIL]");
  json.Add("disabled_equivalence_ok", disabled_ok);

  const bool ok = availability_ok && chaos_bit && replay_ok && disabled_ok;
  json.Add("gate_ok", ok);
  json.Write();
  std::printf("chaos_gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
