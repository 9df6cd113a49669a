#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "common/rng.h"
#include "core/distribution.h"
#include "core/predictor.h"
#include "datasets/datasets.h"
#include "graph/delta.h"
#include "helpers.h"
#include "pipeline/stages.h"
#include "service/prediction_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace predict;

// An untraced run sets up this many times and reports the median, the
// least steady number otherwise.
constexpr int kSetupRepeats = 3;
// p90 needs at least ten samples beyond it.
constexpr size_t kMinTimedRequests = 110;
// Span request id of the setup-phase calls of a traced run.
constexpr uint64_t kSetupRequest = 0;
// Span request id of the version-step probe (see ProbeVersionStep).
constexpr uint64_t kProbeRequest = ~uint64_t{0};

const std::vector<std::string> kCheapAlgorithms = {
    "pagerank", "connected_components", "rwr_proximity"};

struct Cell {
  std::string algorithm;
  size_t dataset = 0;
};

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Number(values[i]);
  }
  return out + "]";
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double Percent(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t FingerprintScans() { return Graph::FingerprintComputationsForTest(); }

// The paper's deployment (giraph-29) with every simulation inline on the
// one client thread: the numbers measure the predictor, not a scheduler.
PredictionServiceOptions PaperServiceOptions() {
  PredictionServiceOptions options;
  options.num_threads = 0;
  options.predictor.engine = PaperClusterOptions();
  options.predictor.engine.num_threads = 0;
  return options;
}

Result<std::vector<Graph>> BuildDatasets(const std::vector<std::string>& names) {
  std::vector<Graph> graphs;
  for (const std::string& name : names) {
    PREDICT_ASSIGN_OR_RETURN(Graph graph, MakeDataset(name, 1.0));
    graphs.push_back(std::move(graph));
  }
  return graphs;
}

std::string DatasetsMeta(const std::vector<std::string>& names,
                         const std::vector<const Graph*>& graphs) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + names[i] + "\", \"vertices\": " +
           std::to_string(graphs[i]->num_vertices()) + ", \"edges\": " +
           std::to_string(graphs[i]->num_edges()) + "}";
  }
  return out + "]";
}

std::string DatasetsMeta(const std::vector<std::string>& names,
                         const std::vector<Graph>& graphs) {
  std::vector<const Graph*> pointers;
  for (const Graph& graph : graphs) pointers.push_back(&graph);
  return DatasetsMeta(names, pointers);
}

// ------------------------------------------------------------------ setup

struct SetupTimes {
  double build_s = 0.0;  ///< datasets
  double warm_s = 0.0;   ///< cache priming and the untimed warm-up pass
  double total_s = 0.0;  ///< workload start to the first timed request
};

// Runs `set_up` on a fresh State `repeats` times, freeing each before the
// next is built, and keeps the last. `times` receives the medians.
template <typename State, typename SetUpFn>
Result<std::unique_ptr<State>> RepeatSetup(int repeats, SetUpFn set_up,
                                           SetupTimes* times,
                                           std::vector<double>* totals) {
  std::unique_ptr<State> state;
  std::vector<double> build;
  std::vector<double> warm;
  for (int rep = 0; rep < repeats; ++rep) {
    state.reset();
    // Hand the freed set-up back to the kernel, so each set-up starts
    // from the same heap and peak RSS does not stack their leftovers.
    malloc_trim(0);
    auto next = std::make_unique<State>();
    SetupTimes t;
    PREDICT_RETURN_NOT_OK(set_up(next.get(), &t));
    build.push_back(t.build_s);
    warm.push_back(t.warm_s);
    totals->push_back(t.total_s);
    state = std::move(next);
  }
  *times = {Median(build), Median(warm), Median(*totals)};
  return state;
}

// ------------------------------------------------------------ timed phase

struct Phase {
  std::vector<double> latencies;  ///< seconds, one per request
  double seconds = 0.0;           ///< wall time of the whole phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reports = 0;
  uint64_t stages_reused = 0;
  ServiceCacheStats start;
  ServiceCacheStats end;
  /// Peak RSS once kMinTimedRequests requests have run: the same amount
  /// of work on every host, however many more requests the time allows.
  double rss_mb = 0.0;

  void AddLatency(double request_seconds) {
    latencies.push_back(request_seconds);
    if (latencies.size() == kMinTimedRequests) rss_mb = PeakRssMb();
  }
  void CountReport(const Result<PredictionReport>& report) {
    ++reports;
    if (report.ok()) stages_reused += static_cast<uint64_t>(report->stages_reused);
  }
  void Finish(double phase_start, const ServiceCacheStats& stats) {
    seconds = NowSeconds() - phase_start;
    end = stats;
    if (rss_mb == 0.0) rss_mb = PeakRssMb();
  }
  double SampleHitPct() const {
    const double hits = static_cast<double>(end.sample_hits - start.sample_hits);
    return Percent(hits, hits + static_cast<double>(end.sample_misses -
                                                    start.sample_misses));
  }
  double ProfileHitPct() const {
    const double hits =
        static_cast<double>(end.profile_hits - start.profile_hits);
    return Percent(hits, hits + static_cast<double>(end.profile_misses -
                                                    start.profile_misses));
  }
  double StagesReusedPct() const {
    return Percent(static_cast<double>(stages_reused),
                   5.0 * static_cast<double>(reports));
  }
};

// --------------------------------------------------- output and accuracy

// Compares a served report with the uncached reference in canonical form.
bool CheckSame(const Result<PredictionReport>& served,
               const Result<PredictionReport>& reference,
               const std::string& what) {
  if (served.ok() && CanonicalResult(served) == CanonicalResult(reference)) {
    return true;
  }
  std::fprintf(stderr,
               "output check failed: %s\n  served:    %.300s\n  reference: "
               "%.300s\n",
               what.c_str(), CanonicalResult(served).c_str(),
               CanonicalResult(reference).c_str());
  return false;
}

struct PanelCell {
  const Result<PredictionReport>* report = nullptr;
  const Graph* graph = nullptr;
  std::string algorithm;
  bsp::EngineOptions engine;
};

struct Panel {
  double runtime_err_pct = 0.0;
  double iterations_err_pct = 0.0;
  double actual_run_s = 0.0;
};

// Runs each panel cell's actual job on the full graph and compares it
// with the served prediction (EvaluatePrediction).
Result<Panel> RunPanel(const std::vector<PanelCell>& cells) {
  Panel panel;
  for (const PanelCell& cell : cells) {
    if (!cell.report->ok()) return cell.report->status();
    RunOptions options;
    options.engine = cell.engine;
    const double start = NowSeconds();
    PREDICT_ASSIGN_OR_RETURN(AlgorithmRunResult run,
                             RunAlgorithmByName(cell.algorithm, *cell.graph,
                                                options));
    panel.actual_run_s += NowSeconds() - start;
    const PredictionEvaluation eval = EvaluatePrediction(**cell.report, run.stats);
    panel.runtime_err_pct += std::abs(eval.runtime_error);
    panel.iterations_err_pct += std::abs(eval.iterations_error);
  }
  const double n = static_cast<double>(cells.size());
  panel.runtime_err_pct *= 100.0 / n;
  panel.iterations_err_pct *= 100.0 / n;
  return panel;
}

void AddEndToEndMetrics(const Phase& phase, const SetupTimes& setup,
                        const std::vector<double>& setup_runs,
                        const Panel& panel, WorkloadResult* out) {
  const double p90 = Percentile(phase.latencies, 0.9);
  out->metrics = {
      {"latency_p50_ms", 1e3 * Percentile(phase.latencies, 0.5), "ms"},
      {"latency_p90_ms", 1e3 * p90, "ms"},
      {"throughput_rps",
       static_cast<double>(phase.latencies.size()) / phase.seconds, "1/s"},
      {"setup_s", setup.total_s, "s"},
      {"peak_rss_mb", phase.rss_mb, "MB"},
      {"runtime_err_pct", panel.runtime_err_pct, "%"},
      {"iterations_err_pct", panel.iterations_err_pct, "%"},
  };
  const auto beyond = std::count_if(phase.latencies.begin(),
                                    phase.latencies.end(),
                                    [&](double l) { return l > p90; });
  out->meta.emplace_back("timed_requests",
                         std::to_string(phase.latencies.size()));
  out->meta.emplace_back("p90_samples_beyond", std::to_string(beyond));
  out->meta.emplace_back("timed_phase_s", Number(phase.seconds));
  out->meta.emplace_back("setup_s_runs", NumberList(setup_runs));
}

// The request counts and cache ratios of the timed phase.
void AddPhase(const Phase& phase, WorkloadResult* out) {
  out->attempted = phase.attempted;
  out->failed = phase.failed;
  out->meta.emplace_back("sample_hit_pct", Number(phase.SampleHitPct()));
  out->meta.emplace_back("profile_hit_pct", Number(phase.ProfileHitPct()));
  out->meta.emplace_back("stages_reused_pct", Number(phase.StagesReusedPct()));
}

// ------------------------------------------------------------- layers

// What a traced run learns about each layer: spans plus the counts read
// off the results the layer calls return.
struct Layers {
  Tracer tracer;
  std::vector<double> superstep_host_s;
  uint64_t sample_runs = 0;
  uint64_t supersteps = 0;
  uint64_t dense_supersteps = 0;
  double messages = 0.0;
  double run_host_s = 0.0;
  uint64_t extracted_edges = 0;
  uint64_t segments_total = 0;
  uint64_t segments_reused = 0;
  std::vector<double> fingerprints_per_update;
  std::vector<double> service_overhead_s;

  double SpanSeconds(int index) const {
    return tracer.spans()[index].seconds();
  }

  void AddRun(const bsp::RunStats& stats) {
    ++sample_runs;
    supersteps += static_cast<uint64_t>(stats.num_supersteps());
    run_host_s += stats.wall_seconds;
    for (const bsp::SuperstepStats& step : stats.supersteps) {
      superstep_host_s.push_back(step.host_seconds);
      if (step.dense_path) ++dense_supersteps;
      messages += static_cast<double>(step.Totals().total_messages());
    }
  }

  // bsp.sample_run: the sample run ProfileStage makes, timed on its own.
  Status TimeSampleRun(const std::string& algorithm, const Graph& sample,
                       const AlgorithmConfig& config,
                       const bsp::EngineOptions& engine, uint64_t request) {
    RunOptions options;
    options.engine = engine;
    options.config_overrides = config;
    Result<AlgorithmRunResult> run = [&] {
      ScopedSpan span(tracer, "bsp.sample_run", request);
      return RunAlgorithmByName(algorithm, sample, options);
    }();
    if (!run.ok()) return run.status();
    AddRun(run->stats);
    return Status::OK();
  }

  // sampling.walk and graph.extract: SampleStage's two halves.
  Status TimeWalkAndExtract(const Graph& graph, const SamplerOptions& sampler,
                            uint64_t request) {
    Result<std::vector<VertexId>> vertices = [&] {
      ScopedSpan span(tracer, "sampling.walk", request);
      return SampleVertices(graph, sampler);
    }();
    if (!vertices.ok()) return vertices.status();
    Result<SubgraphResult> sub = [&] {
      ScopedSpan span(tracer, "graph.extract", request);
      return InducedSubgraph(graph, *vertices);
    }();
    if (!sub.ok()) return sub.status();
    extracted_edges += sub->graph.num_edges();
    return Status::OK();
  }

  // pipeline.extrapolate, pipeline.fit and core.bootstrap on the
  // artifacts a report was assembled from, each timed on its own.
  Status TimeBackHalf(const PredictionPipeline& stages, const Graph& graph,
                      const std::string& algorithm, const std::string& dataset,
                      const pipeline::SampleArtifact& sample,
                      const pipeline::ProfileArtifact& profile,
                      const PredictionReport& report, uint64_t request) {
    Result<pipeline::ExtrapolationArtifact> extrapolation = [&] {
      ScopedSpan span(tracer, "pipeline.extrapolate", request);
      return stages.extrapolate.Run(graph, sample, profile);
    }();
    if (!extrapolation.ok()) return extrapolation.status();
    Result<pipeline::ModelArtifact> model = [&] {
      ScopedSpan span(tracer, "pipeline.fit", request);
      return stages.fit.Run(profile, algorithm, dataset);
    }();
    if (!model.ok()) return model.status();
    ScopedSpan span(tracer, "core.bootstrap", request);
    BootstrapDistribution(report.per_iteration_seconds, model->residuals,
                          profile.straggler_spread, stages.bootstrap);
    return Status::OK();
  }

  // The service's own cost for one request: a warm Predict minus the
  // AssemblePredictionReport it wraps, timed back to back on the same
  // cell, scenario and artifacts.
  Status TimeServiceOverhead(PredictionService& service,
                             const PredictionRequest& request,
                             const PredictionPipeline& stages,
                             const pipeline::SampleArtifact& sample,
                             const pipeline::TransformArtifact& transform,
                             const pipeline::ProfileArtifact& profile,
                             uint64_t request_id) {
    int assemble_span = -1;
    {
      ScopedSpan span(tracer, "service.paired_assemble", request_id);
      assemble_span = span.index();
      PREDICT_RETURN_NOT_OK(
          AssemblePredictionReport(stages, *request.graph, request.algorithm,
                                   request.dataset, sample, transform, profile)
              .status());
    }
    int predict_span = -1;
    {
      ScopedSpan span(tracer, "service.predict_warm", request_id);
      predict_span = span.index();
      PREDICT_RETURN_NOT_OK(service.Predict(request).status());
    }
    service_overhead_s.push_back(SpanSeconds(predict_span) -
                                 SpanSeconds(assemble_span));
    return Status::OK();
  }
};

// The path half of one graph update: EvolvingGraph::Apply, then
// Current() compacting the new version.
Result<const Graph*> TimeUpdate(EvolvingGraph& evolving,
                                const EdgeDeltaBatch& batch, uint64_t request,
                                Tracer& tracer) {
  {
    ScopedSpan span(tracer, "graph.apply", request);
    PREDICT_RETURN_NOT_OK(evolving.Apply(batch));
  }
  ScopedSpan span(tracer, "graph.compact", request);
  return evolving.Current();
}

struct VersionStep {
  Graph copy;
  std::optional<pipeline::SampleArtifact> sample;
  SampleWalkRecord record;
};

// The work the service does for a new version, each layer timed on its
// own after the request: copy the version, fingerprint it, diff it
// against `previous`, and re-sample it incrementally from `record`.
Result<VersionStep> TimeVersionLayers(const Graph& current,
                                      const Graph& previous,
                                      const SampleWalkRecord& record,
                                      const pipeline::SampleStage& stage,
                                      uint64_t request, Layers* layers) {
  Tracer& tracer = layers->tracer;
  VersionStep step;
  {
    ScopedSpan span(tracer, "graph.version_copy", request);
    step.copy = current;
  }
  {
    // A copy shares the fingerprint memo; a rebuilt graph starts without.
    const Graph unfingerprinted = EvolvingGraph::Canonicalize(step.copy);
    ScopedSpan span(tracer, "graph.fingerprint", request);
    unfingerprinted.Fingerprint();
  }
  std::vector<VertexId> dirty;
  {
    ScopedSpan span(tracer, "graph.dirty_diff", request);
    dirty = DirtyOutVertices(previous, step.copy);
  }
  pipeline::SampleStage::IncrementalStats stats;
  {
    ScopedSpan span(tracer, "sampling.resample", request);
    PREDICT_ASSIGN_OR_RETURN(step.sample,
                             stage.RunIncremental(step.copy, dirty, record,
                                                  &step.record, &stats));
  }
  layers->segments_total += stats.segments_total;
  layers->segments_reused += stats.segments_reused;
  return step;
}

// Cold and warm requests never mutate a graph. So that every workload
// reports every layer, they time one seeded two-edge update of `graph`
// under their own sampler (an unsegmented walk re-samples in full).
Status ProbeVersionStep(const Graph& graph, const SamplerOptions& sampler,
                        uint64_t seed, Layers* layers) {
  EvolvingGraph evolving(graph);
  PREDICT_ASSIGN_OR_RETURN(const Graph* base, evolving.Current());
  const Graph before = *base;
  const pipeline::SampleStage stage(sampler);
  SampleWalkRecord record;
  PREDICT_RETURN_NOT_OK(stage.RunRecorded(before, &record).status());
  Rng rng(seed);
  EdgeDeltaBatch batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(EdgeDelta::Insert(
        static_cast<VertexId>(rng.Uniform(before.num_vertices())),
        static_cast<VertexId>(rng.Uniform(before.num_vertices()))));
  }
  ScopedSpan span(layers->tracer, "request", kProbeRequest);
  PREDICT_ASSIGN_OR_RETURN(
      const Graph* current,
      TimeUpdate(evolving, batch, kProbeRequest, layers->tracer));
  return TimeVersionLayers(*current, before, record, stage, kProbeRequest,
                           layers)
      .status();
}

// Every per-layer metric, from the traced replay (`layers`) and the
// untraced run of the same requests (`untraced`). `coverage` names the
// layer spans that together redo one request's work; `path` names the
// spans the traced request itself consists of.
void AddLayerMetrics(const Layers& layers, const Phase& untraced,
                     const SetupTimes& setup, double actual_run_s,
                     const std::vector<const char*>& coverage,
                     const std::vector<const char*>& path,
                     WorkloadResult* out) {
  const std::map<std::string, std::vector<double>> spans =
      layers.tracer.SelfSecondsByName();
  const auto median = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Median(it->second);
  };
  const auto total = [&](const std::vector<const char*>& names) {
    double sum = 0.0;
    for (const char* name : names) {
      const auto it = spans.find(name);
      if (it != spans.end()) sum += Sum(it->second);
    }
    return sum;
  };
  const double untraced_s = Sum(untraced.latencies);
  const double runs = static_cast<double>(layers.sample_runs);
  out->metrics = {
      {"sampling.walk_ms", 1e3 * median("sampling.walk"), "ms"},
      {"graph.extract_ms", 1e3 * median("graph.extract"), "ms"},
      {"graph.extract_edges_per_s",
       static_cast<double>(layers.extracted_edges) / total({"graph.extract"}),
       "1/s"},
      {"bsp.sample_run_ms", 1e3 * median("bsp.sample_run"), "ms"},
      {"bsp.superstep_host_ms", 1e3 * Median(layers.superstep_host_s), "ms"},
      {"bsp.dense_superstep_pct",
       Percent(static_cast<double>(layers.dense_supersteps),
               static_cast<double>(layers.supersteps)),
       "%"},
      {"bsp.messages_per_s", layers.messages / layers.run_host_s, "1/s"},
      {"bsp.supersteps", static_cast<double>(layers.supersteps) / runs,
       "count"},
      {"pipeline.extrapolate_us", 1e6 * median("pipeline.extrapolate"), "us"},
      {"pipeline.fit_us", 1e6 * median("pipeline.fit"), "us"},
      {"core.bootstrap_us", 1e6 * median("core.bootstrap"), "us"},
      {"core.assemble_us", 1e6 * median("core.assemble"), "us"},
      {"service.overhead_us", 1e6 * Median(layers.service_overhead_s), "us"},
      {"service.sample_hit_pct", untraced.SampleHitPct(), "%"},
      {"service.profile_hit_pct", untraced.ProfileHitPct(), "%"},
      {"service.stages_reused_pct", untraced.StagesReusedPct(), "%"},
      {"service.warm_s", setup.warm_s, "s"},
      {"datasets.build_s", setup.build_s, "s"},
      {"graph.apply_ms", 1e3 * median("graph.apply"), "ms"},
      {"graph.compact_ms", 1e3 * median("graph.compact"), "ms"},
      {"graph.fingerprint_ms", 1e3 * median("graph.fingerprint"), "ms"},
      {"graph.fingerprints_per_update", Median(layers.fingerprints_per_update),
       "count"},
      {"graph.dirty_diff_ms", 1e3 * median("graph.dirty_diff"), "ms"},
      {"graph.version_copy_ms", 1e3 * median("graph.version_copy"), "ms"},
      {"sampling.resample_ms", 1e3 * median("sampling.resample"), "ms"},
      {"sampling.segments_reused_pct",
       Percent(static_cast<double>(layers.segments_reused),
               static_cast<double>(layers.segments_total)),
       "%"},
      {"algorithms.actual_run_s", actual_run_s, "s"},
      {"trace.coverage_pct", Percent(total(coverage), untraced_s), "%"},
      {"trace.overhead_pct", 100.0 * (total(path) / untraced_s - 1.0), "%"},
  };
  out->meta.emplace_back("traced_sample_runs", std::to_string(layers.sample_runs));
  out->meta.emplace_back("traced_spans",
                         std::to_string(layers.tracer.spans().size()));
}

Status WriteTrace(const Layers& layers, const RunConfig& config) {
  if (config.trace_path.empty() ||
      layers.tracer.WriteJsonLines(config.trace_path)) {
    return Status::OK();
  }
  return Status::IOError("cannot write spans to " + config.trace_path);
}

// ============================================================ cold_paper
//
// Every request misses both caches (ClearCaches before each), so the
// sampler, subgraph extraction and the BSP sample run do nearly all the
// work: the paper's own use of PREDIcT.

// Timed rounds at most, after the warm-up round; traced runs replay this
// many.
constexpr uint32_t kColdMaxRounds = 12;
constexpr uint32_t kColdTraceRounds = 2;

struct PaperState {
  std::vector<Graph> graphs;
  std::unique_ptr<PredictionService> service;
  std::vector<PredictionRequest> requests;  ///< one per cell
};

std::vector<PredictionRequest> MakeRequests(
    const std::vector<Cell>& cells, const std::vector<std::string>& names,
    const std::vector<Graph>& graphs) {
  std::vector<PredictionRequest> requests;
  for (const Cell& cell : cells) {
    PredictionRequest request;
    request.algorithm = cell.algorithm;
    request.graph = &graphs[cell.dataset];
    request.dataset = names[cell.dataset];
    requests.push_back(std::move(request));
  }
  return requests;
}

// All six algorithms on the four stand-ins, but semiclustering only on
// lj: its cold requests cost 0.5 s (lj) to 3 s (tw), its four cells three
// times the other twenty together. With one share in 21 the top tenth of
// a round's latencies is that cell plus the topk/neighborhood cells on tw
// and uk, so p90 falls inside that cluster rather than on one cell.
std::vector<Cell> ColdPaperCells(const std::vector<std::string>& names) {
  const std::vector<std::string> algorithms = {
      "pagerank",     "connected_components", "rwr_proximity",
      "topk_ranking", "neighborhood",         "semiclustering"};
  std::vector<Cell> cells;
  for (size_t d = 0; d < names.size(); ++d) {
    for (const std::string& algorithm : algorithms) {
      if (algorithm == "semiclustering" && names[d] != "lj") continue;
      cells.push_back({algorithm, d});
    }
  }
  return cells;
}

size_t FindCell(const std::vector<Cell>& cells,
                const std::vector<std::string>& names,
                const std::string& algorithm, const std::string& dataset) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].algorithm == algorithm && names[cells[i].dataset] == dataset) {
      return i;
    }
  }
  return cells.size();
}

// The traced replay of cold requests, composed from the public stage
// calls because Predict cannot be opened from outside. The stages run on
// the path; each layer they contain is timed again beside them.
Status TraceColdReplay(PaperState& state,
                       const std::vector<std::vector<uint32_t>>& rounds,
                       const PredictionServiceOptions& options,
                       const std::vector<Result<PredictionReport>>& served,
                       Layers* layers, bool* composed_ok) {
  const PredictionPipeline stages(options.predictor);
  const bsp::EngineOptions& engine = options.predictor.engine;
  Tracer& tracer = layers->tracer;
  uint64_t id = 0;
  for (uint32_t r = 1; r <= kColdTraceRounds; ++r) {
    for (const uint32_t idx : rounds[r]) {
      ++id;
      const PredictionRequest& request = state.requests[idx];
      const Graph& graph = *request.graph;
      const std::string& algorithm = request.algorithm;
      ScopedSpan request_span(tracer, "request", id);

      Result<pipeline::SampleArtifact> sample = [&] {
        ScopedSpan span(tracer, "pipeline.sample", id);
        return stages.sample.Run(graph);
      }();
      if (!sample.ok()) return sample.status();
      Result<pipeline::TransformArtifact> transform = [&] {
        ScopedSpan span(tracer, "pipeline.transform", id);
        return stages.transform.Run(algorithm, request.overrides,
                                    sample->realized_ratio());
      }();
      if (!transform.ok()) return transform.status();
      Result<pipeline::ProfileArtifact> profile = [&] {
        ScopedSpan span(tracer, "pipeline.profile", id);
        return stages.profile.RunWithEngine(algorithm, request.dataset, *sample,
                                            *transform, engine);
      }();
      if (!profile.ok()) return profile.status();
      Result<PredictionReport> report = [&] {
        ScopedSpan span(tracer, "core.assemble", id);
        return AssemblePredictionReport(stages, graph, algorithm,
                                        request.dataset, *sample, *transform,
                                        *profile);
      }();
      if (!report.ok()) return report.status();
      *composed_ok = CheckSame(report, served[idx],
                               "stage composition of " + algorithm + "/" +
                                   request.dataset) &&
                     *composed_ok;

      PREDICT_RETURN_NOT_OK(layers->TimeWalkAndExtract(
          graph, options.predictor.sampler, id));
      {
        // The service fingerprints every new sample (its content key).
        ScopedSpan span(tracer, "graph.fingerprint", id);
        sample->sample.subgraph.Fingerprint();
      }
      PREDICT_RETURN_NOT_OK(layers->TimeSampleRun(
          algorithm, sample->sample.subgraph, transform->sample_config, engine,
          id));
      PREDICT_RETURN_NOT_OK(layers->TimeBackHalf(stages, graph, algorithm,
                                                 request.dataset, *sample,
                                                 *profile, *report, id));
      state.service->ClearCaches();
      const uint64_t scans = FingerprintScans();
      {
        ScopedSpan span(tracer, "service.predict_cold", id);
        PREDICT_RETURN_NOT_OK(state.service->Predict(request).status());
      }
      layers->fingerprints_per_update.push_back(
          static_cast<double>(FingerprintScans() - scans));
      PREDICT_RETURN_NOT_OK(layers->TimeServiceOverhead(
          *state.service, request, stages, *sample, *transform, *profile, id));
    }
  }
  return Status::OK();
}

}  // namespace

Result<WorkloadResult> RunColdPaper(const RunConfig& config) {
  WorkloadResult out;
  const std::vector<std::string> names = PaperDatasetNames();
  const std::vector<Cell> cells = ColdPaperCells(names);
  const PredictionServiceOptions options = PaperServiceOptions();
  // Round 0 is the untimed warm-up pass; timed rounds follow.
  const std::vector<std::vector<uint32_t>> rounds = ShuffledRounds(
      static_cast<uint32_t>(cells.size()), 1 + kColdMaxRounds, config.seed);

  SetupTimes setup;
  std::vector<double> setup_runs;
  PREDICT_ASSIGN_OR_RETURN(
      std::unique_ptr<PaperState> state,
      RepeatSetup<PaperState>(
          config.trace ? 1 : kSetupRepeats,
          [&](PaperState* s, SetupTimes* t) -> Status {
            const double start = NowSeconds();
            PREDICT_ASSIGN_OR_RETURN(s->graphs, BuildDatasets(names));
            const double built = NowSeconds();
            s->service = std::make_unique<PredictionService>(options);
            s->requests = MakeRequests(cells, names, s->graphs);
            for (const uint32_t idx : rounds[0]) {
              s->service->ClearCaches();
              PREDICT_RETURN_NOT_OK(s->service->Predict(s->requests[idx]).status());
            }
            const double end = NowSeconds();
            *t = {built - start, end - built, end - start};
            return Status::OK();
          },
          &setup, &setup_runs));
  PredictionService& service = *state->service;

  // Timed phase: whole rounds until both the time and the p90 sample
  // floor are reached (a traced run times exactly the rounds it replays).
  Phase phase;
  std::vector<Result<PredictionReport>> served(cells.size(),
                                               Status::Internal("not served"));
  const uint32_t last_round = config.trace ? kColdTraceRounds : kColdMaxRounds;
  phase.start = service.cache_stats();
  const double phase_start = NowSeconds();
  for (uint32_t r = 1; r <= last_round; ++r) {
    for (const uint32_t idx : rounds[r]) {
      service.ClearCaches();
      const double t0 = NowSeconds();
      Result<PredictionReport> report = service.Predict(state->requests[idx]);
      phase.AddLatency(NowSeconds() - t0);
      ++phase.attempted;
      if (!report.ok()) ++phase.failed;
      phase.CountReport(report);
      served[idx] = std::move(report);
    }
    if (!config.trace && NowSeconds() - phase_start >= config.seconds &&
        phase.latencies.size() >= kMinTimedRequests) {
      break;
    }
  }
  phase.Finish(phase_start, service.cache_stats());

  // Output check: every distinct cell against an uncached Predictor.
  Predictor reference(options.predictor);
  for (size_t i = 0; i < cells.size(); ++i) {
    const PredictionRequest& request = state->requests[i];
    out.correct = CheckSame(served[i],
                            reference.PredictRuntime(request.algorithm,
                                                     *request.graph,
                                                     request.dataset),
                            request.algorithm + "/" + request.dataset) &&
                  out.correct;
  }

  // Accuracy panel: cells whose actual runs take well under a second.
  std::vector<PanelCell> panel_cells;
  for (const auto& [algorithm, dataset] :
       std::vector<std::pair<std::string, std::string>>{
           {"pagerank", "lj"},
           {"connected_components", "wiki"},
           {"rwr_proximity", "uk"},
           {"connected_components", "tw"}}) {
    const size_t i = FindCell(cells, names, algorithm, dataset);
    panel_cells.push_back({&served[i], state->requests[i].graph, algorithm,
                           options.predictor.engine});
  }
  PREDICT_ASSIGN_OR_RETURN(const Panel panel, RunPanel(panel_cells));

  out.meta.emplace_back("datasets", DatasetsMeta(names, state->graphs));
  out.meta.emplace_back("cells", std::to_string(cells.size()));
  out.meta.emplace_back("checked_cells", std::to_string(cells.size()));
  AddPhase(phase, &out);
  if (!config.trace) {
    AddEndToEndMetrics(phase, setup, setup_runs, panel, &out);
    return out;
  }

  Layers layers;
  bool composed_ok = true;
  PREDICT_RETURN_NOT_OK(TraceColdReplay(*state, rounds, options, served,
                                        &layers, &composed_ok));
  out.correct = out.correct && composed_ok;
  out.attempted += phase.attempted;
  PREDICT_RETURN_NOT_OK(ProbeVersionStep(state->graphs[0],
                                         options.predictor.sampler,
                                         config.seed, &layers));
  AddLayerMetrics(layers, phase, setup, panel.actual_run_s,
                  {"sampling.walk", "graph.extract", "graph.fingerprint",
                   "bsp.sample_run", "core.assemble"},
                  {"pipeline.sample", "pipeline.transform", "pipeline.profile",
                   "core.assemble"},
                  &out);
  PREDICT_RETURN_NOT_OK(WriteTrace(layers, config));
  return out;
}

// =========================================================== warm_whatif
//
// The mirror of cold_paper: a service warmed in setup answers what-if
// sweeps over the five built-in deployments from its caches, so the
// timed phase runs only cache lookups and the per-scenario extrapolate,
// fit and bootstrap.

namespace {

// Zipf exponent of the cell popularity.
constexpr double kZipfExponent = 1.0;
constexpr size_t kWarmDraws = size_t{1} << 17;
constexpr size_t kWarmTraceRequests = 2000;

// The three cheap algorithms on the four stand-ins, most popular first.
// Priming them costs 60 sample runs; adding topk and neighborhood would
// triple the setup.
std::vector<Cell> WarmWhatifCells(size_t num_datasets) {
  std::vector<Cell> cells;
  for (const std::string& algorithm : kCheapAlgorithms) {
    for (size_t d = 0; d < num_datasets; ++d) cells.push_back({algorithm, d});
  }
  return cells;
}

// The traced replay of warm sweeps: the service call runs on the path;
// beside it, each scenario's back half is assembled again from the
// benchmark's own artifacts, and one warm Predict is timed against it.
Status TraceWarmReplay(PaperState& state, const std::vector<Cell>& cells,
                       const std::vector<uint32_t>& draws,
                       const PredictionServiceOptions& options,
                       Layers* layers, bool* composed_ok) {
  const std::vector<bsp::ClusterScenario>& scenarios = bsp::BuiltinScenarios();
  const PredictionPipeline stages(options.predictor);
  Tracer& tracer = layers->tracer;

  // The artifacts the service holds warm, rebuilt here so the back half
  // can be timed on its own. The sample runs they take are the setup's
  // layers.
  std::vector<std::optional<pipeline::SampleArtifact>> samples(
      state.graphs.size());
  std::vector<std::optional<pipeline::TransformArtifact>> transforms(
      cells.size());
  std::vector<std::vector<pipeline::ProfileArtifact>> profiles(cells.size());
  {
    ScopedSpan setup_span(tracer, "request", kSetupRequest);
    for (size_t d = 0; d < state.graphs.size(); ++d) {
      PREDICT_ASSIGN_OR_RETURN(samples[d], stages.sample.Run(state.graphs[d]));
      PREDICT_RETURN_NOT_OK(layers->TimeWalkAndExtract(
          state.graphs[d], options.predictor.sampler, kSetupRequest));
      ScopedSpan span(tracer, "graph.fingerprint", kSetupRequest);
      samples[d]->sample.subgraph.Fingerprint();
    }
    for (size_t c = 0; c < cells.size(); ++c) {
      const pipeline::SampleArtifact& sample = *samples[cells[c].dataset];
      const PredictionRequest& request = state.requests[c];
      PREDICT_ASSIGN_OR_RETURN(
          transforms[c], stages.transform.Run(request.algorithm,
                                              request.overrides,
                                              sample.realized_ratio()));
      for (const bsp::ClusterScenario& scenario : scenarios) {
        const bsp::EngineOptions engine = scenario.ToEngineOptions(0);
        PREDICT_ASSIGN_OR_RETURN(
            pipeline::ProfileArtifact profile,
            stages.profile.RunWithEngine(request.algorithm, request.dataset,
                                         sample, *transforms[c], engine));
        profiles[c].push_back(std::move(profile));
        PREDICT_RETURN_NOT_OK(layers->TimeSampleRun(
            request.algorithm, sample.sample.subgraph,
            transforms[c]->sample_config, engine, kSetupRequest));
      }
    }
  }

  for (size_t i = 0; i < draws.size(); ++i) {
    const uint64_t id = i + 1;
    const uint32_t c = draws[i];
    const PredictionRequest& request = state.requests[c];
    const Graph& graph = *request.graph;
    const pipeline::SampleArtifact& sample = *samples[cells[c].dataset];
    ScopedSpan request_span(tracer, "request", id);
    const uint64_t scans = FingerprintScans();
    std::vector<Result<PredictionReport>> served = [&] {
      ScopedSpan span(tracer, "service.predict_scenarios", id);
      return state.service->PredictScenarios(request, scenarios);
    }();
    layers->fingerprints_per_update.push_back(
        static_cast<double>(FingerprintScans() - scans));
    for (size_t s = 0; s < scenarios.size(); ++s) {
      const pipeline::ProfileArtifact& profile = profiles[c][s];
      Result<PredictionReport> report = [&] {
        ScopedSpan span(tracer, "core.assemble", id);
        return AssemblePredictionReport(stages, graph, request.algorithm,
                                        request.dataset, sample, *transforms[c],
                                        profile);
      }();
      if (!report.ok()) return report.status();
      report->scenario = scenarios[s].name;
      *composed_ok = CheckSame(report, served[s],
                               "warm composition of " + request.algorithm +
                                   "/" + request.dataset + "@" +
                                   scenarios[s].name) &&
                     *composed_ok;
      PREDICT_RETURN_NOT_OK(layers->TimeBackHalf(stages, graph,
                                                 request.algorithm,
                                                 request.dataset, sample,
                                                 profile, *report, id));
      PredictionRequest scenario_request = request;
      scenario_request.scenario = scenarios[s];
      PREDICT_RETURN_NOT_OK(layers->TimeServiceOverhead(
          *state.service, scenario_request, stages, sample, *transforms[c],
          profile, id));
    }
  }
  return Status::OK();
}

}  // namespace

Result<WorkloadResult> RunWarmWhatif(const RunConfig& config) {
  WorkloadResult out;
  const std::vector<std::string> names = PaperDatasetNames();
  const std::vector<Cell> cells = WarmWhatifCells(names.size());
  const std::vector<bsp::ClusterScenario>& scenarios = bsp::BuiltinScenarios();
  const PredictionServiceOptions options = PaperServiceOptions();
  const std::vector<uint32_t> draws =
      ZipfDraws(static_cast<uint32_t>(cells.size()), kZipfExponent,
                config.trace ? kWarmTraceRequests : kWarmDraws, config.seed);

  SetupTimes setup;
  std::vector<double> setup_runs;
  PREDICT_ASSIGN_OR_RETURN(
      std::unique_ptr<PaperState> state,
      RepeatSetup<PaperState>(
          config.trace ? 1 : kSetupRepeats,
          [&](PaperState* s, SetupTimes* t) -> Status {
            const double start = NowSeconds();
            PREDICT_ASSIGN_OR_RETURN(s->graphs, BuildDatasets(names));
            const double built = NowSeconds();
            s->service = std::make_unique<PredictionService>(options);
            s->requests = MakeRequests(cells, names, s->graphs);
            // Priming, then one untimed pass over the warm cells.
            for (int pass = 0; pass < 2; ++pass) {
              for (const PredictionRequest& request : s->requests) {
                for (const Result<PredictionReport>& r :
                     s->service->PredictScenarios(request, scenarios)) {
                  PREDICT_RETURN_NOT_OK(r.status());
                }
              }
            }
            const double end = NowSeconds();
            *t = {built - start, end - built, end - start};
            return Status::OK();
          },
          &setup, &setup_runs));
  PredictionService& service = *state->service;

  Phase phase;
  std::vector<std::vector<Result<PredictionReport>>> served(cells.size());
  phase.start = service.cache_stats();
  const double phase_start = NowSeconds();
  for (size_t i = 0;; ++i) {
    if (config.trace && i == draws.size()) break;
    const uint32_t c = draws[i % draws.size()];
    const double t0 = NowSeconds();
    std::vector<Result<PredictionReport>> results =
        service.PredictScenarios(state->requests[c], scenarios);
    const double t1 = NowSeconds();
    phase.AddLatency(t1 - t0);
    ++phase.attempted;
    bool ok = true;
    for (const Result<PredictionReport>& r : results) {
      ok = ok && r.ok();
      phase.CountReport(r);
    }
    if (!ok) ++phase.failed;
    served[c] = std::move(results);
    if (!config.trace && t1 - phase_start >= config.seconds) break;
  }
  phase.Finish(phase_start, service.cache_stats());

  // Output check: every served cell's sweep against an uncached
  // Predictor's sweep.
  Predictor reference(options.predictor);
  size_t checked = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    if (served[c].empty()) continue;
    ++checked;
    const PredictionRequest& request = state->requests[c];
    const std::vector<Result<PredictionReport>> expected =
        reference.PredictAcrossScenarios(request.algorithm, *request.graph,
                                         request.dataset, request.overrides,
                                         scenarios);
    for (size_t s = 0; s < scenarios.size(); ++s) {
      out.correct = CheckSame(served[c][s], expected[s],
                              request.algorithm + "/" + request.dataset + "@" +
                                  scenarios[s].name) &&
                    out.correct;
    }
  }

  // Accuracy panel: cheap cells, each under another deployment.
  struct PanelEntry {
    const char* algorithm;
    const char* dataset;
    size_t scenario;  ///< index into BuiltinScenarios()
  };
  std::vector<PanelCell> panel_cells;
  for (const PanelEntry& entry : {PanelEntry{"pagerank", "lj", 0},
                                  PanelEntry{"connected_components", "wiki", 1},
                                  PanelEntry{"rwr_proximity", "uk", 2},
                                  PanelEntry{"connected_components", "tw", 3}}) {
    const size_t c = FindCell(cells, names, entry.algorithm, entry.dataset);
    if (served[c].empty()) {
      return Status::Internal("accuracy panel cell was never served");
    }
    panel_cells.push_back({&served[c][entry.scenario], state->requests[c].graph,
                           entry.algorithm,
                           scenarios[entry.scenario].ToEngineOptions(0)});
  }
  PREDICT_ASSIGN_OR_RETURN(const Panel panel, RunPanel(panel_cells));

  out.meta.emplace_back("datasets", DatasetsMeta(names, state->graphs));
  out.meta.emplace_back("cells", std::to_string(cells.size()));
  out.meta.emplace_back("scenarios", std::to_string(scenarios.size()));
  out.meta.emplace_back("checked_cells", std::to_string(checked));
  AddPhase(phase, &out);
  if (!config.trace) {
    AddEndToEndMetrics(phase, setup, setup_runs, panel, &out);
    return out;
  }

  Layers layers;
  bool composed_ok = true;
  PREDICT_RETURN_NOT_OK(
      TraceWarmReplay(*state, cells, draws, options, &layers, &composed_ok));
  out.correct = out.correct && composed_ok;
  out.attempted += phase.attempted;
  PREDICT_RETURN_NOT_OK(ProbeVersionStep(state->graphs[0],
                                         options.predictor.sampler,
                                         config.seed, &layers));
  AddLayerMetrics(layers, phase, setup, panel.actual_run_s, {"core.assemble"},
                  {"service.predict_scenarios"}, &out);
  PREDICT_RETURN_NOT_OK(WriteTrace(layers, config));
  return out;
}

// ========================================================== churn_stream
//
// One stand-in held in an EvolvingGraph; each request applies one small
// edge update and re-predicts three algorithms on the new version. The
// only workload that writes as well as reads.

namespace {

const char* const kChurnDataset = "wiki";
constexpr uint32_t kChurnWarmupRounds = 2;
constexpr uint32_t kChurnMaxRounds = 110;
constexpr uint32_t kChurnTraceRounds = 10;

// Random Jump with segmented walks: under the paper's BRJ even 1% churn
// shifts the top-degree seed set and every update re-walks from scratch.
SamplerOptions ChurnSampler() {
  SamplerOptions sampler;
  sampler.kind = SamplerKind::kRandomJump;
  sampler.walk_segment_steps = 512;
  return sampler;
}

PredictionServiceOptions ChurnServiceOptions() {
  PredictionServiceOptions options = PaperServiceOptions();
  options.predictor.sampler = ChurnSampler();
  return options;
}

Result<Graph> BuildChurnBase() {
  PREDICT_ASSIGN_OR_RETURN(Graph graph, MakeDataset(kChurnDataset, 1.0));
  return EvolvingGraph::Canonicalize(std::move(graph));
}

struct ChurnState {
  std::optional<EvolvingGraph> graph;
  std::unique_ptr<PredictionService> service;
  /// The reports primed on the unchanged base: the accuracy panel.
  std::vector<Result<PredictionReport>> base_reports;
};

PredictionRequest ChurnRequest(const std::string& algorithm, const Graph* graph) {
  PredictionRequest request;
  request.algorithm = algorithm;
  request.graph = graph;
  request.dataset = kChurnDataset;
  return request;
}

// One request: apply the update, then re-predict every algorithm on the
// new version. Returns the reports; `version` receives the version.
Result<std::vector<Result<PredictionReport>>> ApplyAndPredict(
    ChurnState& state, const EdgeDeltaBatch& batch, const Graph** version) {
  PREDICT_RETURN_NOT_OK(state.graph->Apply(batch));
  PREDICT_ASSIGN_OR_RETURN(*version, state.graph->Current());
  std::vector<Result<PredictionReport>> reports;
  for (const std::string& algorithm : kCheapAlgorithms) {
    reports.push_back(state.service->Predict(ChurnRequest(algorithm, *version)));
  }
  return reports;
}

Status SetUpChurn(const ChurnStream& stream, const PredictionServiceOptions& options,
                  ChurnState* state, SetupTimes* times) {
  const double start = NowSeconds();
  PREDICT_ASSIGN_OR_RETURN(Graph base, BuildChurnBase());
  state->graph.emplace(std::move(base));
  const double built = NowSeconds();
  state->service = std::make_unique<PredictionService>(options);
  PREDICT_ASSIGN_OR_RETURN(const Graph* version, state->graph->Current());
  for (const std::string& algorithm : kCheapAlgorithms) {
    state->base_reports.push_back(
        state->service->Predict(ChurnRequest(algorithm, version)));
    PREDICT_RETURN_NOT_OK(state->base_reports.back().status());
  }
  for (uint32_t u = 0; u < kChurnWarmupRounds * kChurnUpdatesPerRound; ++u) {
    PREDICT_ASSIGN_OR_RETURN(
        const std::vector<Result<PredictionReport>> reports,
        ApplyAndPredict(*state, stream.updates[u].batch, &version));
    for (const Result<PredictionReport>& r : reports) {
      PREDICT_RETURN_NOT_OK(r.status());
    }
  }
  const double end = NowSeconds();
  *times = {built - start, end - built, end - start};
  return Status::OK();
}

// The traced replay of churn updates on a fresh setup: Apply, Current and
// the service calls run on the path; beside them, each layer the service
// runs inside Predict is timed on the benchmark's own copy of the state.
Status TraceChurnReplay(ChurnState& state, const ChurnStream& stream,
                        const PredictionServiceOptions& options,
                        Layers* layers, bool* composed_ok) {
  const PredictionPipeline stages(options.predictor);
  const bsp::EngineOptions& engine = options.predictor.engine;
  Tracer& tracer = layers->tracer;
  const size_t algorithms = kCheapAlgorithms.size();

  PREDICT_ASSIGN_OR_RETURN(const Graph* current, state.graph->Current());
  Graph previous = *current;
  SampleWalkRecord record;
  std::optional<pipeline::SampleArtifact> sample;
  std::vector<std::optional<pipeline::TransformArtifact>> transforms(algorithms);
  std::vector<std::optional<pipeline::ProfileArtifact>> profiles(algorithms);
  std::string content;
  {
    ScopedSpan setup_span(tracer, "request", kSetupRequest);
    PREDICT_RETURN_NOT_OK(layers->TimeWalkAndExtract(
        previous, options.predictor.sampler, kSetupRequest));
    PREDICT_ASSIGN_OR_RETURN(sample,
                             stages.sample.RunRecorded(previous, &record));
  }

  const size_t first = kChurnWarmupRounds * kChurnUpdatesPerRound;
  const size_t last = first + kChurnTraceRounds * kChurnUpdatesPerRound;
  for (size_t u = first; u < last; ++u) {
    const uint64_t id = u - first + 1;
    ScopedSpan request_span(tracer, "request", id);
    PREDICT_ASSIGN_OR_RETURN(
        const Graph* current,
        TimeUpdate(*state.graph, stream.updates[u].batch, id, tracer));
    const uint64_t scans = FingerprintScans();
    std::vector<Result<PredictionReport>> served;
    for (const std::string& algorithm : kCheapAlgorithms) {
      ScopedSpan span(tracer, "service.predict_update", id);
      served.push_back(state.service->Predict(ChurnRequest(algorithm, current)));
    }
    layers->fingerprints_per_update.push_back(
        static_cast<double>(FingerprintScans() - scans));

    PREDICT_ASSIGN_OR_RETURN(VersionStep step,
                             TimeVersionLayers(*current, previous, record,
                                               stages.sample, id, layers));
    const std::string new_content = step.sample->ContentKey();
    for (size_t a = 0; a < algorithms; ++a) {
      const std::string& algorithm = kCheapAlgorithms[a];
      if (new_content != content) {
        PREDICT_ASSIGN_OR_RETURN(
            transforms[a], stages.transform.Run(algorithm, {},
                                                step.sample->realized_ratio()));
        PREDICT_ASSIGN_OR_RETURN(
            profiles[a], stages.profile.RunWithEngine(algorithm, kChurnDataset,
                                                      *step.sample,
                                                      *transforms[a], engine));
        PREDICT_RETURN_NOT_OK(layers->TimeSampleRun(
            algorithm, step.sample->sample.subgraph,
            transforms[a]->sample_config, engine, id));
      }
      Result<PredictionReport> report = [&] {
        ScopedSpan span(tracer, "core.assemble", id);
        return AssemblePredictionReport(stages, step.copy, algorithm,
                                        kChurnDataset, *step.sample,
                                        *transforms[a], *profiles[a]);
      }();
      if (!report.ok()) return report.status();
      *composed_ok = CheckSame(report, served[a],
                               "churn composition of " + algorithm) &&
                     *composed_ok;
      PREDICT_RETURN_NOT_OK(layers->TimeBackHalf(stages, step.copy, algorithm,
                                                 kChurnDataset, *step.sample,
                                                 *profiles[a], *report, id));
    }
    PREDICT_RETURN_NOT_OK(layers->TimeServiceOverhead(
        *state.service, ChurnRequest(kCheapAlgorithms[0], current), stages,
        *step.sample, *transforms[0], *profiles[0], id));
    content = new_content;
    previous = std::move(step.copy);
    record = std::move(step.record);
    sample = std::move(step.sample);
  }
  return Status::OK();
}

}  // namespace

Result<WorkloadResult> RunChurnStream(const RunConfig& config) {
  WorkloadResult out;
  const PredictionServiceOptions options = ChurnServiceOptions();
  const uint32_t timed_rounds =
      config.trace ? kChurnTraceRounds : kChurnMaxRounds;

  // The whole stream is generated before setup: warm-up rounds, timed
  // rounds, and one round for the output check.
  const double generate_start = NowSeconds();
  PREDICT_ASSIGN_OR_RETURN(const Graph generator_base, BuildChurnBase());
  PREDICT_ASSIGN_OR_RETURN(
      const ChurnStream stream,
      MakeChurnStream(generator_base, options.predictor.sampler,
                      kChurnWarmupRounds + timed_rounds + 1, config.seed));
  const double generate_s = NowSeconds() - generate_start;

  const auto set_up = [&](ChurnState* s, SetupTimes* t) {
    return SetUpChurn(stream, options, s, t);
  };
  SetupTimes setup;
  std::vector<double> setup_runs;
  PREDICT_ASSIGN_OR_RETURN(
      std::unique_ptr<ChurnState> state,
      RepeatSetup<ChurnState>(config.trace ? 1 : kSetupRepeats, set_up, &setup,
                              &setup_runs));

  Phase phase;
  uint64_t kept_sample = 0;
  uint64_t core_updates = 0;
  size_t next = kChurnWarmupRounds * kChurnUpdatesPerRound;
  phase.start = state->service->cache_stats();
  const double phase_start = NowSeconds();
  for (uint32_t r = 0; r < timed_rounds; ++r) {
    for (uint32_t i = 0; i < kChurnUpdatesPerRound; ++i, ++next) {
      const uint64_t profile_hits = state->service->cache_stats().profile_hits;
      const Graph* version = nullptr;
      const double t0 = NowSeconds();
      Result<std::vector<Result<PredictionReport>>> reports =
          ApplyAndPredict(*state, stream.updates[next].batch, &version);
      phase.AddLatency(NowSeconds() - t0);
      ++phase.attempted;
      bool ok = reports.ok();
      if (ok) {
        for (const Result<PredictionReport>& report : *reports) {
          ok = ok && report.ok();
          phase.CountReport(report);
        }
      }
      if (!ok) ++phase.failed;
      if (stream.updates[next].core) ++core_updates;
      if (state->service->cache_stats().profile_hits - profile_hits ==
          kCheapAlgorithms.size()) {
        ++kept_sample;
      }
    }
    if (!config.trace && NowSeconds() - phase_start >= config.seconds &&
        phase.latencies.size() >= kMinTimedRequests) {
      break;
    }
  }
  phase.Finish(phase_start, state->service->cache_stats());

  // Output check, after the timed phase: the next round's first periphery
  // and first core update, each against an uncached Predictor on the
  // version it produced.
  Predictor reference(options.predictor);
  bool checked_periphery = false;
  bool checked_core = false;
  for (uint32_t i = 0; i < kChurnUpdatesPerRound; ++i, ++next) {
    const Graph* version = nullptr;
    PREDICT_ASSIGN_OR_RETURN(
        const std::vector<Result<PredictionReport>> reports,
        ApplyAndPredict(*state, stream.updates[next].batch, &version));
    bool& checked = stream.updates[next].core ? checked_core : checked_periphery;
    if (checked) continue;
    checked = true;
    for (size_t a = 0; a < kCheapAlgorithms.size(); ++a) {
      out.correct =
          CheckSame(reports[a],
                    reference.PredictRuntime(kCheapAlgorithms[a], *version,
                                             kChurnDataset),
                    kCheapAlgorithms[a] + (stream.updates[next].core
                                               ? " after a core update"
                                               : " after a periphery update")) &&
          out.correct;
    }
  }
  if (!checked_core || !checked_periphery) {
    return Status::Internal("check round lacks a core or periphery update");
  }

  // Accuracy panel: the three algorithms on the unchanged base version.
  PREDICT_ASSIGN_OR_RETURN(const Graph base, BuildChurnBase());
  std::vector<PanelCell> panel_cells;
  for (size_t a = 0; a < kCheapAlgorithms.size(); ++a) {
    panel_cells.push_back({&state->base_reports[a], &base, kCheapAlgorithms[a],
                           options.predictor.engine});
  }
  PREDICT_ASSIGN_OR_RETURN(const Panel panel, RunPanel(panel_cells));

  out.meta.emplace_back("datasets", DatasetsMeta({kChurnDataset}, {&base}));
  out.meta.emplace_back("stream_generation_s", Number(generate_s));
  out.meta.emplace_back("periphery_vertices",
                        std::to_string(stream.periphery_vertices));
  out.meta.emplace_back("core_updates", std::to_string(core_updates));
  out.meta.emplace_back("periphery_updates",
                        std::to_string(phase.attempted - core_updates));
  out.meta.emplace_back(
      "kept_sample_pct",
      Number(Percent(static_cast<double>(kept_sample),
                     static_cast<double>(phase.attempted))));
  AddPhase(phase, &out);
  if (!config.trace) {
    AddEndToEndMetrics(phase, setup, setup_runs, panel, &out);
    return out;
  }

  // Traced replay of the same updates on a fresh setup.
  ChurnState replay;
  SetupTimes replay_setup;
  PREDICT_RETURN_NOT_OK(set_up(&replay, &replay_setup));
  Layers layers;
  bool composed_ok = true;
  PREDICT_RETURN_NOT_OK(
      TraceChurnReplay(replay, stream, options, &layers, &composed_ok));
  out.correct = out.correct && composed_ok;
  out.attempted += phase.attempted;
  AddLayerMetrics(layers, phase, setup, panel.actual_run_s,
                  {"graph.apply", "graph.compact", "graph.version_copy",
                   "graph.fingerprint", "graph.dirty_diff", "sampling.resample",
                   "bsp.sample_run", "core.assemble"},
                  {"graph.apply", "graph.compact", "service.predict_update"},
                  &out);
  PREDICT_RETURN_NOT_OK(WriteTrace(layers, config));
  return out;
}

}  // namespace perfbench
