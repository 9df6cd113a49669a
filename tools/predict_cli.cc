// predict_cli — command-line driver for the PREDIcT library.
//
//   predict_cli datasets
//   predict_cli describe  (--dataset NAME | --graph FILE) [--scale S]
//                         [--threads T]
//   predict_cli sample    (--dataset NAME | --graph FILE) [--ratio R]
//                         [--method BRJ|RJ|MHRW|FF] [--seed N] [--threads T]
//   predict_cli run       --algorithm A (--dataset NAME | --graph FILE)
//                         [--config k=v]... [--workers N]
//   predict_cli predict   --algorithm A (--dataset NAME | --graph FILE)
//                         [--ratio R] [--config k=v]... [--workers N]
//                         [--history FILE] [--verify [--save-history FILE]]
//   predict_cli batch     --algorithms A,B,... --datasets N1,N2,...
//                         [--ratio R] [--method BRJ|RJ|MHRW|FF] [--seed N]
//                         [--scale S] [--workers N] [--threads T]
//                         [--history FILE]
//   predict_cli mutate    (--dataset NAME | --graph FILE) --out FILE
//                         [--churn FRACTION] [--seed N]
//   predict_cli scenarios
//   predict_cli whatif    --algorithm A (--dataset NAME | --graph FILE)
//                         [--scenarios S1,S2,... | all] [--sla SECONDS]
//                         [--confidence C] [--ratio R] [--config k=v]...
//                         [--threads T]
//   predict_cli history   --file FILE [--algorithm A] [--list] [--export FILE2]
//   predict_cli bound     --epsilon E [--damping D]
//
// Engine flags (run/predict/batch): [--scenario NAME] [--workers N]
// [--partition hash|range|edge] [--path adaptive|sparse|dense] —
// --scenario picks a registry deployment, the others override it.
//
// Robustness flags (predict/batch): [--failpoints name=spec;...]
// [--retries N] [--deadline S] [--degraded]; batch adds [--fail-fast]
// (stop at the first failed cell instead of answering them all).
//
// Graph files: edge-list text ("src dst [weight]") or PRDG binary.
//
// A flag the subcommand does not take, like any malformed flag, is an
// InvalidArgument line on stderr and exit status 2.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "bsp/scenario.h"
#include "bsp/thread_pool.h"
#include "common/failpoint.h"
#include "common/retry.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/history.h"
#include "core/predictor.h"
#include "datasets/datasets.h"
#include "graph/delta.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "sampling/quality.h"
#include "service/prediction_service.h"

namespace {

using namespace predict;

// ------------------------------------------------------------ flag parsing

struct Flags {
  std::map<std::string, std::string> values;
  std::vector<std::string> config_pairs;  // repeated --config k=v
};

using FlagSet = std::set<std::string>;

/// The flags each subcommand reads, by name. The groups are the flag
/// sets of the shared parsers below (LoadInputGraph, ParseSamplerFlags,
/// EngineFromFlags, ParseRobustnessFlags).
const std::map<std::string, FlagSet>& SubcommandFlags() {
  static const std::map<std::string, FlagSet> table = [] {
    const FlagSet graph = {"dataset", "graph", "scale"};
    const FlagSet sampler = {"method", "ratio", "seed", "segment-steps"};
    const FlagSet engine = {"scenario", "workers", "partition", "path"};
    const FlagSet robustness = {"failpoints", "retries", "deadline",
                                "degraded"};
    const auto join = [](std::initializer_list<FlagSet> groups) {
      FlagSet all;
      for (const FlagSet& group : groups) all.insert(group.begin(), group.end());
      return all;
    };
    return std::map<std::string, FlagSet>{
        {"datasets", {}},
        {"describe", join({graph, {"threads"}})},
        {"sample", join({graph, sampler, {"threads"}})},
        {"run", join({graph, engine, {"algorithm", "config"}})},
        {"predict",
         join({graph, sampler, engine, robustness,
               {"algorithm", "config", "history", "save-history", "verify"}})},
        {"batch",
         join({sampler, engine, robustness,
               {"algorithms", "datasets", "scale", "threads", "history",
                "fail-fast"}})},
        {"mutate", join({graph, {"out", "churn", "seed"}})},
        {"scenarios", {}},
        {"whatif", join({graph, sampler,
                         {"algorithm", "config", "scenarios", "threads", "sla",
                          "confidence"}})},
        {"history", {"file", "algorithm", "list", "export"}},
        {"bound", {"epsilon", "damping"}},
    };
  }();
  return table;
}

/// Parses `--name value`, `--name=value` and the bare boolean flags.
/// A name outside `known` (the subcommand's flags) is InvalidArgument,
/// like every other malformed flag.
Result<Flags> ParseFlags(int argc, char** argv, int first,
                         const std::string& command, const FlagSet& known) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (known.count(arg) == 0) {
      return Status::InvalidArgument(command + " has no flag --" + arg);
    }
    if (!inline_value) {
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        value = argv[++i];
      } else if (arg != "verify" && arg != "list" && arg != "degraded" &&
                 arg != "fail-fast") {
        return Status::InvalidArgument("flag --" + arg + " needs a value");
      }
    }
    if (arg == "config") {
      flags.config_pairs.push_back(value);
    } else {
      flags.values[arg] = value;
    }
  }
  return flags;
}

std::string GetFlag(const Flags& flags, const std::string& name,
                    const std::string& fallback = "") {
  const auto it = flags.values.find(name);
  return it == flags.values.end() ? fallback : it->second;
}

// Validated numeric flag parsing. std::atoi silently turns "--workers=abc"
// into 0, which only surfaces as a confusing failure deep inside the
// engine; these helpers reject malformed or out-of-range values at the
// command line with an error naming the flag.

Result<long long> ParseIntegerFlag(const Flags& flags, const std::string& name,
                                   long long fallback, long long min_value,
                                   long long max_value) {
  const std::string text = GetFlag(flags, name);
  if (text.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   text + "'");
  }
  if (value < min_value || value > max_value) {
    return Status::InvalidArgument(
        "--" + name + " must be in [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "], got " + std::to_string(value));
  }
  return value;
}

/// Seeds span the full uint64 range, so they get strtoull (a signed
/// parser would reject seeds above 2^63-1 that older releases accepted).
Result<uint64_t> ParseUint64Flag(const Flags& flags, const std::string& name,
                                 uint64_t fallback) {
  const std::string text = GetFlag(flags, name);
  if (text.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text[0] == '-' || end == text.c_str() || *end != '\0' ||
      errno == ERANGE) {
    return Status::InvalidArgument(
        "--" + name + " expects a non-negative integer below 2^64, got '" +
        text + "'");
  }
  return static_cast<uint64_t>(value);
}

Result<double> ParseDoubleFlag(const Flags& flags, const std::string& name,
                               double fallback) {
  const std::string text = GetFlag(flags, name);
  if (text.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod happily parses "inf"/"nan", which would sail past validation
  // only to poison comparisons downstream (a NaN SLA disables the SLA
  // check without a word) — reject anything non-finite.
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return Status::InvalidArgument("--" + name +
                                   " expects a finite number, got '" + text +
                                   "'");
  }
  return value;
}

/// Prints a flag-parsing error and returns the exit code for it.
int FlagError(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

/// The sampler flag set (--method/--ratio/--seed/--segment-steps) shared
/// by sample/predict/batch/whatif. --segment-steps N turns on segmented
/// walks (RJ/BRJ), the prerequisite for incremental re-sampling across
/// graph versions.
Status ParseSamplerFlags(const Flags& flags, SamplerOptions* options) {
  PREDICT_ASSIGN_OR_RETURN(options->kind,
                           ParseSamplerKind(GetFlag(flags, "method", "BRJ")));
  PREDICT_ASSIGN_OR_RETURN(options->sampling_ratio,
                           ParseDoubleFlag(flags, "ratio", 0.1));
  PREDICT_ASSIGN_OR_RETURN(options->seed, ParseUint64Flag(flags, "seed", 42));
  PREDICT_ASSIGN_OR_RETURN(options->walk_segment_steps,
                           ParseUint64Flag(flags, "segment-steps", 0));
  return Status::OK();
}

/// The robustness flag set shared by predict/batch: --failpoints SPEC
/// arms fault-injection sites ("name=spec;name=spec"; see
/// common/failpoint.h), --retries N re-attempts each failed stage at
/// once, up to N more times, --deadline S bounds the whole request,
/// --degraded answers a failed request from history alone instead of
/// failing it.
Status ParseRobustnessFlags(const Flags& flags, PredictorOptions* options) {
  const std::string failpoints = GetFlag(flags, "failpoints");
  if (!failpoints.empty()) {
    PREDICT_RETURN_NOT_OK(fail::ConfigureFromString(failpoints));
  }
  PREDICT_ASSIGN_OR_RETURN(const long long retries,
                           ParseIntegerFlag(flags, "retries", 0, 0, 100));
  options->robustness.retry.max_attempts = static_cast<int>(retries) + 1;
  PREDICT_ASSIGN_OR_RETURN(options->robustness.deadline_seconds,
                           ParseDoubleFlag(flags, "deadline", 0.0));
  options->robustness.degraded_fallbacks = flags.values.count("degraded") != 0;
  return Status::OK();
}

/// Loads a history file, surfacing (not hiding) its quarantine note.
Result<HistoryStore> LoadHistoryFile(const std::string& path) {
  std::string note;
  PREDICT_ASSIGN_OR_RETURN(HistoryStore store,
                           HistoryStore::LoadFromFile(path, &note));
  if (!note.empty()) std::fprintf(stderr, "warning: %s\n", note.c_str());
  return store;
}

Result<AlgorithmConfig> ParseConfigPairs(const std::vector<std::string>& pairs) {
  AlgorithmConfig config;
  for (const std::string& pair : pairs) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("--config expects k=v, got '" + pair + "'");
    }
    config[pair.substr(0, eq)] = std::atof(pair.c_str() + eq + 1);
  }
  return config;
}

// ------------------------------------------------------------- graph input

Result<Graph> LoadInputGraph(const Flags& flags) {
  const std::string dataset = GetFlag(flags, "dataset");
  const std::string file = GetFlag(flags, "graph");
  PREDICT_ASSIGN_OR_RETURN(const double scale,
                           ParseDoubleFlag(flags, "scale", 1.0));
  if (!dataset.empty() && !file.empty()) {
    return Status::InvalidArgument("pass either --dataset or --graph, not both");
  }
  if (!dataset.empty()) return MakeDataset(dataset, scale);
  if (!file.empty()) {
    // Sniff the PRDG magic; fall back to edge-list text.
    FILE* f = std::fopen(file.c_str(), "rb");
    if (f != nullptr) {
      char magic[4] = {0};
      const size_t got = std::fread(magic, 1, 4, f);
      std::fclose(f);
      if (got == 4 && std::memcmp(magic, "PRDG", 4) == 0) {
        return ReadBinaryGraphFile(file);
      }
    }
    return ReadEdgeListFile(file);
  }
  return Status::InvalidArgument("need --dataset NAME or --graph FILE");
}

// Engine configuration: --scenario picks a registry deployment (default
// the paper cluster), --workers / --partition override it.
Result<bsp::EngineOptions> EngineFromFlags(const Flags& flags) {
  bsp::EngineOptions engine = PaperClusterOptions();
  const std::string scenario_name = GetFlag(flags, "scenario");
  if (!scenario_name.empty()) {
    PREDICT_ASSIGN_OR_RETURN(const bsp::ClusterScenario scenario,
                             bsp::FindScenario(scenario_name));
    engine = scenario.ToEngineOptions();
  }
  // The substrate keeps one outbox per (sender, dest) pair — memory is
  // quadratic in workers — so the bound must stay small enough that the
  // engine can actually allocate it (4096 workers = 16.8M outboxes).
  PREDICT_ASSIGN_OR_RETURN(
      const long long workers,
      ParseIntegerFlag(flags, "workers", engine.num_workers, 1, 4096));
  engine.num_workers = static_cast<uint32_t>(workers);
  const std::string partition = GetFlag(flags, "partition");
  if (!partition.empty()) {
    PREDICT_ASSIGN_OR_RETURN(engine.partition,
                             bsp::ParsePartitionStrategy(partition));
  }
  // Superstep execution path: adaptive (default) switches between the
  // worklist and dense flat-array paths per superstep; sparse/dense pin
  // one path. Results are bit-identical either way — these flags trade
  // host wall clock only.
  const std::string path = GetFlag(flags, "path");
  if (!path.empty()) {
    if (path == "adaptive") {
      engine.superstep_path = bsp::SuperstepPath::kAdaptive;
    } else if (path == "sparse") {
      engine.superstep_path = bsp::SuperstepPath::kSparse;
    } else if (path == "dense") {
      engine.superstep_path = bsp::SuperstepPath::kDense;
    } else {
      return Status::InvalidArgument(
          "--path expects adaptive|sparse|dense, got '" + path + "'");
    }
  }
  return engine;
}

// --------------------------------------------------------------- commands

int CmdDatasets() {
  const auto print_group = [](const std::vector<DatasetInfo>& group) {
    for (const DatasetInfo& info : group) {
      std::printf("%-8s %-10u %-12llu %-11s %s\n", info.name.c_str(),
                  info.num_vertices,
                  static_cast<unsigned long long>(info.approx_edges),
                  info.scale_free ? "yes" : "no", info.description.c_str());
    }
  };
  std::printf("%-8s %-10s %-12s %-11s %s\n", "name", "#nodes", "~#edges",
              "scale-free", "description");
  print_group(PaperDatasets());
  print_group(ScaleDatasets());
  return 0;
}

// Stats pool for describe/sample: --threads T fans the BFS/clustering
// estimates out over T host threads (0 = inline; results are identical
// either way per the stats determinism contract).
Result<std::unique_ptr<bsp::ThreadPool>> StatsPool(const Flags& flags) {
  PREDICT_ASSIGN_OR_RETURN(const long long threads,
                           ParseIntegerFlag(flags, "threads", 0, 0, 4096));
  if (threads <= 0) return std::unique_ptr<bsp::ThreadPool>();
  return std::make_unique<bsp::ThreadPool>(static_cast<uint32_t>(threads));
}

int CmdDescribe(const Flags& flags) {
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto pool = StatsPool(flags);
  if (!pool.ok()) return FlagError(pool.status());
  std::printf("%s\n", DescribeGraph(*graph).c_str());
  std::printf("effective diameter (90%%): %.2f\n",
              EffectiveDiameter(*graph, 0.9, 32, 42, pool->get()));
  std::printf("clustering coefficient:   %.4f\n",
              AverageClusteringCoefficient(*graph, 1000, 42, pool->get()));
  std::printf("weakly connected comps:   %llu\n",
              static_cast<unsigned long long>(
                  CountWeaklyConnectedComponents(*graph)));
  return 0;
}

int CmdSample(const Flags& flags) {
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  SamplerOptions options;
  const Status sampler_flags = ParseSamplerFlags(flags, &options);
  if (!sampler_flags.ok()) return FlagError(sampler_flags);
  auto sample = SampleGraph(*graph, options);
  if (!sample.ok()) {
    std::fprintf(stderr, "%s\n", sample.status().ToString().c_str());
    return 1;
  }
  std::printf("method %s, ratio %.3f: sample %s\n",
              SamplerKindName(options.kind), sample->realized_ratio,
              sample->subgraph.ToString().c_str());
  auto pool = StatsPool(flags);
  if (!pool.ok()) return FlagError(pool.status());
  const SampleQualityReport quality =
      EvaluateSampleQuality(*graph, *sample, 32, 42, pool->get());
  std::printf("quality: %s\n", quality.ToString().c_str());
  return 0;
}

int CmdRun(const Flags& flags) {
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string algorithm = GetFlag(flags, "algorithm");
  auto config = ParseConfigPairs(flags.config_pairs);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  RunOptions options;
  auto engine = EngineFromFlags(flags);
  if (!engine.ok()) return FlagError(engine.status());
  options.engine = *engine;
  options.config_overrides = *config;
  auto result = RunAlgorithmByName(algorithm, *graph, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const bsp::RunStats& stats = result->stats;
  std::printf("%s on %s: %d supersteps (%s)\n", algorithm.c_str(),
              graph->ToString().c_str(), stats.num_supersteps(),
              bsp::HaltReasonName(stats.halt_reason));
  std::printf("phases: setup %s, read %s, supersteps %s, write %s\n",
              FormatSeconds(stats.setup_seconds).c_str(),
              FormatSeconds(stats.read_seconds).c_str(),
              FormatSeconds(stats.superstep_phase_seconds).c_str(),
              FormatSeconds(stats.write_seconds).c_str());
  std::printf("total %s simulated (%s wall), peak memory %s\n",
              FormatSeconds(stats.total_seconds).c_str(),
              FormatSeconds(stats.wall_seconds).c_str(),
              FormatBytes(stats.peak_memory_bytes).c_str());
  for (const auto& step : stats.supersteps) {
    const bsp::WorkerCounters totals = step.Totals();
    std::printf("  superstep %2d [%s]: %s, %llu msgs (%s), %llu active\n",
                step.superstep, step.dense_path ? "dense" : "sparse",
                FormatSeconds(step.simulated_seconds).c_str(),
                static_cast<unsigned long long>(totals.total_messages()),
                FormatBytes(totals.total_message_bytes()).c_str(),
                static_cast<unsigned long long>(totals.active_vertices));
  }
  return 0;
}

int CmdPredict(const Flags& flags) {
  // The saved profile is the verification's actual run, so without
  // --verify there is nothing to save.
  if (flags.values.count("save-history") != 0 &&
      flags.values.count("verify") == 0) {
    return FlagError(
        Status::InvalidArgument("--save-history needs --verify"));
  }
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string algorithm = GetFlag(flags, "algorithm");
  auto config = ParseConfigPairs(flags.config_pairs);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }

  PredictorOptions options;
  const Status sampler_flags = ParseSamplerFlags(flags, &options.sampler);
  auto engine = EngineFromFlags(flags);
  if (!sampler_flags.ok()) return FlagError(sampler_flags);
  if (!engine.ok()) return FlagError(engine.status());
  options.engine = *engine;
  const Status robustness_flags = ParseRobustnessFlags(flags, &options);
  if (!robustness_flags.ok()) return FlagError(robustness_flags);

  std::unique_ptr<HistoryStore> history;
  const std::string history_file = GetFlag(flags, "history");
  if (!history_file.empty()) {
    auto loaded = LoadHistoryFile(history_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    history = std::make_unique<HistoryStore>(std::move(loaded).MoveValue());
    options.history = history.get();
    std::printf("loaded %zu historical profiles from %s\n", history->size(),
                history_file.c_str());
  }

  Predictor predictor(options);
  const std::string dataset_label = GetFlag(flags, "dataset", "input");
  auto report =
      predictor.PredictRuntime(algorithm, *graph, dataset_label, *config);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("PREDIcT %s on %s (%s sample, ratio %.3f)\n", algorithm.c_str(),
              graph->ToString().c_str(),
              SamplerKindName(options.sampler.kind),
              report->realized_sampling_ratio);
  if (report->degradation.degraded()) {
    std::printf("  DEGRADED:             %s (%s)\n",
                DegradationRungName(report->degradation.rung),
                report->degradation.cause.c_str());
  }
  if (report->accounting.total_attempts() > 0 &&
      options.robustness.retry.max_attempts > 1) {
    std::printf("  attempts:             %d\n",
                report->accounting.total_attempts());
  }
  std::printf("  transform:            %s\n",
              report->transform_description.c_str());
  std::printf("  predicted iterations: %d\n", report->predicted_iterations);
  std::printf("  predicted runtime:    %s (superstep phase)\n",
              FormatSeconds(report->predicted_superstep_seconds).c_str());
  if (!report->distribution.samples.empty()) {
    std::printf("  interval:             p50 %s, p95 %s (%zu bootstrap "
                "replicates)\n",
                FormatSeconds(report->distribution.p50_seconds).c_str(),
                FormatSeconds(report->distribution.p95_seconds).c_str(),
                report->distribution.samples.size());
  }
  std::printf("  model:                %s",
              report->runtime_model_description.c_str());
  if (!report->model_selection.reason.empty()) {
    std::printf(" [%s]", report->model_selection.reason.c_str());
  }
  std::printf("\n");
  std::printf("  cost model:           %s\n",
              report->cost_model.ToString().c_str());
  std::printf("  sample-run overhead:  %s simulated, %s wall\n",
              FormatSeconds(report->sample_total_seconds).c_str(),
              FormatSeconds(report->sample_wall_seconds).c_str());

  if (flags.values.count("verify") != 0) {
    RunOptions run_options;
    run_options.engine = options.engine;
    run_options.config_overrides = *config;
    auto actual = RunAlgorithmByName(algorithm, *graph, run_options);
    if (!actual.ok()) {
      std::fprintf(stderr, "verification run failed: %s\n",
                   actual.status().ToString().c_str());
      return 1;
    }
    const PredictionEvaluation eval = EvaluatePrediction(*report, actual->stats);
    std::printf("verification: actual %d iterations, %s; errors: iterations "
                "%+.1f%%, runtime %+.1f%%\n",
                eval.actual_iterations,
                FormatSeconds(eval.actual_superstep_seconds).c_str(),
                100.0 * eval.iterations_error, 100.0 * eval.runtime_error);

    const std::string save = GetFlag(flags, "save-history");
    if (!save.empty()) {
      HistoryStore store;
      if (!history_file.empty() && history != nullptr) store = *history;
      store.Add(ProfileFromRunStats(algorithm, dataset_label,
                                    graph->num_vertices(), graph->num_edges(),
                                    actual->stats));
      const Status saved = store.SaveToFile(save);
      if (!saved.ok()) {
        std::fprintf(stderr, "%s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("saved %zu profiles to %s\n", store.size(), save.c_str());
    }
  }
  return 0;
}

// Fans (algorithm x dataset) what-if requests through the caching
// PredictionService and prints one table row per request.
int CmdBatch(const Flags& flags) {
  const std::vector<std::string> algorithms =
      SplitString(GetFlag(flags, "algorithms"), ',');
  const std::vector<std::string> dataset_names =
      SplitString(GetFlag(flags, "datasets"), ',');
  if (algorithms.empty() || algorithms[0].empty() || dataset_names.empty() ||
      dataset_names[0].empty()) {
    std::fprintf(stderr,
                 "batch needs --algorithms A,B,... and --datasets N1,N2,...\n");
    return 2;
  }
  auto scale = ParseDoubleFlag(flags, "scale", 1.0);
  if (!scale.ok()) return FlagError(scale.status());

  // Graphs must outlive the requests (the service borrows them).
  std::vector<Graph> graphs;
  graphs.reserve(dataset_names.size());
  for (const std::string& name : dataset_names) {
    auto graph = MakeDataset(name, *scale);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 1;
    }
    graphs.push_back(std::move(graph).MoveValue());
  }

  PredictionServiceOptions options;
  const Status sampler_flags =
      ParseSamplerFlags(flags, &options.predictor.sampler);
  auto engine = EngineFromFlags(flags);
  auto threads = ParseIntegerFlag(flags, "threads", -1, -1, 4096);
  if (!sampler_flags.ok()) return FlagError(sampler_flags);
  if (!engine.ok()) return FlagError(engine.status());
  if (!threads.ok()) return FlagError(threads.status());
  options.predictor.engine = *engine;
  // Serving configuration: parallelism comes from the batch fan-out, not
  // from per-run simulation threads.
  options.predictor.engine.num_threads = 0;
  options.num_threads = static_cast<int>(*threads);
  const Status robustness_flags =
      ParseRobustnessFlags(flags, &options.predictor);
  if (!robustness_flags.ok()) return FlagError(robustness_flags);

  std::unique_ptr<HistoryStore> history;
  const std::string history_file = GetFlag(flags, "history");
  if (!history_file.empty()) {
    auto loaded = LoadHistoryFile(history_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    history = std::make_unique<HistoryStore>(std::move(loaded).MoveValue());
    options.predictor.history = history.get();
  }

  PredictionService service(options);
  std::vector<PredictionRequest> requests;
  for (size_t d = 0; d < graphs.size(); ++d) {
    for (const std::string& algorithm : algorithms) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = &graphs[d];
      request.dataset = dataset_names[d];
      requests.push_back(std::move(request));
    }
  }

  // --fail-fast runs the cells sequentially and stops at the first
  // failed one (later cells are not attempted); the default answers
  // every cell and reports the failures at the end. Either way a batch
  // with any failed cell exits nonzero.
  const bool fail_fast = flags.values.count("fail-fast") != 0;
  std::vector<Result<PredictionReport>> results;
  size_t attempted = requests.size();
  if (fail_fast) {
    results.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      results.push_back(service.Predict(requests[i]));
      if (!results.back().ok()) {
        attempted = i + 1;
        break;
      }
    }
  } else {
    results = service.PredictBatch(requests);
  }

  std::printf("%-22s %-8s %6s %14s %8s %8s\n", "algorithm", "dataset", "iters",
              "predicted", "R2", "ratio");
  int failures = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::printf("%-22s %-8s  %s\n", requests[i].algorithm.c_str(),
                  requests[i].dataset.c_str(),
                  results[i].status().ToString().c_str());
      ++failures;
      continue;
    }
    const PredictionReport& report = *results[i];
    std::printf("%-22s %-8s %6d %14s %8.3f %8.3f%s\n",
                requests[i].algorithm.c_str(), requests[i].dataset.c_str(),
                report.predicted_iterations,
                FormatSeconds(report.predicted_superstep_seconds).c_str(),
                report.cost_model.r_squared(), report.realized_sampling_ratio,
                report.degradation.degraded() ? "  [degraded]" : "");
  }
  if (fail_fast && attempted < requests.size()) {
    std::printf("fail-fast: stopped after %zu of %zu cells\n", attempted,
                requests.size());
  }
  const ServiceCacheStats stats = service.cache_stats();
  std::printf("\n%zu requests; sample cache %llu hits / %llu misses, profile "
              "cache %llu hits / %llu misses, %llu history-only fallbacks\n",
              requests.size(),
              static_cast<unsigned long long>(stats.sample_hits),
              static_cast<unsigned long long>(stats.sample_misses),
              static_cast<unsigned long long>(stats.profile_hits),
              static_cast<unsigned long long>(stats.profile_misses),
              static_cast<unsigned long long>(stats.history_only_fallbacks));
  if (stats.incremental_sample_updates > 0) {
    std::printf("incremental sampling: %llu updates, %llu segments reused\n",
                static_cast<unsigned long long>(
                    stats.incremental_sample_updates),
                static_cast<unsigned long long>(
                    stats.incremental_segments_reused));
  }
  return failures == 0 ? 0 : 1;
}

// Applies deterministic seeded churn to a graph as the next version of
// an EvolvingGraph (graph/delta.h) and writes that version as PRDG
// binary — the companion to `predict` for exercising incremental
// re-prediction: mutate, then predict the new file.
int CmdMutate(const Flags& flags) {
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string out = GetFlag(flags, "out");
  if (out.empty()) {
    std::fprintf(stderr, "mutate needs --out FILE\n");
    return 2;
  }
  auto fraction = ParseDoubleFlag(flags, "churn", 0.01);
  auto seed = ParseUint64Flag(flags, "seed", 42);
  if (!fraction.ok()) return FlagError(fraction.status());
  if (!seed.ok()) return FlagError(seed.status());

  EvolvingGraph evolving(std::move(graph).MoveValue());
  const Graph* base = *evolving.Current();
  ChurnOptions churn;
  churn.fraction = *fraction;
  churn.seed = *seed;
  auto batch = GenerateChurn(*base, churn);
  if (!batch.ok()) {
    std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
    return 1;
  }
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  for (const EdgeDelta& delta : *batch) {
    if (delta.op == EdgeDelta::Op::kInsert) {
      ++inserts;
    } else {
      ++deletes;
    }
  }
  std::printf("base:    %s, version %016llx\n", base->ToString().c_str(),
              static_cast<unsigned long long>(base->Fingerprint()));
  const Status applied = evolving.Apply(*batch);
  if (!applied.ok()) {
    std::fprintf(stderr, "%s\n", applied.ToString().c_str());
    return 1;
  }
  const Graph* mutated = *evolving.Current();
  const Status written = WriteBinaryGraphFile(*mutated, out);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("churn:   %llu inserts, %llu deletes (fraction %g, seed %llu)\n",
              static_cast<unsigned long long>(inserts),
              static_cast<unsigned long long>(deletes), *fraction,
              static_cast<unsigned long long>(*seed));
  std::printf("mutated: %s, version %016llx -> %s\n",
              mutated->ToString().c_str(),
              static_cast<unsigned long long>(mutated->Fingerprint()),
              out.c_str());
  return 0;
}

int CmdBound(const Flags& flags) {
  auto epsilon = ParseDoubleFlag(flags, "epsilon", 0.001);
  auto damping = ParseDoubleFlag(flags, "damping", 0.85);
  if (!epsilon.ok()) return FlagError(epsilon.status());
  if (!damping.ok()) return FlagError(damping.status());
  auto bound = PageRankIterationUpperBound(*epsilon, *damping);
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("Langville-Meyer PageRank bound (eps=%g, d=%g): %.1f iterations\n",
              *epsilon, *damping, *bound);
  return 0;
}

// ------------------------------------------------------- cluster what-if

int CmdScenarios() {
  std::printf("%-18s %8s %6s %10s %-10s %s\n", "name", "workers", "steps",
              "memory", "partition", "description");
  for (const bsp::ClusterScenario& s : bsp::BuiltinScenarios()) {
    std::printf("%-18s %8u %6d %10s %-10s %s\n", s.name.c_str(), s.num_workers,
                s.max_supersteps, FormatBytes(s.memory_budget_bytes).c_str(),
                PartitionStrategyName(s.partition), s.description.c_str());
  }
  return 0;
}

// Predicts one (algorithm, dataset) across cluster scenarios via the
// caching service (the sample is drawn once and shared) and recommends
// the cheapest deployment, optionally subject to an SLA on the
// predicted superstep phase — the phase PREDIcT predicts (§2.2) and the
// one that differs across deployments. "Cheapest" is worker-seconds:
// predicted superstep seconds x workers, the cluster resources the
// job's iterative phase would occupy.
int CmdWhatIf(const Flags& flags) {
  auto graph = LoadInputGraph(flags);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string algorithm = GetFlag(flags, "algorithm");
  auto config = ParseConfigPairs(flags.config_pairs);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }

  std::vector<bsp::ClusterScenario> scenarios;
  const std::string names = GetFlag(flags, "scenarios", "all");
  if (names == "all") {
    scenarios = bsp::BuiltinScenarios();
  } else {
    for (const std::string& name : SplitString(names, ',')) {
      auto scenario = bsp::FindScenario(name);
      if (!scenario.ok()) {
        std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
        return 2;
      }
      scenarios.push_back(std::move(scenario).MoveValue());
    }
  }

  PredictionServiceOptions options;
  const Status sampler_flags =
      ParseSamplerFlags(flags, &options.predictor.sampler);
  auto threads = ParseIntegerFlag(flags, "threads", -1, -1, 4096);
  auto sla = ParseDoubleFlag(flags, "sla", 0.0);
  auto confidence = ParseDoubleFlag(flags, "confidence", 0.5);
  if (!sampler_flags.ok()) return FlagError(sampler_flags);
  if (!threads.ok()) return FlagError(threads.status());
  if (!sla.ok()) return FlagError(sla.status());
  if (!confidence.ok()) return FlagError(confidence.status());
  if (*confidence < 0.0 || *confidence >= 1.0) {
    return FlagError(Status::InvalidArgument(
        "--confidence must be in [0, 1), got " + std::to_string(*confidence)));
  }
  options.predictor.engine.num_threads = 0;
  options.num_threads = static_cast<int>(*threads);

  PredictionService service(options);
  PredictionRequest request;
  request.algorithm = algorithm;
  request.graph = &graph.value();
  request.dataset = GetFlag(flags, "dataset", "input");
  request.overrides = *config;

  const auto results = service.PredictScenarios(request, scenarios);

  std::printf("%s on %s across %zu scenarios (ratio %.3f)\n\n",
              algorithm.c_str(), graph->ToString().c_str(), scenarios.size(),
              options.predictor.sampler.sampling_ratio);
  std::printf("%-18s %8s %6s %14s %14s %14s %s\n", "scenario", "workers",
              "iters", "predicted", "at-conf", "worker-sec",
              *sla > 0 ? "SLA" : "");
  int best = -1;
  double best_cost = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const bsp::ClusterScenario& scenario = scenarios[i];
    if (!results[i].ok()) {
      std::printf("%-18s %8u  %s\n", scenario.name.c_str(),
                  scenario.num_workers,
                  results[i].status().ToString().c_str());
      continue;
    }
    const PredictionReport& report = *results[i];
    // The SLA check targets the superstep phase — the phase PREDIcT
    // predicts (§2.2) and the one that differs across deployments. At
    // --confidence above 0.5 the check uses the bootstrap quantile,
    // which is never below the point estimate: a deployment admitted at
    // high confidence is always admitted by the point-estimate check.
    const double seconds = report.predicted_superstep_seconds;
    const double bound = report.distribution.PredictedAtConfidence(*confidence);
    const double worker_seconds = seconds * scenario.num_workers;
    const bool meets_sla = *sla <= 0.0 || bound <= *sla;
    std::printf("%-18s %8u %6d %14s %14s %14.0f %s\n", scenario.name.c_str(),
                scenario.num_workers, report.predicted_iterations,
                FormatSeconds(seconds).c_str(), FormatSeconds(bound).c_str(),
                worker_seconds, *sla > 0 ? (meets_sla ? "ok" : "MISS") : "");
    if (meets_sla && (best < 0 || worker_seconds < best_cost)) {
      best = static_cast<int>(i);
      best_cost = worker_seconds;
    }
  }
  const ServiceCacheStats stats = service.cache_stats();
  std::printf("\nsample cache %llu hits / %llu misses (one sample shared "
              "across scenarios)\n",
              static_cast<unsigned long long>(stats.sample_hits),
              static_cast<unsigned long long>(stats.sample_misses));
  if (best >= 0) {
    std::printf("cheapest%s: %s (%.0f worker-seconds)\n",
                *sla > 0 ? " meeting SLA" : "", scenarios[best].name.c_str(),
                best_cost);
  } else {
    std::printf("no scenario%s produced a prediction\n",
                *sla > 0 ? " meets the SLA or" : "");
    return 1;
  }
  return 0;
}

// ------------------------------------------------------- history inspection

// Summarizes a history CSV: how many rows each algorithm has, how many
// distinct worker configurations they span, and how spread out the
// observed runtimes are.
int CmdHistory(const Flags& flags) {
  const std::string file = GetFlag(flags, "file");
  if (file.empty()) {
    std::fprintf(stderr, "history needs --file FILE\n");
    return 2;
  }
  auto loaded = LoadHistoryFile(file);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const HistoryStore store = std::move(loaded).MoveValue();
  const std::string only_algorithm = GetFlag(flags, "algorithm");

  const std::vector<RunProfile> profiles = store.profiles();
  std::map<std::string, std::vector<const RunProfile*>> by_algorithm;
  for (const RunProfile& profile : profiles) {
    if (!only_algorithm.empty() && profile.algorithm != only_algorithm) {
      continue;
    }
    by_algorithm[profile.algorithm].push_back(&profile);
  }
  if (by_algorithm.empty()) {
    std::printf("%s: no matching profiles\n", file.c_str());
    return only_algorithm.empty() ? 0 : 1;
  }

  if (flags.values.count("list") != 0) {
    std::printf("%-22s %-10s %12s %12s %8s %6s %12s\n", "algorithm", "dataset",
                "vertices", "edges", "workers", "iters", "runtime");
    for (const auto& [algorithm, profs] : by_algorithm) {
      for (const RunProfile* profile : profs) {
        std::printf("%-22s %-10s %12llu %12llu %8u %6d %12s\n",
                    algorithm.c_str(), profile->dataset.c_str(),
                    static_cast<unsigned long long>(profile->num_vertices),
                    static_cast<unsigned long long>(profile->num_edges),
                    profile->num_workers, profile->num_iterations(),
                    FormatSeconds(profile->total_superstep_seconds()).c_str());
      }
    }
    std::printf("\n");
  }

  std::printf("%-22s %8s %6s %8s %12s %12s\n", "algorithm", "profiles",
              "rows", "configs", "mean/iter", "spread");
  for (const auto& [algorithm, profs] : by_algorithm) {
    size_t rows = 0;
    double sum = 0.0;
    std::set<uint32_t> configs;
    for (const RunProfile* profile : profs) {
      configs.insert(profile->num_workers);
      for (const IterationProfile& it : profile->iterations) {
        ++rows;
        sum += it.runtime_seconds;
      }
    }
    const double mean = rows > 0 ? sum / static_cast<double>(rows) : 0.0;
    // Residual spread around the per-algorithm mean: the runtime stddev,
    // a preview of how wide this algorithm's bootstrap intervals will be.
    double var = 0.0;
    for (const RunProfile* profile : profs) {
      for (const IterationProfile& it : profile->iterations) {
        const double d = it.runtime_seconds - mean;
        var += d * d;
      }
    }
    const double spread =
        rows > 1 ? std::sqrt(var / static_cast<double>(rows - 1)) : 0.0;
    std::printf("%-22s %8zu %6zu %8zu %12s %12s\n", algorithm.c_str(),
                profs.size(), rows, configs.size(),
                FormatSeconds(mean).c_str(), FormatSeconds(spread).c_str());
  }

  const std::string export_file = GetFlag(flags, "export");
  if (!export_file.empty()) {
    // Round-trips through the current format, upgrading legacy files
    // (without the num_workers column) in place.
    const Status saved = store.SaveToFile(export_file);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("\nexported %zu profiles to %s\n", store.size(),
                export_file.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: predict_cli <command> [flags]\n"
      "commands:\n"
      "  datasets   list built-in datasets\n"
      "  describe   (--dataset N | --graph F) [--scale S]\n"
      "  sample     (--dataset N | --graph F) [--ratio R] [--method BRJ|RJ|MHRW|FF]\n"
      "  run        --algorithm A (--dataset N | --graph F) [--config k=v]...\n"
      "  predict    --algorithm A (--dataset N | --graph F) [--ratio R]\n"
      "             [--config k=v]... [--history F] [--verify [--save-history F]]\n"
      "  batch      --algorithms A,B,... --datasets N1,N2,... [--ratio R]\n"
      "             [--threads T] [--workers N] [--scale S] [--history F]\n"
      "             [--fail-fast]\n"
      "  mutate     (--dataset N | --graph F) --out FILE [--churn FRACTION]\n"
      "             [--seed N]   apply seeded edge churn, write PRDG binary\n"
      "robustness flags (predict/batch): [--failpoints name=spec;...]\n"
      "             [--retries N] [--deadline S] [--degraded]\n"
      "  scenarios  list built-in cluster scenarios\n"
      "  whatif     --algorithm A (--dataset N | --graph F)\n"
      "             [--scenarios S1,S2,...|all] [--sla SECONDS]\n"
      "             [--confidence C] [--ratio R]\n"
      "  history    --file F [--algorithm A] [--list] [--export F2]\n"
      "  bound      --epsilon E [--damping D]\n"
      "engine flags (run/predict/batch): [--scenario NAME] [--workers N]\n"
      "             [--partition hash|range|edge] [--path adaptive|sparse|dense]\n"
      "algorithms:");
  for (const auto& name : RegisteredAlgorithmNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto known = SubcommandFlags().find(command);
  if (known == SubcommandFlags().end()) return Usage();
  auto parsed = ParseFlags(argc, argv, 2, command, known->second);
  if (!parsed.ok()) return FlagError(parsed.status());
  const Flags& flags = *parsed;
  if (command == "datasets") return CmdDatasets();
  if (command == "describe") return CmdDescribe(flags);
  if (command == "sample") return CmdSample(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "predict") return CmdPredict(flags);
  if (command == "batch") return CmdBatch(flags);
  if (command == "mutate") return CmdMutate(flags);
  if (command == "scenarios") return CmdScenarios();
  if (command == "whatif") return CmdWhatIf(flags);
  if (command == "history") return CmdHistory(flags);
  if (command == "bound") return CmdBound(flags);
  return Usage();
}
