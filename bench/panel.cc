#include "panel.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>

#include "bench_json.h"
#include "datasets/datasets.h"

namespace predict::panel {
namespace {

struct RecordedClaim {
  std::string text, reading;
  bool checked = false;
  bool held = false;
};
std::vector<RecordedClaim> claims;  // the running view's

// The cells the running view looked up whose actual run fits, and how
// many of those failed to predict.
std::set<std::string> view_cells;
int view_failures = 0;

// Full precision: PageRank taus differ only at the 8th decimal.
std::string ConfigKey(const AlgorithmConfig& config) {
  std::string key;
  for (const auto& [name, value] : config) {
    key += Format("|%s=%.17g", name.c_str(), value);
  }
  return key;
}

}  // namespace

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("PREDICT_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double parsed = std::atof(env);
    if (parsed > 0.0 && parsed <= 1.0) return parsed;
    std::fprintf(stderr, "PREDICT_BENCH_SCALE=%s out of (0,1]; using 1.0\n",
                 env);
    return 1.0;
  }();
  return scale;
}

std::string Format(const char* format, ...) {
  va_list args, measure;
  va_start(args, format);
  va_copy(measure, args);
  std::string out(std::vsnprintf(nullptr, 0, format, measure), '\0');
  va_end(measure);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

const Graph& Dataset(const std::string& name) {
  static std::map<std::string, Graph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto graph = MakeDataset(name, BenchScale());
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset '%s' failed: %s\n", name.c_str(),
                   graph.status().ToString().c_str());
      std::exit(1);
    }
    it = cache.emplace(name, std::move(graph).MoveValue()).first;
  }
  return it->second;
}

bsp::EngineOptions BenchEngine() {
  bsp::EngineOptions options = PaperClusterOptions();
  options.memory_budget_bytes = static_cast<uint64_t>(
      static_cast<double>(options.memory_budget_bytes) * BenchScale());
  return options;
}

const std::vector<double>& SamplingRatios() {
  static const std::vector<double> ratios = {0.01, 0.05, 0.10,
                                             0.15, 0.20, 0.25};
  return ratios;
}

AlgorithmConfig PageRankConfig(const std::string& dataset, double epsilon) {
  const auto n = static_cast<double>(Dataset(dataset).num_vertices());
  return {{"tau", epsilon / n}};
}

const bsp::RunStats* Actual(const std::string& algorithm,
                            const std::string& dataset,
                            const AlgorithmConfig& config) {
  static std::map<std::string, std::unique_ptr<bsp::RunStats>> cache;
  const std::string key = algorithm + "|" + dataset + ConfigKey(config);
  auto it = cache.find(key);
  if (it == cache.end()) {
    RunOptions options;
    options.engine = BenchEngine();
    options.config_overrides = config;
    auto run = RunAlgorithmByName(algorithm, Dataset(dataset), options);
    if (!run.ok() && !run.status().IsResourceExhausted()) {
      std::fprintf(stderr, "actual run %s failed: %s\n", key.c_str(),
                   run.status().ToString().c_str());
      std::exit(1);
    }
    it = cache.emplace(key, run.ok() ? std::make_unique<bsp::RunStats>(
                                           std::move(run->stats))
                                     : nullptr)
             .first;
  }
  return it->second.get();
}

const HistoryStore& History(const std::string& algorithm,
                            const AlgorithmConfig& config) {
  static std::map<std::string, HistoryStore> cache;
  const auto [it, inserted] = cache.try_emplace(algorithm + ConfigKey(config));
  if (!inserted) return it->second;
  for (const std::string name : {"lj", "wiki", "uk"}) {
    const bsp::RunStats* actual = Actual(algorithm, name, config);
    if (actual == nullptr) continue;
    const Graph& graph = Dataset(name);
    it->second.Add(ProfileFromRunStats(algorithm, name, graph.num_vertices(),
                                       graph.num_edges(), *actual));
  }
  return it->second;
}

Outcome Predict(const Cell& cell) {
  static std::map<std::string, Result<PredictionReport>> cache;
  const std::string key =
      Format("%s|%s|%.17g|%s|%d|%d", cell.algorithm.c_str(),
             cell.dataset.c_str(), cell.ratio, SamplerKindName(cell.sampler),
             cell.history, cell.identity_transform) +
      ConfigKey(cell.config);
  auto it = cache.find(key);
  if (it == cache.end()) {
    PredictorOptions options;
    options.sampler.kind = cell.sampler;
    options.sampler.sampling_ratio = cell.ratio;
    options.sampler.seed = 42;
    options.engine = BenchEngine();
    if (cell.history) options.history = &History(cell.algorithm, cell.config);
    if (cell.identity_transform) {
      options.transform = &IdentityTransform::Instance();
    }
    it = cache.emplace(key, Predictor(options).PredictRuntime(
                                cell.algorithm, Dataset(cell.dataset),
                                cell.dataset, cell.config))
             .first;
  }
  Outcome outcome;
  outcome.actual = Actual(cell.algorithm, cell.dataset, cell.config);
  if (it->second.ok()) outcome.report = &*it->second;
  if (outcome.actual == nullptr) return outcome;
  const bool first_lookup = view_cells.insert(key).second;
  if (outcome.report == nullptr) {
    view_failures += first_lookup;
  } else {
    outcome.eval = EvaluatePrediction(*outcome.report, *outcome.actual);
  }
  return outcome;
}

void Claim(bool checked, const std::string& text, bool held,
           const std::string& reading) {
  claims.push_back({text, reading, checked, held});
}

int RunViews(int argc, char** argv, const std::vector<View>& views) {
  const std::string name =
      argc == 3 && std::string(argv[1]) == "--view" ? argv[2] : "";
  std::vector<const View*> selected;
  for (const View& view : views) {
    if (name == "all" || name == view.name) selected.push_back(&view);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "usage: %s --view NAME\nviews: all", argv[0]);
    for (const View& view : views) std::fprintf(stderr, " %s", view.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  benchutil::BenchJson json("paper_panel");
  json.AddString("view", name);
  json.Add("scale", BenchScale());
  int failed = 0;
  const std::string rule(64, '=');
  for (const View* view : selected) {
    std::printf("%s\n%s\n", rule.c_str(), view->title);
    if (BenchScale() != 1.0) {
      std::printf("NOTE: PREDICT_BENCH_SCALE=%.3f (reduced datasets)\n",
                  BenchScale());
    }
    std::printf("%s\n", rule.c_str());
    claims.clear();
    view_cells.clear();
    view_failures = 0;
    view->print();
    if (!view_cells.empty()) {
      Claim(true, "every cell whose actual run fits predicts without error",
            view_failures == 0,
            Format("%d of %zu cells failed", view_failures, view_cells.size()));
    }
    std::printf("\nclaims (checked ones must hold; deviations are known):\n");
    for (size_t i = 0; i < claims.size(); ++i) {
      const RecordedClaim& claim = claims[i];
      std::printf("  %-9s %-5s %s\n%18sreading: %s\n",
                  claim.checked ? "checked" : "deviation",
                  claim.held ? "holds" : "FAILS", claim.text.c_str(), "",
                  claim.reading.c_str());
      const std::string key = Format("%s.%zu.", view->name, i);
      json.AddString(key + "claim", claim.text);
      json.AddString(key + "reading", claim.reading);
      json.Add(key + "checked", claim.checked);
      json.Add(key + "held", claim.held);
      failed += claim.checked && !claim.held;
    }
    std::printf("\n");
  }
  std::printf("%d checked claim(s) failed\n", failed);
  json.Add("checked_claims_failed", failed);
  json.Add("pass", failed == 0);
  json.Write();
  return failed == 0 ? 0 : 1;
}

}  // namespace predict::panel
