// The paper panel: the cells of the paper's evaluation (§5), each
// computed once per process, and the views that print them.
//
// A cell is one prediction: (algorithm, dataset, config, sampling ratio,
// sampler, history mode, transform). The panel caches the scaled
// datasets, every actual run and every cell's PredictionReport, so views
// that share cells compute them once. A view prints the rows of one table
// or figure, then states the paper's sentence about it as Claim()s: a
// checked claim must hold, a known deviation is printed with its reading.
//
// PREDICT_BENCH_SCALE in (0,1] shrinks the datasets, and the simulated
// memory budget with them; the default 1.0 runs the full-scale stand-ins.

#ifndef PREDICT_BENCH_PANEL_H_
#define PREDICT_BENCH_PANEL_H_

#include <string>
#include <vector>

#include "core/predictor.h"

namespace predict::panel {

/// Dataset scale from PREDICT_BENCH_SCALE (default 1.0). A value outside
/// (0,1], NaN included, warns and falls back to 1.0.
double BenchScale();

/// snprintf into a string.
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The scaled stand-in by name; exits on generator errors.
const Graph& Dataset(const std::string& name);

/// The paper-cluster engine options, memory budget scaled with the data.
bsp::EngineOptions BenchEngine();

/// The sampling-ratio sweep of Figures 4-9.
const std::vector<double>& SamplingRatios();

/// PageRank's tau = epsilon / N convention (§5.1).
AlgorithmConfig PageRankConfig(const std::string& dataset, double epsilon);

/// The actual run, or null when it exhausted the simulated memory.
const bsp::RunStats* Actual(const std::string& algorithm,
                            const std::string& dataset,
                            const AlgorithmConfig& config);

/// The actual runs of `algorithm` on lj, wiki and uk: the history of
/// Figures 7-8, where Predictor leaves out the predicted dataset's run
/// (§5.2), and the cost-model ablation's training set.
const HistoryStore& History(const std::string& algorithm,
                            const AlgorithmConfig& config);

struct Cell {
  std::string algorithm;
  std::string dataset;
  AlgorithmConfig config;  ///< of the actual run
  double ratio = 0.1;
  SamplerKind sampler = SamplerKind::kBiasedRandomJump;
  bool history = false;  ///< also train on History()
  bool identity_transform = false;
};

/// A cell's report (null when the prediction failed) and, when the actual
/// run fits in memory, the report's errors against it.
struct Outcome {
  const bsp::RunStats* actual = nullptr;
  const PredictionReport* report = nullptr;
  PredictionEvaluation eval;
};
Outcome Predict(const Cell& cell);

/// Records one claim of the paper under the running view.
void Claim(bool checked, const std::string& text, bool held,
           const std::string& reading);

struct View {
  const char* name;
  const char* title;
  void (*print)();
};

/// `--view NAME` runs one view, `--view all` every view. Each view's
/// claims print under it, plus one for a view that predicts: every cell
/// whose actual run fits predicts without error. Every claim lands in
/// BENCH_paper_panel.json. Returns 1 when a checked claim fails, and 2
/// (listing the views) on a bad argument.
int RunViews(int argc, char** argv, const std::vector<View>& views);

}  // namespace predict::panel

#endif  // PREDICT_BENCH_PANEL_H_
