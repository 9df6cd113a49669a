// Shared plumbing for the per-figure/per-table bench binaries.
//
// Every binary regenerates one table or figure of the paper's evaluation
// and prints paper-style rows. Set PREDICT_BENCH_SCALE in (0,1] to shrink
// the datasets (and the simulated memory budget proportionally) for
// quick runs; the default 1.0 runs the full-scale stand-ins.

#ifndef PREDICT_BENCH_BENCH_UTIL_H_
#define PREDICT_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "algorithms/runner.h"
#include "core/predictor.h"
#include "datasets/datasets.h"

namespace predict::benchutil {

/// Dataset scale from PREDICT_BENCH_SCALE (default 1.0).
double BenchScale();

/// Cached scaled dataset by name; aborts the process on generator errors
/// (benches have no meaningful recovery).
const Graph& GetDataset(const std::string& name);

/// The paper-cluster engine options with the memory budget scaled along
/// with the datasets.
bsp::EngineOptions BenchEngine();

/// The sampling-ratio sweep of Figures 4-9.
const std::vector<double>& SamplingRatios();

/// PageRank's tau = epsilon / N convention (§5.1).
AlgorithmConfig PageRankConfig(const Graph& graph, double epsilon);

/// Cached actual run of (algorithm, dataset, config). Returns nullptr if
/// the run exhausted the simulated memory (the §5 OOM cells).
const AlgorithmRunResult* GetActualRun(const std::string& algorithm,
                                       const std::string& dataset,
                                       const AlgorithmConfig& overrides = {});

/// PredictorOptions wired to BenchEngine with BRJ at `ratio`.
PredictorOptions MakePredictorOptions(double ratio, uint64_t seed = 42);

/// Signed relative error, the paper's metric.
double SignedError(double predicted, double actual);

/// Formats a signed error as e.g. "+0.12" / " OOM" / "  n/a".
std::string ErrorCell(double error);

/// Prints the standard bench banner.
void PrintBanner(const std::string& title, const std::string& paper_ref);

}  // namespace predict::benchutil

#endif  // PREDICT_BENCH_BENCH_UTIL_H_
