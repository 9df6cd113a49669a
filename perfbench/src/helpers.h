// Input generators and statistics of the repository benchmark.
//
// Everything a workload feeds the predictor is generated here from the
// run's seed, before the clock starts: the order of cold requests, the
// Zipf draws of the what-if traffic and the edge-churn stream. The same
// seed always yields the same inputs.

#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/predictor.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "sampling/sampler.h"

namespace perfbench {

/// The `q` quantile (q in [0, 1]) of `values` by linear interpolation
/// between closest ranks: position q * (n - 1) of the sorted values, the
/// definition of numpy's default percentile. Empty input gives 0.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// `rounds` seeded permutations of [0, n): round r lists every cell once,
/// in an order drawn from the seed.
std::vector<std::vector<uint32_t>> ShuffledRounds(uint32_t n, uint32_t rounds,
                                                  uint64_t seed);

/// `count` ranks in [0, n) drawn with P(k) proportional to
/// 1 / (k + 1)^exponent.
std::vector<uint32_t> ZipfDraws(uint32_t n, double exponent, size_t count,
                                uint64_t seed);

/// One request of the churn workload: an edge batch for
/// EvolvingGraph::Apply.
struct ChurnUpdate {
  predict::EdgeDeltaBatch batch;
  /// True when the batch rewires a vertex the sampling walk visits, so
  /// the sample changes; false for periphery updates, which leave the
  /// sample bit-identical.
  bool core = false;
};

/// Updates per round of a churn stream: four periphery, one core.
inline constexpr uint32_t kChurnUpdatesPerRound = 5;

struct ChurnStream {
  std::vector<ChurnUpdate> updates;
  /// Vertices no walk of any version in the stream visits: the sources
  /// periphery updates draw from.
  uint64_t periphery_vertices = 0;
};

/// A sliding-window churn stream of `rounds` rounds over `base` for a
/// service sampling with `sampler` (a segmented RJ/BRJ walk). Periphery
/// updates insert two edges out of vertices that the walk of no version
/// in the stream visits, and delete the edges inserted three periphery
/// updates earlier, so every delete hits a live edge and the sample stays
/// bit-identical. Each round's core update inserts one edge out of a
/// vertex the base walk visits and deletes the previous core edge; the
/// generator walks every core version once to guarantee that each one
/// yields a sample no earlier version had. Never calls GenerateChurn,
/// which scans all of |E| per call.
predict::Result<ChurnStream> MakeChurnStream(
    const predict::Graph& base, const predict::SamplerOptions& sampler,
    uint32_t rounds, uint64_t seed);

/// Every deterministic field of a report as one comparable string. Leaves
/// out what depends on the execution rather than the prediction:
/// sample_wall_seconds, accounting and stages_reused/stages_recomputed.
std::string CanonicalReport(const predict::PredictionReport& report);

std::string CanonicalResult(const predict::Result<predict::PredictionReport>& result);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
