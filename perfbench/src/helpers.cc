#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "common/rng.h"
#include "pipeline/artifacts.h"

namespace perfbench {

using namespace predict;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

std::vector<std::vector<uint32_t>> ShuffledRounds(uint32_t n, uint32_t rounds,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> out(rounds);
  for (std::vector<uint32_t>& round : out) {
    round.resize(n);
    std::iota(round.begin(), round.end(), 0u);
    for (uint32_t i = n; i > 1; --i) {
      std::swap(round[i - 1], round[rng.Uniform(i)]);
    }
  }
  return out;
}

std::vector<uint32_t> ZipfDraws(uint32_t n, double exponent, size_t count,
                                uint64_t seed) {
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cumulative[k] = total;
  }
  Rng rng(seed);
  std::vector<uint32_t> draws(count);
  for (uint32_t& draw : draws) {
    const double u = rng.NextDouble() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    draw = static_cast<uint32_t>(
        std::min<ptrdiff_t>(it - cumulative.begin(), n - 1));
  }
  return draws;
}

namespace {

// The cache identity the service gives a sample's content.
std::string ContentKey(Sample sample) {
  pipeline::SampleArtifact artifact;
  artifact.sample = std::move(sample);
  return artifact.ContentKey();
}

}  // namespace

Result<ChurnStream> MakeChurnStream(const Graph& base,
                                    const SamplerOptions& sampler,
                                    uint32_t rounds, uint64_t seed) {
  // Edges a periphery update inserts, and how many periphery updates
  // later they are deleted again.
  constexpr uint32_t kEdgesPerUpdate = 2;
  constexpr size_t kWindow = 3;
  const uint64_t n = base.num_vertices();
  Rng rng(seed);

  SampleWalkRecord record;
  PREDICT_ASSIGN_OR_RETURN(Sample base_sample,
                           SampleGraphRecorded(base, sampler, &record));
  if (!record.supports_incremental) {
    return Status::InvalidArgument(
        "churn stream needs a segmented RJ/BRJ sampler");
  }
  std::vector<VertexId> core_pool;
  for (VertexId v = 0; v < n; ++v) {
    if (record.touched[v] != 0) core_pool.push_back(v);
  }
  std::vector<uint8_t> ever_touched = record.touched;
  std::unordered_set<std::string> seen_samples{
      ContentKey(std::move(base_sample))};

  // Core versions: base plus one core edge. Walk each one (incrementally
  // from the previous version, as the service does) to check it yields a
  // sample never seen before, and to learn every vertex any version's
  // walk visits.
  EvolvingGraph core_graph(base);
  std::vector<EdgeDeltaBatch> core_batches;
  std::optional<EdgeDelta> previous;
  constexpr int kMaxAttempts = 16;
  for (uint32_t r = 0; r < rounds; ++r) {
    bool placed = false;
    for (int attempt = 0; attempt < kMaxAttempts && !placed; ++attempt) {
      const VertexId src = core_pool[rng.Uniform(core_pool.size())];
      const VertexId dst = static_cast<VertexId>(rng.Uniform(n));
      EdgeDeltaBatch batch{EdgeDelta::Insert(src, dst)};
      std::vector<VertexId> dirty{src};
      if (previous.has_value()) {
        batch.push_back(EdgeDelta::Delete(previous->src, previous->dst));
        if (previous->src != src) dirty.push_back(previous->src);
      }
      std::sort(dirty.begin(), dirty.end());
      PREDICT_RETURN_NOT_OK(core_graph.Apply(batch));
      PREDICT_ASSIGN_OR_RETURN(const Graph* version, core_graph.Current());
      SampleWalkRecord next;
      PREDICT_ASSIGN_OR_RETURN(IncrementalSampleResult walked,
                               ResampleIncremental(*version, dirty, record,
                                                   &next));
      if (seen_samples.insert(ContentKey(std::move(walked.sample))).second) {
        for (VertexId v = 0; v < n; ++v) ever_touched[v] |= next.touched[v];
        record = std::move(next);
        previous = EdgeDelta::Insert(src, dst);
        core_batches.push_back(std::move(batch));
        placed = true;
      } else {
        EdgeDeltaBatch undo{EdgeDelta::Delete(src, dst)};
        if (previous.has_value()) undo.push_back(*previous);
        PREDICT_RETURN_NOT_OK(core_graph.Apply(undo));
      }
    }
    if (!placed) {
      return Status::Internal("churn stream: no core edge changes the sample");
    }
  }

  std::vector<VertexId> periphery;
  for (VertexId v = 0; v < n; ++v) {
    if (ever_touched[v] == 0) periphery.push_back(v);
  }
  if (periphery.empty()) {
    return Status::FailedPrecondition("churn stream: the walks visit every vertex");
  }

  ChurnStream stream;
  stream.periphery_vertices = periphery.size();
  std::deque<std::vector<EdgeDelta>> window;
  for (uint32_t r = 0; r < rounds; ++r) {
    const uint32_t core_position =
        static_cast<uint32_t>(rng.Uniform(kChurnUpdatesPerRound));
    for (uint32_t i = 0; i < kChurnUpdatesPerRound; ++i) {
      if (i == core_position) {
        stream.updates.push_back({core_batches[r], true});
        continue;
      }
      ChurnUpdate update;
      std::vector<EdgeDelta> inserted;
      for (uint32_t e = 0; e < kEdgesPerUpdate; ++e) {
        const VertexId src = periphery[rng.Uniform(periphery.size())];
        const VertexId dst = static_cast<VertexId>(rng.Uniform(n));
        inserted.push_back(EdgeDelta::Insert(src, dst));
      }
      update.batch = inserted;
      if (window.size() == kWindow) {
        for (const EdgeDelta& old : window.front()) {
          update.batch.push_back(EdgeDelta::Delete(old.src, old.dst));
        }
        window.pop_front();
      }
      window.push_back(std::move(inserted));
      stream.updates.push_back(std::move(update));
    }
  }
  return stream;
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g,", value);
  *out += buf;
}

void AppendProfile(std::string* out, const RunProfile& profile) {
  *out += profile.algorithm + "|" + profile.dataset + "|" +
          std::to_string(profile.num_vertices) + "|" +
          std::to_string(profile.num_edges) + "|" +
          std::to_string(profile.num_workers) + "|";
  for (const IterationProfile& it : profile.iterations) {
    *out += std::to_string(it.iteration) + ":";
    for (const double f : it.critical_features) AppendDouble(out, f);
    AppendDouble(out, it.runtime_seconds);
  }
  *out += "|";
}

}  // namespace

std::string CanonicalReport(const PredictionReport& r) {
  std::string out;
  for (const std::string& field : {r.algorithm, r.dataset, r.scenario,
                                   std::to_string(r.predicted_iterations)}) {
    out += field;
    out += "|";
  }
  for (const double s : r.per_iteration_seconds) AppendDouble(&out, s);
  AppendDouble(&out, r.predicted_superstep_seconds);
  for (const auto& [name, value] : r.sample_config) {
    out += name + "=";
    AppendDouble(&out, value);
  }
  for (const std::string& field :
       {r.transform_description, r.cost_model.ToString(),
        r.model_selection.ToString(), r.runtime_model_description}) {
    out += "|";
    out += field;
  }
  out += "|";
  AppendDouble(&out, r.factors.vertex_factor);
  AppendDouble(&out, r.factors.edge_factor);
  AppendDouble(&out, r.distribution.point_seconds);
  AppendDouble(&out, r.distribution.p50_seconds);
  AppendDouble(&out, r.distribution.p95_seconds);
  for (const double s : r.distribution.samples) AppendDouble(&out, s);
  out += std::to_string(r.distribution.seed) + "|";
  AppendProfile(&out, r.sample_profile);
  AppendProfile(&out, r.extrapolated_profile);
  AppendDouble(&out, r.sample_total_seconds);
  AppendDouble(&out, r.realized_sampling_ratio);
  out += DegradationRungName(r.degradation.rung);
  out += "|";
  out += r.degradation.cause;
  return out;
}

std::string CanonicalResult(const Result<PredictionReport>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return CanonicalReport(*result);
}

}  // namespace perfbench
