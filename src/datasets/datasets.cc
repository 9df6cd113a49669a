#include "datasets/datasets.h"

#include <algorithm>
#include <cmath>

#include "bsp/scenario.h"
#include "graph/generators.h"

namespace predict {

namespace {

VertexId Scaled(VertexId base, double scale) {
  const double n = std::max(16.0, std::round(static_cast<double>(base) * scale));
  return static_cast<VertexId>(n);
}

// RMAT's vertex count is 2^scale_log; shrink by whole powers of two so
// `scale` maps onto the generator's natural parameter (floor, so any
// scale < 1 genuinely shrinks; clamped to >= 2^8 vertices).
uint32_t ScaledRmatLog(uint32_t base_log, double scale) {
  const double shrunk = std::log2(scale);  // <= 0 for scale in (0,1]
  const double log = std::floor(static_cast<double>(base_log) + shrunk);
  return static_cast<uint32_t>(std::max(8.0, log));
}

Result<Graph> MakeRmatDataset(uint32_t base_log, uint64_t base_edges,
                              uint64_t seed, double scale) {
  RmatOptions options;
  options.scale = ScaledRmatLog(base_log, scale);
  // Edge draws shrink with the realized vertex shrink (a power of two),
  // keeping average degree roughly constant across scales.
  const double realized =
      std::pow(2.0, static_cast<double>(options.scale) -
                        static_cast<double>(base_log));
  options.num_edges = std::max<uint64_t>(
      1024, static_cast<uint64_t>(std::llround(
                static_cast<double>(base_edges) * realized)));
  options.seed = seed;
  PREDICT_ASSIGN_OR_RETURN(Graph graph, GenerateRmat(options));
  // The scale tier always ships compressed edges — surviving a fixed
  // memory budget is the point of these datasets.
  return Graph::WithCompressedEdges(std::move(graph));
}

}  // namespace

const std::vector<DatasetInfo>& PaperDatasets() {
  static const std::vector<DatasetInfo> datasets = {
      {"lj", "LiveJournal stand-in: log-normal out-degree (not power-law)",
       80000, 1125193, false},
      {"wiki", "Wikipedia stand-in: power-law link graph", 100000, 910971,
       true},
      {"tw", "Twitter stand-in: dense power-law social graph", 80000, 3857894,
       true},
      {"uk", "UK-2002 stand-in: power-law web crawl, higher density", 120000,
       1460775, true},
  };
  return datasets;
}

std::vector<std::string> PaperDatasetNames() {
  std::vector<std::string> names;
  for (const DatasetInfo& info : PaperDatasets()) names.push_back(info.name);
  return names;
}

const std::vector<DatasetInfo>& ScaleDatasets() {
  static const std::vector<DatasetInfo> datasets = {
      {"rmat10m",
       "RMAT scale-17 Graph500-style graph, ~10M unique edges, "
       "compressed CSR",
       131072, 10000000, true},
      {"rmat100m",
       "RMAT scale-20, ~100M unique edges (opt-in: PREDICT_SCALE_XL=1), "
       "compressed CSR",
       1048576, 100000000, true},
  };
  return datasets;
}

std::vector<std::string> ScaleDatasetNames() {
  std::vector<std::string> names;
  for (const DatasetInfo& info : ScaleDatasets()) names.push_back(info.name);
  return names;
}

Result<Graph> MakeDataset(const std::string& name, double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {  // written so NaN fails too
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  if (name == "lj") {
    LogNormalDegreeOptions options;
    options.num_vertices = Scaled(80000, scale);
    options.log_mean = 2.3;
    options.log_stddev = 0.7;
    // Low reciprocity: reciprocal edges land preferentially on hubs and
    // would re-grow the power-law tail this dataset must NOT have.
    options.reciprocal_p = 0.1;
    options.seed = 11;  // fixed per dataset
    return GenerateLogNormalDegreeGraph(options);
  }
  if (name == "wiki") {
    PreferentialAttachmentOptions options;
    options.num_vertices = Scaled(100000, scale);
    options.out_degree = 8;
    options.reciprocal_p = 0.15;
    options.seed = 22;
    return GeneratePreferentialAttachment(options);
  }
  if (name == "tw") {
    PreferentialAttachmentOptions options;
    options.num_vertices = Scaled(80000, scale);
    options.out_degree = 36;
    options.reciprocal_p = 0.35;
    options.seed = 33;
    return GeneratePreferentialAttachment(options);
  }
  if (name == "uk") {
    CopyModelOptions options;
    options.num_vertices = Scaled(120000, scale);
    options.copy_p = 0.72;
    options.zipf_alpha = 2.05;  // web pages have power-law out-degree too
    options.min_out_degree = 5;
    options.max_out_degree = 4000;
    options.seed = 44;
    return GenerateCopyModelWebGraph(options);
  }
  if (name == "rmat10m") {
    // 14M edge draws dedup to >= 10M unique directed edges at scale 17
    // (average out-degree ~85; the density keeps adjacency gaps small,
    // which is what makes the varint streams beat 0.6x of plain CSR —
    // bench/rmat_scale_gate.cc pins both bounds).
    return MakeRmatDataset(17, 14000000, 55, scale);
  }
  if (name == "rmat100m") {
    return MakeRmatDataset(20, 240000000, 56, scale);
  }
  return Status::NotFound("unknown dataset '" + name +
                          "'; known: lj, wiki, tw, uk, rmat10m, rmat100m");
}

bsp::EngineOptions PaperClusterOptions() {
  // The paper deployment lives in the scenario registry ("giraph-29":
  // 29 workers, 60-superstep cap, and a 300 MiB budget calibrated so
  // that semi-clustering / top-k / neighborhood estimation exhaust
  // memory on "tw" but fit on "uk" — §5 "Memory Limits"); this function
  // is the historical accessor for it.
  return bsp::FindScenario("giraph-29").value().ToEngineOptions();
}

}  // namespace predict
