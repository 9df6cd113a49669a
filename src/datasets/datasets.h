// The four evaluation datasets (Table 2 of the paper), rebuilt as
// synthetic stand-ins.
//
// The real LiveJournal / Wikipedia / Twitter / UK-2002 graphs are 1-25 GB
// and not redistributable, so each is replaced by a generator
// configuration that reproduces the property the paper's findings hinge
// on:
//   lj   — social graph whose out-degree is log-normal, NOT power-law
//          (the paper's explanation for LJ's poor predictability);
//   wiki — power-law web-ish graph, moderate density;
//   uk   — power-law web crawl, higher density, larger diameter;
//   tw   — power-law social graph, much denser per vertex (the paper's
//          Twitter is ~9x denser than its web graphs; density is what
//          drives both the §5.4 sampling-overhead result and the §5
//          "Memory Limits" OOMs).
// Sizes are scaled to laptop scale; `scale` shrinks them further for
// unit tests.

#ifndef PREDICT_DATASETS_DATASETS_H_
#define PREDICT_DATASETS_DATASETS_H_

#include <string>
#include <vector>

#include "bsp/engine.h"
#include "common/result.h"
#include "graph/graph.h"

namespace predict {

/// Registry metadata for one dataset (the columns of Table 2).
struct DatasetInfo {
  std::string name;        ///< short prefix used in the paper's figures
  std::string description; ///< which real graph this stands in for
  VertexId num_vertices = 0;   ///< at scale 1.0
  uint64_t approx_edges = 0;   ///< at scale 1.0 (generator-dependent)
  bool scale_free = true;      ///< power-law out-degree?
};

/// The four paper datasets, in Table 2 order: lj, wiki, tw, uk.
const std::vector<DatasetInfo>& PaperDatasets();

/// Short names, in Table 2 order.
std::vector<std::string> PaperDatasetNames();

/// Scale-tier datasets: deterministic-by-seed RMAT graphs far beyond the
/// paper stand-ins, built with varint/delta-compressed edges
/// (Graph::edges_compressed()) so they fit simulated memory budgets.
/// Kept out of PaperDatasets() deliberately — the paper suite and every
/// test iterating it stays laptop-fast; the scale tier is exercised by
/// bench/rmat_scale_gate.cc and opt-in CLI runs. "rmat100m" is the
/// PREDICT_SCALE_XL=1 configuration (~100M edges; several GB of host RAM
/// during generation).
const std::vector<DatasetInfo>& ScaleDatasets();

/// Short names of the scale tier, registry order.
std::vector<std::string> ScaleDatasetNames();

/// Builds a dataset by name — the paper stand-ins ("lj", "wiki", "tw",
/// "uk", plain edges) or the scale tier ("rmat10m", "rmat100m",
/// compressed edges). `scale` in (0,1] shrinks the vertex count (tests
/// use 0.05-0.2; benches use 1.0).
Result<Graph> MakeDataset(const std::string& name, double scale = 1.0);

/// EngineOptions matching the paper's cluster: 29 workers and a total
/// memory budget calibrated so that semi-clustering, top-k and
/// neighborhood estimation exhaust memory on "tw" but fit on "uk"
/// (§5 "Memory Limits").
bsp::EngineOptions PaperClusterOptions();

}  // namespace predict

#endif  // PREDICT_DATASETS_DATASETS_H_
