// Edge-list text I/O.
//
// Format: one edge per line, "src dst [weight]", '#'-prefixed comment
// lines ignored — the format used by SNAP (the source of the paper's
// LiveJournal dataset) and by the WebGraph-derived edge dumps of UK-2002.

#ifndef PREDICT_GRAPH_IO_H_
#define PREDICT_GRAPH_IO_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace predict {

/// The most vertices either reader accepts: 2^26 (67,108,864). Both
/// readers check it before allocating anything sized from the input (an
/// edge-list id or `num_vertices`, a PRDG header's |V|) and fail with
/// OutOfRange. A file's size cannot bound |V|, since isolated vertices
/// are legal. The limit is 64x the largest in-tree dataset (rmat100m,
/// 2^20 vertices) and above the paper's largest graph (Twitter, 41.7M
/// vertices). At the limit the two CSR offset arrays alone take 1 GiB,
/// more than the largest simulated cluster's memory budget
/// (fast-network-64: 662 MiB), so no budgeted run could take more.
inline constexpr uint64_t kMaxGraphFileVertices = uint64_t{1} << 26;

/// Reads a graph from an edge-list text file. `num_vertices` of 0 means
/// "infer as max id + 1".
Result<Graph> ReadEdgeListFile(const std::string& path,
                               VertexId num_vertices = 0);

/// Parses a graph from an in-memory edge-list string (same format).
Result<Graph> ParseEdgeList(const std::string& text, VertexId num_vertices = 0);

/// Writes the graph as an edge-list text file. Weights are emitted only
/// for weighted graphs.
Status WriteEdgeListFile(const Graph& graph, const std::string& path);

/// \brief Compact binary graph format ("PRDG"), for graphs too large to
/// re-parse as text on every run.
///
/// Layout: magic "PRDG" (4 bytes), format version u32, |V| u64, |E| u64,
/// weighted u8, then |E| edges as (src u32, dst u32[, weight f32]).
/// Little-endian; intended as a local cache format, not an interchange
/// format.
Status WriteBinaryGraphFile(const Graph& graph, const std::string& path);

/// Reads a graph written by WriteBinaryGraphFile. IOError when the file
/// is not PRDG or holds fewer edges than its header claims; OutOfRange
/// when its |V| exceeds kMaxGraphFileVertices.
Result<Graph> ReadBinaryGraphFile(const std::string& path);

}  // namespace predict

#endif  // PREDICT_GRAPH_IO_H_
