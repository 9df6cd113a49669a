#include "graph/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strings.h"

namespace predict {

namespace {

Status VertexLimitError(const std::string& what) {
  return Status::OutOfRange(what + " exceeds the readers' limit of " +
                            std::to_string(kMaxGraphFileVertices) +
                            " vertices");
}

Result<Graph> ParseEdgeLines(std::istream& in, VertexId num_vertices) {
  if (num_vertices > kMaxGraphFileVertices) {
    return VertexLimitError("vertex count " + std::to_string(num_vertices));
  }
  std::vector<Edge> edges;
  VertexId max_id = 0;
  bool saw_vertex = false;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    uint64_t src = 0, dst = 0;
    double weight = 1.0;
    const int n = std::sscanf(std::string(trimmed).c_str(), "%llu %llu %lf",
                              reinterpret_cast<unsigned long long*>(&src),
                              reinterpret_cast<unsigned long long*>(&dst),
                              &weight);
    if (n < 2) {
      return Status::IOError("malformed edge at line " + std::to_string(line_no) +
                             ": '" + std::string(trimmed) + "'");
    }
    if (src >= kMaxGraphFileVertices || dst >= kMaxGraphFileVertices) {
      return VertexLimitError("vertex id at line " + std::to_string(line_no));
    }
    edges.push_back({static_cast<VertexId>(src), static_cast<VertexId>(dst),
                     static_cast<float>(n >= 3 ? weight : 1.0)});
    max_id = std::max(max_id, static_cast<VertexId>(std::max(src, dst)));
    saw_vertex = true;
  }
  if (num_vertices == 0) num_vertices = saw_vertex ? max_id + 1 : 0;
  return Graph::FromEdges(num_vertices, std::move(edges));
}

}  // namespace

Result<Graph> ReadEdgeListFile(const std::string& path, VertexId num_vertices) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " + std::strerror(errno));
  }
  return ParseEdgeLines(in, num_vertices);
}

Result<Graph> ParseEdgeList(const std::string& text, VertexId num_vertices) {
  std::istringstream in(text);
  return ParseEdgeLines(in, num_vertices);
}

namespace {

constexpr char kBinaryMagic[4] = {'P', 'R', 'D', 'G'};
constexpr uint32_t kBinaryVersion = 1;

template <typename T>
void WriteScalar(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadScalar(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status WriteBinaryGraphFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing: " +
                           std::strerror(errno));
  }
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  WriteScalar<uint32_t>(out, kBinaryVersion);
  WriteScalar<uint64_t>(out, graph.num_vertices());
  WriteScalar<uint64_t>(out, graph.num_edges());
  WriteScalar<uint8_t>(out, graph.is_weighted() ? 1 : 0);
  std::vector<VertexId> decode;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto targets = graph.OutNeighborsInto(v, &decode);
    for (size_t i = 0; i < targets.size(); ++i) {
      WriteScalar<uint32_t>(out, v);
      WriteScalar<uint32_t>(out, targets[i]);
      if (graph.is_weighted()) {
        WriteScalar<float>(out, graph.out_weights(v)[i]);
      }
    }
  }
  if (!out) {
    return Status::IOError("write failed for '" + path + "': " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<Graph> ReadBinaryGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " + std::strerror(errno));
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::IOError("'" + path + "' is not a PRDG binary graph");
  }
  uint32_t version = 0;
  uint64_t num_vertices = 0, num_edges = 0;
  uint8_t weighted = 0;
  if (!ReadScalar(in, &version) || version != kBinaryVersion) {
    return Status::IOError("unsupported PRDG version in '" + path + "'");
  }
  if (!ReadScalar(in, &num_vertices) || !ReadScalar(in, &num_edges) ||
      !ReadScalar(in, &weighted)) {
    return Status::IOError("truncated PRDG header in '" + path + "'");
  }
  if (num_vertices > kMaxGraphFileVertices) {
    return VertexLimitError("PRDG vertex count " +
                            std::to_string(num_vertices));
  }
  // The edge count sizes the edge list below, so it must fit the bytes
  // the file has left: a corrupt header fails here, not in the allocator.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  const uint64_t edge_bytes = weighted != 0 ? 12 : 8;
  if (!in || header_end < 0 || file_end < header_end ||
      num_edges > static_cast<uint64_t>(file_end - header_end) / edge_bytes) {
    return Status::IOError("truncated PRDG edge section in '" + path + "'");
  }
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint32_t src = 0, dst = 0;
    float weight = 1.0f;
    if (!ReadScalar(in, &src) || !ReadScalar(in, &dst) ||
        (weighted != 0 && !ReadScalar(in, &weight))) {
      return Status::IOError("truncated PRDG edge section in '" + path + "'");
    }
    edges.push_back({src, dst, weight});
  }
  return Graph::FromEdges(static_cast<VertexId>(num_vertices),
                          std::move(edges));
}

Status WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing: " +
                           std::strerror(errno));
  }
  out << "# predict edge list |V|=" << graph.num_vertices()
      << " |E|=" << graph.num_edges() << "\n";
  std::vector<VertexId> decode;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto targets = graph.OutNeighborsInto(v, &decode);
    for (size_t i = 0; i < targets.size(); ++i) {
      out << v << ' ' << targets[i];
      if (graph.is_weighted()) out << ' ' << graph.out_weights(v)[i];
      out << '\n';
    }
  }
  if (!out) {
    return Status::IOError("write failed for '" + path + "': " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace predict
