#include "algorithms/semiclustering.h"

#include <algorithm>

#include "graph/transforms.h"

namespace predict {

namespace {

// S_c of a cluster with `size` members; SemiCluster::Score and the
// candidate handles both score through here, so they agree bit for bit.
double ClusterScore(double internal_weight, double boundary_weight,
                    size_t size, double boundary_factor) {
  const double vc = static_cast<double>(size);
  const double denom = std::max(1.0, vc * (vc - 1.0) / 2.0);
  return (internal_weight - boundary_factor * boundary_weight) / denom;
}

// A candidate cluster ranked without copying it: its member list stays
// where it already lives (a received message, the vertex's own state, or
// the worker's extension pool) and its score is computed once.
struct ClusterHandle {
  std::span<const VertexId> members;  // sorted ascending
  double internal_weight;
  double boundary_weight;
  double score;

  bool ContainsVertex(VertexId v) const {
    return std::binary_search(members.begin(), members.end(), v);
  }
  bool operator==(const ClusterHandle& other) const {
    return std::ranges::equal(members, other.members);
  }
};

ClusterHandle MakeHandle(std::span<const VertexId> members,
                         double internal_weight, double boundary_weight,
                         double boundary_factor) {
  return {members, internal_weight, boundary_weight,
          ClusterScore(internal_weight, boundary_weight, members.size(),
                       boundary_factor)};
}

// Deterministic candidate ordering: score descending, then member list
// lexicographic (clusters are value types; no pointer identity involved).
bool HandleOrder(const ClusterHandle& a, const ClusterHandle& b) {
  if (a.score != b.score) return a.score > b.score;
  return std::ranges::lexicographical_compare(a.members, b.members);
}

// Sorts by HandleOrder and drops adjacent duplicate member lists.
void SortUnique(std::vector<ClusterHandle>* handles) {
  std::sort(handles->begin(), handles->end(), HandleOrder);
  handles->erase(std::unique(handles->begin(), handles->end()),
                 handles->end());
}

// A vertex's incident edges, read in place from its adjacency row, which
// the program's precondition keeps sorted and free of duplicates: so
// extending a cluster costs O(v_max * log deg), not O(deg) per candidate
// (hubs receive thousands of candidates).
class IncidentEdges {
 public:
  explicit IncidentEdges(
      const bsp::VertexContext<SemiClusterValue, SemiClusterMessage>& ctx)
      : neighbors_(ctx.out_neighbors()),
        weights_(ctx.graph_is_weighted() ? ctx.out_weights()
                                         : std::span<const float>{}) {}

  // Total weight of the incident edges, summed in row order.
  double TotalWeight() const {
    if (weights_.empty()) return static_cast<double>(neighbors_.size());
    double total = 0.0;
    for (const float w : weights_) total += w;
    return total;
  }

  // Total edge weight from this vertex to `members`.
  double WeightTo(std::span<const VertexId> members) const {
    double sum = 0.0;
    for (const VertexId m : members) {
      const auto it =
          std::lower_bound(neighbors_.begin(), neighbors_.end(), m);
      if (it == neighbors_.end() || *it != m) continue;
      sum += weights_.empty() ? 1.0f : weights_[it - neighbors_.begin()];
    }
    return sum;
  }

 private:
  std::span<const VertexId> neighbors_;
  std::span<const float> weights_;
};

}  // namespace

// Compute's working set, kept across calls so that a worker's capacity
// grows to its largest vertex once instead of being allocated per call.
struct SemiClusteringProgram::WorkerScratch {
  std::vector<VertexId> pool;  // the extended clusters' member lists
  std::vector<ClusterHandle> candidates;
  std::vector<ClusterHandle> containing;
};

bool SemiCluster::ContainsVertex(VertexId v) const {
  return std::binary_search(members.begin(), members.end(), v);
}

double SemiCluster::Score(double boundary_factor) const {
  return ClusterScore(internal_weight, boundary_weight, members.size(),
                      boundary_factor);
}

const AlgorithmSpec& SemiClusteringSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "semiclustering";
    s.convergence = ConvergenceKind::kRelativeRatio;
    s.default_config = {{"f_b", 0.1},  {"v_max", 10}, {"c_max", 1},
                        {"s_max", 1},  {"tau", 0.001}};
    s.convergence_keys = {"tau"};
    return s;
  }();
  return spec;
}

SemiClusteringProgram::SemiClusteringProgram(const AlgorithmConfig& config,
                                             uint32_t num_workers)
    : scratch_(num_workers) {
  boundary_factor_ = config.at("f_b");
  v_max_ = static_cast<size_t>(config.at("v_max"));
  c_max_ = static_cast<size_t>(config.at("c_max"));
  s_max_ = static_cast<size_t>(config.at("s_max"));
  tau_ = config.at("tau");
}

SemiClusteringProgram::~SemiClusteringProgram() = default;

void SemiClusteringProgram::RegisterAggregators(
    bsp::AggregatorRegistry* registry) {
  updated_agg_ = registry->Register(kUpdatedAggregate, bsp::AggregatorOp::kSum);
  total_agg_ = registry->Register(kTotalAggregate, bsp::AggregatorOp::kSum);
}

SemiClusterValue SemiClusteringProgram::InitialValue(VertexId v,
                                                     const Graph& graph) const {
  // The singleton cluster {v}: no internal edges; every incident edge is
  // a boundary edge.
  SemiCluster cluster;
  cluster.members = {v};
  cluster.internal_weight = 0.0;
  double boundary = 0.0;
  if (graph.is_weighted()) {
    for (const float w : graph.out_weights(v)) boundary += w;
  } else {
    boundary = static_cast<double>(graph.out_degree(v));
  }
  cluster.boundary_weight = boundary;
  return {{std::move(cluster)}};
}

void SemiClusteringProgram::Compute(
    bsp::VertexContext<SemiClusterValue, SemiClusterMessage>* ctx,
    std::span<const SemiClusterMessage> messages) {
  const VertexId self = ctx->id();
  std::vector<SemiCluster>& own = ctx->value().clusters;

  if (ctx->superstep() == 0) {
    // Send the singleton cluster to all neighbors.
    ctx->Aggregate(total_agg_, static_cast<double>(own.size()));
    if (ctx->out_degree() > 0) {
      ctx->SendMessageToAllNeighbors(SemiClusterMessage::Pack(own));
    }
    return;
  }

  // Candidates for forwarding: every received cluster plus the extension
  // of each one by this vertex (when legal). The extensions' member
  // lists go into the pool, sized up front so the spans into it stay
  // valid.
  WorkerScratch& scratch = scratch_[ctx->worker()];
  size_t pool_size = 0;
  for (const SemiClusterMessage& msg : messages) {
    msg.ForEachCluster([&](const SemiClusterMessage::View& cluster) {
      pool_size += cluster.members.size() + 1;
    });
  }
  std::vector<VertexId>& pool = scratch.pool;
  pool.clear();
  pool.reserve(pool_size);
  const IncidentEdges incident(*ctx);
  const double total = incident.TotalWeight();
  std::vector<ClusterHandle>& candidates = scratch.candidates;
  candidates.clear();
  for (const SemiClusterMessage& msg : messages) {
    msg.ForEachCluster([&](const SemiClusterMessage::View& cluster) {
      const std::span<const VertexId> members = cluster.members;
      candidates.push_back(MakeHandle(members, cluster.internal_weight,
                                      cluster.boundary_weight,
                                      boundary_factor_));
      const auto insert_at =
          std::lower_bound(members.begin(), members.end(), self);
      if (members.size() >= v_max_ ||
          (insert_at != members.end() && *insert_at == self)) {
        return;
      }
      const double to_members = incident.WeightTo(members);
      const size_t begin = pool.size();
      pool.insert(pool.end(), members.begin(), insert_at);
      pool.push_back(self);
      pool.insert(pool.end(), insert_at, members.end());
      // Edges from this vertex to members become internal; members'
      // boundary edges towards this vertex stop being boundary; this
      // vertex's other incident edges become new boundary edges.
      candidates.push_back(MakeHandle(
          {pool.data() + begin, pool.size() - begin},
          cluster.internal_weight + to_members,
          cluster.boundary_weight + ((total - to_members) - to_members),
          boundary_factor_));
    });
  }
  SortUnique(&candidates);

  // Forward the s_max best known clusters.
  if (!candidates.empty() && ctx->out_degree() > 0) {
    const size_t count = std::min(s_max_, candidates.size());
    ctx->SendMessageToAllNeighbors(SemiClusterMessage::Pack(
        std::span<const ClusterHandle>(candidates.data(), count)));
  }

  // Update this vertex's list of c_max best clusters containing itself.
  std::vector<ClusterHandle>& containing = scratch.containing;
  containing.clear();
  for (const SemiCluster& cluster : own) {
    containing.push_back(MakeHandle(cluster.members, cluster.internal_weight,
                                    cluster.boundary_weight,
                                    boundary_factor_));
  }
  for (const ClusterHandle& cluster : candidates) {
    if (cluster.ContainsVertex(self)) containing.push_back(cluster);
  }
  SortUnique(&containing);
  if (containing.size() > c_max_) containing.resize(c_max_);

  // A cluster counts as updated if it was not in the previous list.
  uint64_t updated = 0;
  for (const ClusterHandle& cluster : containing) {
    const bool known = std::any_of(
        own.begin(), own.end(), [&](const SemiCluster& previous) {
          return std::ranges::equal(cluster.members, previous.members);
        });
    if (!known) ++updated;
  }
  ctx->Aggregate(updated_agg_, static_cast<double>(updated));
  ctx->Aggregate(total_agg_, static_cast<double>(containing.size()));

  // Rewrite `own` in place, back to front. A kept cluster that was
  // already own[j] lands at an index i >= j: each of own[0..j) ranks
  // above it and survives, or is replaced by an equal member list that
  // ranks no lower. So own[j] is still intact when it is copied, and a
  // cluster that stays put (i == j) is not copied at all. Resizing moves
  // the member vectors, not their buffers, so the spans stay valid.
  own.resize(containing.size());
  for (size_t i = containing.size(); i-- > 0;) {
    const ClusterHandle& kept = containing[i];
    SemiCluster& slot = own[i];
    if (kept.members.data() != slot.members.data()) {
      slot.members.assign(kept.members.begin(), kept.members.end());
    }
    slot.internal_weight = kept.internal_weight;
    slot.boundary_weight = kept.boundary_weight;
  }
  // Vertices stay active; the master's update-ratio check stops the run.
}

void SemiClusteringProgram::MasterCompute(bsp::MasterContext* ctx) {
  if (ctx->superstep() == 0) return;
  const double total = ctx->GetAggregate(total_agg_);
  if (total <= 0.0) return;
  const double ratio = ctx->GetAggregate(updated_agg_) / total;
  if (ratio < tau_) ctx->HaltComputation();
}

uint64_t SemiClusteringProgram::MessageBytes(
    const SemiClusterMessage& message) const {
  uint64_t bytes = 8;
  message.ForEachCluster([&](const SemiClusterMessage::View& cluster) {
    bytes += 24 + 4 * cluster.members.size();
  });
  return bytes;
}

uint64_t SemiClusteringProgram::VertexStateBytes(
    const SemiClusterValue& value) const {
  uint64_t bytes = 16;
  for (const SemiCluster& cluster : value.clusters) {
    bytes += 24 + 4 * cluster.members.size();
  }
  return bytes;
}

Result<SemiClusteringResult> RunSemiClustering(
    const Graph& graph, const AlgorithmConfig& overrides,
    const bsp::EngineOptions& engine_options) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(SemiClusteringSpec(), overrides));
  PREDICT_ASSIGN_OR_RETURN(Graph undirected, ToUndirected(graph));
  SemiClusteringProgram program(config, engine_options.num_workers);
  bsp::Engine<SemiClusterValue, SemiClusterMessage> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(undirected, &program));
  SemiClusteringResult result;
  result.stats = std::move(stats);
  result.clusters = std::move(engine.mutable_vertex_values());
  return result;
}

}  // namespace predict
