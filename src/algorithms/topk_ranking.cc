#include "algorithms/topk_ranking.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "algorithms/pagerank.h"

namespace predict {

namespace {

// Descending by rank; ascending origin breaks ties deterministically.
bool EntryLess(const RankEntry& a, const RankEntry& b) {
  return a.rank != b.rank ? a.rank > b.rank : a.origin < b.origin;
}

// Inserts `entry` into the sorted list if it belongs in the top k.
// Returns true if the list changed. Entries are deduplicated by origin
// (a vertex's rank is fixed, so the first copy is authoritative).
bool MergeEntry(std::vector<RankEntry>* list, const RankEntry& entry,
                size_t k) {
  for (const RankEntry& existing : *list) {
    if (existing.origin == entry.origin) return false;
  }
  auto pos = std::lower_bound(list->begin(), list->end(), entry, EntryLess);
  if (list->size() >= k && pos == list->end()) return false;
  list->insert(pos, entry);
  if (list->size() > k) list->pop_back();
  return true;
}

// A list's capacity bounds its message (TopKMessage), so a k the message
// cannot carry is rejected rather than clamped.
Status CheckTopKConfig(const AlgorithmConfig& config) {
  const double k = config.at("k");
  if (!(k >= 1.0 && k <= static_cast<double>(kMaxTopK))) {
    return Status::InvalidArgument(
        "topk_ranking: k must be in [1, " + std::to_string(kMaxTopK) +
        "], got " + std::to_string(k));
  }
  return Status::OK();
}

}  // namespace

const AlgorithmSpec& TopKRankingSpec() {
  static const AlgorithmSpec spec = [] {
    AlgorithmSpec s;
    s.name = "topk_ranking";
    s.convergence = ConvergenceKind::kRelativeRatio;
    s.default_config = {{"k", 10}, {"tau", 0.001}, {"rank_iterations", 15}};
    s.convergence_keys = {"tau"};
    s.check_config = &CheckTopKConfig;
    return s;
  }();
  return spec;
}

TopKRankingProgram::TopKRankingProgram(const AlgorithmConfig& config,
                                       std::span<const double> ranks)
    : ranks_(ranks) {
  k_ = static_cast<size_t>(config.at("k"));
  tau_ = config.at("tau");
  assert(k_ >= 1 && k_ <= kMaxTopK);  // ResolveConfig's CheckTopKConfig
}

void TopKRankingProgram::RegisterAggregators(
    bsp::AggregatorRegistry* registry) {
  updates_agg_ = registry->Register(kUpdatesAggregate, bsp::AggregatorOp::kSum);
}

TopKValue TopKRankingProgram::InitialValue(VertexId v,
                                           const Graph& graph) const {
  (void)graph;
  TopKValue value;
  value.entries.push_back({ranks_[v], v});
  return value;
}

void TopKRankingProgram::Compute(
    bsp::VertexContext<TopKValue, TopKMessage>* ctx,
    std::span<const TopKMessage> messages) {
  std::vector<RankEntry>& list = ctx->value().entries;
  bool changed = false;
  if (ctx->superstep() == 0) {
    changed = true;  // the initial list is news to the neighbors
  } else {
    for (const TopKMessage& msg : messages) {
      for (uint32_t i = 0; i < msg.count; ++i) {
        const VertexId origin = msg.origins[i];
        const RankEntry entry{ranks_[origin], origin};
        // A full list rejects an entry that does not rank strictly above
        // its tail, and stays unchanged. The message's entries come
        // best-first, so MergeEntry would reject every later one too.
        if (list.size() >= k_ && !EntryLess(entry, list.back())) break;
        changed |= MergeEntry(&list, entry, k_);
      }
    }
  }
  if (changed) {
    ctx->Aggregate(updates_agg_, 1.0);
    if (ctx->out_degree() > 0) {
      TopKMessage message;
      message.count = static_cast<uint32_t>(list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        message.origins[i] = list[i].origin;
      }
      ctx->SendMessageToAllNeighbors(message);
    }
  }
  ctx->VoteToHalt();
}

void TopKRankingProgram::Combine(TopKMessage& into,
                                 const TopKMessage& message) const {
  // Both lists are best-first, so a full `into` whose tail ranks above
  // the message's best entry already is the top k of the union.
  if (message.count == 0 ||
      (into.count == k_ &&
       !RanksAbove(message.origins[0], into.origins[k_ - 1]))) {
    return;
  }
  // Linear merge, keeping the first k. An origin on both lists has one
  // rank, so its two copies meet at the heads together; one is kept.
  TopKMessage merged;
  uint32_t i = 0;
  uint32_t j = 0;
  while (merged.count < k_ && (i < into.count || j < message.count)) {
    merged.origins[merged.count++] = [&] {
      if (j == message.count) return into.origins[i++];
      if (i == into.count) return message.origins[j++];
      if (into.origins[i] == message.origins[j]) {
        ++j;
        return into.origins[i++];
      }
      return RanksAbove(into.origins[i], message.origins[j])
                 ? into.origins[i++]
                 : message.origins[j++];
    }();
  }
  into = merged;
}

void TopKRankingProgram::MasterCompute(bsp::MasterContext* ctx) {
  if (ctx->superstep() == 0) return;
  const double active_ratio = ctx->GetAggregate(updates_agg_) /
                              static_cast<double>(ctx->num_vertices());
  if (active_ratio < tau_) ctx->HaltComputation();
}

Result<TopKResult> RunTopKRanking(const Graph& graph,
                                  const AlgorithmConfig& overrides,
                                  const bsp::EngineOptions& engine_options,
                                  std::vector<double> ranks) {
  PREDICT_ASSIGN_OR_RETURN(AlgorithmConfig config,
                           ResolveConfig(TopKRankingSpec(), overrides));
  if (ranks.empty()) {
    // Produce input ranks with a fixed-iteration PageRank (not profiled:
    // the paper treats top-k as its own algorithm running on PR output).
    bsp::EngineOptions rank_engine = engine_options;
    rank_engine.max_supersteps =
        static_cast<int>(config.at("rank_iterations"));
    rank_engine.memory_budget_bytes = 0;  // the PR pre-pass always fits
    PREDICT_ASSIGN_OR_RETURN(
        PageRankResult pr,
        RunPageRank(graph, {{"tau", 0.0}}, rank_engine));
    ranks = std::move(pr.ranks);
  }
  if (ranks.size() != graph.num_vertices()) {
    return Status::InvalidArgument("ranks size " + std::to_string(ranks.size()) +
                                   " != num_vertices " +
                                   std::to_string(graph.num_vertices()));
  }

  TopKRankingProgram program(config, ranks);
  bsp::Engine<TopKValue, TopKMessage> engine(engine_options);
  PREDICT_ASSIGN_OR_RETURN(bsp::RunStats stats, engine.Run(graph, &program));
  TopKResult result;
  result.stats = std::move(stats);
  result.lists = std::move(engine.mutable_vertex_values());
  return result;
}

}  // namespace predict
