#include "algorithms/runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "algorithms/connected_components.h"
#include "algorithms/neighborhood.h"
#include "algorithms/pagerank.h"
#include "algorithms/rwr_proximity.h"
#include "algorithms/semiclustering.h"
#include "algorithms/topk_ranking.h"

namespace predict {

namespace {

struct RegistryEntry {
  AlgorithmSpec spec;
  AlgorithmRunner runner;
};

using EntryPtr = std::shared_ptr<const RegistryEntry>;

// Entries are immutable once registered and handed out as shared const
// pointers: a lookup never copies the spec/runner, and concurrent
// predictions (PredictionService fan-out) share one entry while invoking
// its runner on the same const Graph from many threads.
class Registry {
 public:
  static const Registry& Instance() {
    static Registry registry;
    return registry;
  }

  Status Add(const AlgorithmSpec& spec, AlgorithmRunner runner) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(spec.name) != 0) {
      return Status::AlreadyExists("algorithm '" + spec.name +
                                   "' already registered");
    }
    entries_[spec.name] =
        std::make_shared<const RegistryEntry>(spec, std::move(runner));
    return Status::OK();
  }

  Result<EntryPtr> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("unknown algorithm '" + name +
                              "'; registered: " + JoinNamesLocked());
    }
    return it->second;
  }

  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

 private:
  Registry() { RegisterBuiltins(); }

  std::string JoinNamesLocked() const {
    std::string joined;
    for (const auto& [name, entry] : entries_) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    return joined;
  }

  void RegisterBuiltins();

  mutable std::mutex mutex_;
  mutable std::map<std::string, EntryPtr> entries_;
};

void Registry::RegisterBuiltins() {
  entries_[PageRankSpec().name] = std::make_shared<const RegistryEntry>(
      PageRankSpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            PageRankResult pr,
            RunPageRank(graph, options.config_overrides, options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(pr.stats);
        return result;
      });

  entries_[SemiClusteringSpec().name] = std::make_shared<const RegistryEntry>(
      SemiClusteringSpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            SemiClusteringResult sc,
            RunSemiClustering(graph, options.config_overrides, options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(sc.stats);
        return result;
      });

  entries_[TopKRankingSpec().name] = std::make_shared<const RegistryEntry>(
      TopKRankingSpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            TopKResult topk,
            RunTopKRanking(graph, options.config_overrides, options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(topk.stats);
        return result;
      });

  entries_[ConnectedComponentsSpec().name] = std::make_shared<const RegistryEntry>(
      ConnectedComponentsSpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        if (!options.config_overrides.empty()) {
          return Status::InvalidArgument(
              "connected_components takes no config parameters");
        }
        PREDICT_ASSIGN_OR_RETURN(ConnectedComponentsResult cc,
                                 RunConnectedComponents(graph, options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(cc.stats);
        return result;
      });

  entries_[NeighborhoodSpec().name] = std::make_shared<const RegistryEntry>(
      NeighborhoodSpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            NeighborhoodResult nh,
            RunNeighborhoodEstimation(graph, options.config_overrides,
                                      options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(nh.stats);
        return result;
      });

  entries_[RwrProximitySpec().name] = std::make_shared<const RegistryEntry>(
      RwrProximitySpec(),
      [](const Graph& graph, const RunOptions& options)
          -> Result<AlgorithmRunResult> {
        PREDICT_ASSIGN_OR_RETURN(
            RwrResult rwr,
            RunRwrProximity(graph, options.config_overrides, options.engine));
        AlgorithmRunResult result;
        result.stats = std::move(rwr.stats);
        return result;
      });
}

}  // namespace

Result<AlgorithmSpec> FindAlgorithmSpec(const std::string& name) {
  PREDICT_ASSIGN_OR_RETURN(EntryPtr entry, Registry::Instance().Find(name));
  return entry->spec;
}

Result<AlgorithmRunResult> RunAlgorithmByName(const std::string& name,
                                              const Graph& graph,
                                              const RunOptions& options) {
  PREDICT_ASSIGN_OR_RETURN(EntryPtr entry, Registry::Instance().Find(name));
  return entry->runner(graph, options);
}

std::vector<std::string> RegisteredAlgorithmNames() {
  return Registry::Instance().Names();
}

Status RegisterAlgorithm(const AlgorithmSpec& spec, AlgorithmRunner runner) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("algorithm name must not be empty");
  }
  return Registry::Instance().Add(spec, std::move(runner));
}

}  // namespace predict
