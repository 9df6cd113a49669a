// The BSP execution engine (the repo's Giraph stand-in).
//
// Executes a VertexProgram over a Graph in supersteps with Pregel
// semantics: messages sent in superstep S are delivered in S+1, vertices
// vote to halt and are reactivated by incoming messages, aggregators
// reduce per superstep, and a master hook can stop the job. Workers are
// simulated: vertices are assigned to `num_workers` logical workers by a
// pluggable PartitionMap (bsp/partition.h; hash modulo by default) whose
// Table-1 counters drive the simulated cost clock (bsp/cost_profile.h)
// and the simulated memory model.
//
// The hot path is allocation-free in steady state: messages flow through
// per-worker chunked arenas that are bucket-sorted into contiguous
// CSR-style slabs at the superstep barrier (bsp/message_store.h), and
// each superstep touches only O(active + messaged) vertices via
// per-worker worklists (bsp/worklist.h) instead of scanning all |V|. A
// program that declares a combiner (bsp/vertex_program.h) gets one
// inbox slot per vertex instead: an inline run (no pool threads) folds
// each message into its slot when it is sent, so it stages nothing and
// its barrier only swaps slabs; a pooled run stages in the arenas and
// its barrier folds them.
//
// Host threads only accelerate the simulation — simulated time, counters
// and results are bit-identical for any thread count. Per vertex,
// messages are delivered ordered by sender worker ascending and, within
// one sender, by send-call order. An inline run computes workers in
// ascending order and each worker's vertices in ascending order, so its
// send order is that delivery order.

#ifndef PREDICT_BSP_ENGINE_H_
#define PREDICT_BSP_ENGINE_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/aggregators.h"
#include "bsp/cost_profile.h"
#include "bsp/counters.h"
#include "bsp/message_store.h"
#include "bsp/partition.h"
#include "bsp/thread_pool.h"
#include "bsp/vertex_program.h"
#include "bsp/worklist.h"
#include "common/result.h"
#include "graph/graph.h"

namespace predict::bsp {

/// How a superstep discovers the vertices it must compute and sorts
/// incoming messages. The two execution paths are bit-identical in
/// results, counters, and simulated time — they differ only in host
/// wall-clock cost:
///
///   * sparse: explicit worklists + messaged-vertex discovery/sort at the
///     barrier. O(active + messaged) per superstep; wins when a small
///     fraction of vertices is live (convergence tails).
///   * dense: flat per-vertex slots indexed by local id — no worklist, no
///     bucket discovery, no sort, no offsets build beyond one flat prefix
///     pass. O(owned + messages) per superstep; wins when (nearly) every
///     vertex is live (PageRank's steady state).
///
/// kAdaptive picks per superstep from the previous superstep's survivor
/// and message counts against kDensePathThreshold (direction-optimizing
/// BFS, generalized to the engine); the choice taken is recorded in
/// SuperstepStats::dense_path.
enum class SuperstepPath {
  kAdaptive = 0,
  kSparse = 1,
  kDense = 2,
};

inline const char* SuperstepPathName(SuperstepPath path) {
  switch (path) {
    case SuperstepPath::kAdaptive:
      return "adaptive";
    case SuperstepPath::kSparse:
      return "sparse";
    case SuperstepPath::kDense:
      return "dense";
  }
  return "unknown";
}

/// Configuration of one BSP job. Matches the paper's assumption (iii)
/// that sample runs and actual runs share the execution framework and
/// system configuration: PREDIcT passes the same EngineOptions to both.
struct EngineOptions {
  /// Simulated workers. The paper's cluster runs 29 workers + 1 master.
  uint32_t num_workers = 29;

  /// How vertices are assigned to workers. The default reproduces the
  /// seed engine's hash scheme bit for bit; the alternatives trade
  /// assignment cost for balance (bsp/partition.h).
  PartitionStrategy partition = PartitionStrategy::kHashModulo;

  /// Host threads executing the simulation. -1 = one per hardware thread,
  /// 0 = run inline on the caller.
  int num_threads = -1;

  /// Safety stop; hitting it sets HaltReason::kMaxSupersteps.
  int max_supersteps = 500;

  /// Simulated cluster memory. 0 = unlimited. When the per-superstep
  /// footprint (graph + vertex state + buffered messages) exceeds this,
  /// the run fails with ResourceExhausted — Giraph's no-spill OOM
  /// behaviour described in §5 "Memory Limits".
  uint64_t memory_budget_bytes = 0;

  /// Superstep execution-path policy (see SuperstepPath). kAdaptive
  /// switches per superstep; kSparse/kDense pin one path (used by the
  /// equivalence gates and the micro benches).
  SuperstepPath superstep_path = SuperstepPath::kAdaptive;

  CostProfile cost_profile;
};

/// kAdaptive goes dense for superstep S+1 when superstep S's survivors +
/// messages reach this fraction of |V|. Tuned by bench/micro_substrate.cc
/// (BM_DenseSuperstep vs BM_SparseActivation); the choice never affects
/// results, only host wall clock.
inline constexpr double kDensePathThreshold = 0.6;

/// The options no run can start with: no workers, or no superstep
/// budget. The engine checks them before every run; PredictionService
/// checks a request's deployment before sampling, so an invalid one
/// fails the request instead of degrading it.
inline Status ValidateEngineOptions(const EngineOptions& options) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers == 0");
  }
  if (options.max_supersteps <= 0) {
    return Status::InvalidArgument("max_supersteps must be positive");
  }
  return Status::OK();
}

/// Bytes of bookkeeping the memory model charges per buffered message
/// (destination id, envelope, allocator slack).
inline constexpr uint64_t kMessageEnvelopeBytes = 16;

namespace internal {

/// All mutable state of a run; VertexContext methods are defined against
/// this so the hot path needs no virtual dispatch except the program's
/// own hooks.
template <typename V, typename M>
class EngineState {
 public:
  EngineState(const Graph& graph, VertexProgram<V, M>* program,
              const EngineOptions& options, ThreadPool* pool)
      : graph_(&graph),
        program_(program),
        options_(options),
        pool_(pool),
        num_workers_(options.num_workers) {}

  /// `Program` is the concrete program type when the caller has one —
  /// marking the class `final` lets the compiler devirtualize and inline
  /// Compute into the superstep loop (all in-tree algorithms do), and a
  /// Combine() it declares selects the folded inboxes. Calling through
  /// the VertexProgram<V, M> base keeps virtual dispatch and delivers
  /// every message; results are identical either way.
  template <typename Program>
  Result<RunStats> Run(Program* program);

  std::vector<V>& values() { return values_; }

 private:
  friend class VertexContext<V, M>;

  template <typename Program>
  void ComputeWorker(WorkerId w, Program* program);
  template <typename Program>
  void ComputeWorkerDense(WorkerId w, Program* program);
  bool NextSuperstepDense(uint64_t survivors, uint64_t messages) const;

  using CombineFn = void (*)(const VertexProgram<V, M>*, M&, const M&);

  /// Program::Combine behind a plain function pointer, for the send path:
  /// VertexContext does not know the concrete program type.
  template <typename Program>
  static void CombineAs(const VertexProgram<V, M>* program, M& into,
                        const M& message) {
    static_cast<const Program*>(program)->Combine(into, message);
  }

  /// Folds a message into its target's next inbox as it is sent (the
  /// inline combining path; see Run).
  template <typename P>
  void FoldOnSend(WorkerId dest, uint32_t target_local, P&& payload) {
    const CombineFn combine = combine_;
    const VertexProgram<V, M>* const program = program_;
    messages_.FoldOnSend(dest, target_local, std::forward<P>(payload),
                         [=](M& into, const M& message) {
                           combine(program, into, message);
                         });
  }

  /// The scatter loop of SendMessageToAllNeighbors: calls
  /// sink(dest worker, target local index) for every out-neighbor of
  /// `id` in adjacency order, and returns how many of them `self` owns.
  /// `sink` is taken by value, and should capture by value what it
  /// reads per message, so the loop keeps it in registers.
  template <typename Sink>
  uint64_t ScatterToNeighbors(WorkerId self, VertexId id, Sink sink) const;

  const Graph* graph_;
  VertexProgram<V, M>* program_;
  EngineOptions options_;
  ThreadPool* pool_;
  uint32_t num_workers_;

  int superstep_ = 0;
  PartitionMap partition_;
  std::vector<V> values_;
  std::vector<uint8_t> active_;
  MessageStore<M> messages_;
  std::vector<WorkerWorklist> worklists_;  // [worker]
  /// Set by Run when sends fold straight into the next inboxes: the pool
  /// runs inline and the concrete program declares Combine.
  CombineFn combine_ = nullptr;
  std::vector<WorkerCounters> counters_;
  /// Simulated vertex-state bytes per worker, maintained incrementally:
  /// updated only for vertices whose value was written this superstep
  /// (VertexContext::value() marks the write) instead of re-walking all
  /// owned vertices at every barrier.
  std::vector<uint64_t> state_bytes_;
  /// Cached FixedVertexStateBytes() of the program; non-zero short-
  /// circuits the dirty tracking in VertexContext::value().
  uint64_t fixed_state_bytes_ = 0;
  /// Survivor counts of the last dense-path compute phase (the dense
  /// path maintains no survivor lists; see worklist.h RebuildFromFlags).
  std::vector<uint64_t> dense_survivors_;
  /// Per-worker work of the current barrier, summed into SuperstepStats.
  std::vector<BarrierWork> barrier_work_;
  /// Per-worker adjacency decode buffers backing VertexContext::
  /// out_neighbors() on compressed graphs (plain graphs bypass them).
  std::vector<std::vector<VertexId>> out_scratch_;

  std::vector<AggregatorOp> agg_ops_;
  std::vector<std::string> agg_names_;
  std::vector<std::vector<double>> agg_partial_;  // [worker][aggregator]
  std::vector<double> agg_prev_;
  std::vector<double> agg_reduced_;
};

template <typename V, typename M>
template <typename Program>
void EngineState<V, M>::ComputeWorker(WorkerId w, Program* program) {
  WorkerCounters& counters = counters_[w];
  WorkerWorklist& worklist = worklists_[w];
  worklist.BeginSuperstep();
  // Worklist membership == active or messaged, so every entry computes.
  counters.active_vertices += worklist.current().size();
  for (const VertexId vid : worklist.current()) {
    // Receipt of a message reactivates (Pregel rule). Write-avoid: in
    // steady state most computed vertices are already active, and the
    // skipped store keeps their cache lines clean.
    if (active_[vid] == 0) active_[vid] = 1;
    VertexContext<V, M> ctx(this, w, vid);
    program->Compute(&ctx, messages_.MessagesFor(w, vid));
    if (ctx.value_dirty_) {
      // ctx captured the pre-write size at the program's first mutable
      // value() access; unsigned wrap-around keeps negative deltas exact.
      state_bytes_[w] +=
          program->VertexStateBytes(values_[vid]) - ctx.pre_state_bytes_;
    }
    if (active_[vid]) worklist.AddSurvivor(vid);
  }
}

// Dense-path compute: no worklist — every owned vertex is visited in
// ascending order (one running local index, no partition lookups) and
// computes iff it is active or has an inbox. That predicate selects
// exactly the sparse worklist's membership (survivors ∪ messaged: a
// vertex outside its worklist always has active_[v] == 0, and a stamped
// non-empty slab entry == membership in `messaged`), in the same
// ascending order, so Compute sees identical (vertex, inbox) sequences
// and every counter, aggregate, and value write is bit-identical to the
// sparse path.
template <typename V, typename M>
template <typename Program>
void EngineState<V, M>::ComputeWorkerDense(WorkerId w, Program* program) {
  WorkerCounters& counters = counters_[w];
  uint64_t computed = 0;
  uint64_t survivors = 0;
  uint32_t local = 0;
  partition_.ForEachOwned(w, [&](VertexId vid) {
    const uint32_t l = local++;
    const std::span<const M> inbox = messages_.MessagesForLocal(w, l);
    if (active_[vid] == 0) {
      if (inbox.empty()) return;
      active_[vid] = 1;  // receipt of a message reactivates (Pregel rule)
    }
    ++computed;
    VertexContext<V, M> ctx(this, w, vid);
    program->Compute(&ctx, inbox);
    if (ctx.value_dirty_) {
      state_bytes_[w] +=
          program->VertexStateBytes(values_[vid]) - ctx.pre_state_bytes_;
    }
    survivors += active_[vid];
  });
  counters.active_vertices += computed;
  dense_survivors_[w] = survivors;
}

template <typename V, typename M>
bool EngineState<V, M>::NextSuperstepDense(uint64_t survivors,
                                           uint64_t messages) const {
  switch (options_.superstep_path) {
    case SuperstepPath::kSparse:
      return false;
    case SuperstepPath::kDense:
      return true;
    case SuperstepPath::kAdaptive:
      break;
  }
  // survivors + messages upper-bounds the next worklist size (messages
  // may repeat a target or hit a survivor, both of which only overshoot
  // towards dense — which is the cheap mistake: the dense path degrades
  // to O(owned) while the sparse path degrades to a full sort).
  return static_cast<double>(survivors) + static_cast<double>(messages) >=
         kDensePathThreshold * static_cast<double>(graph_->num_vertices());
}

template <typename V, typename M>
template <typename Sink>
uint64_t EngineState<V, M>::ScatterToNeighbors(WorkerId self, VertexId id,
                                               Sink sink) const {
  uint64_t local = 0;
  // ForEachOutNeighbor is the block-wise decode path on compressed
  // graphs and a plain span walk otherwise — the scatter loop never
  // materializes the adjacency list.
  if (partition_.is_modulo()) {
    // Hash fast path: ownership is two multiplies per edge — the mode
    // check is hoisted out of the loop so the seed scheme keeps its
    // table-free inner loop.
    const FastDiv divider = partition_.divider();  // by value
    graph_->ForEachOutNeighbor(id, [&](VertexId target) {
      const uint32_t target_local = divider.Div(target);
      const WorkerId dest_worker = target - target_local * divider.divisor();
      local += (dest_worker == self);
      sink(dest_worker, target_local);
    });
  } else {
    graph_->ForEachOutNeighbor(id, [&](VertexId target) {
      const PartitionMap::Location loc = partition_.Locate(target);
      local += (loc.worker == self);
      sink(loc.worker, loc.local);
    });
  }
  return local;
}

template <typename V, typename M>
template <typename Program>
Result<RunStats> EngineState<V, M>::Run(Program* program) {
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t n = graph_->num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  PREDICT_RETURN_NOT_OK(ValidateEngineOptions(options_));

  // Partition the vertex space ("the read phase assigns partitions").
  partition_ = PartitionMap::Build(options_.partition, num_workers_, *graph_);

  // A program whose concrete type declares Combine() gets folded inboxes:
  // one slot per messaged vertex, the left fold of its messages in
  // delivery order. Resolved at compile time; calling through the
  // VertexProgram<V, M> base finds no Combine and places every message.
  // An inline pool runs workers 0..W-1 in turn, each computing its
  // vertices in ascending order, so send order already is delivery order
  // and each message is folded as it is sent. A pooled run computes
  // workers concurrently, so it stages in outboxes and its barrier folds
  // them.
  constexpr bool kCombines = requires(const Program& p, M& into, const M& m) {
    p.Combine(into, m);
  };
  if constexpr (kCombines) {
    if (pool_->num_threads() == 0) combine_ = &CombineAs<Program>;
  }

  RunStats stats;
  stats.worker_outbound_edges = partition_.OutboundEdges(*graph_);
  stats.static_critical_worker = ArgMaxWorker(stats.worker_outbound_edges);
  stats.setup_seconds = options_.cost_profile.setup_seconds;
  stats.read_seconds =
      options_.cost_profile.ReadSeconds(graph_->MemoryFootprintBytes());

  // Aggregators.
  AggregatorRegistry registry;
  program_->RegisterAggregators(&registry);
  for (const AggregatorDef& def : registry.defs()) {
    agg_ops_.push_back(def.op);
    agg_names_.push_back(def.name);
  }
  agg_prev_.resize(agg_ops_.size());
  agg_reduced_.resize(agg_ops_.size());
  for (size_t i = 0; i < agg_ops_.size(); ++i) {
    agg_prev_[i] = AggregatorIdentity(agg_ops_[i]);
  }

  // State initialization ("setup" + "read" phases of §2.2). Superstep 0
  // computes every vertex, so each worklist seeds with all owned
  // vertices; the state-bytes accumulators start from the initial values.
  values_.resize(n);
  active_.assign(n, 1);
  messages_.Init(&partition_, kCombines, combine_ != nullptr);
  worklists_.clear();
  worklists_.resize(num_workers_);
  state_bytes_.assign(num_workers_, 0);
  dense_survivors_.assign(num_workers_, 0);
  barrier_work_.assign(num_workers_, BarrierWork{});
  out_scratch_.assign(num_workers_, {});
  counters_.assign(num_workers_, WorkerCounters{});
  agg_partial_.assign(num_workers_, {});
  fixed_state_bytes_ = program->FixedVertexStateBytes();
  pool_->ParallelFor(num_workers_, [&](uint64_t w) {
    worklists_[w].SeedAllOwned(static_cast<WorkerId>(w), partition_);
    uint64_t bytes = 0;
    partition_.ForEachOwned(static_cast<WorkerId>(w), [&](VertexId v) {
      values_[v] = program->InitialValue(v, *graph_);
      bytes += fixed_state_bytes_ != 0 ? fixed_state_bytes_
                                       : program->VertexStateBytes(values_[v]);
    });
    state_bytes_[w] = bytes;
  });

  const uint64_t graph_bytes = graph_->MemoryFootprintBytes();
  HaltReason halt_reason = HaltReason::kMaxSupersteps;

  // Everything is active at superstep 0, so kAdaptive starts dense (the
  // decision rule sees survivors = |V|, messages = 0).
  bool dense_now = NextSuperstepDense(n, 0);

  for (superstep_ = 0; superstep_ < options_.max_supersteps; ++superstep_) {
    const auto superstep_start = std::chrono::steady_clock::now();
    // Reset per-superstep accounting.
    for (WorkerId w = 0; w < num_workers_; ++w) {
      counters_[w] = WorkerCounters{};
      counters_[w].total_vertices = partition_.NumOwned(w);
      agg_partial_[w].assign(agg_ops_.size(), 0.0);
      for (size_t i = 0; i < agg_ops_.size(); ++i) {
        agg_partial_[w][i] = AggregatorIdentity(agg_ops_[i]);
      }
    }

    // Compute phase (concurrent across workers).
    pool_->ParallelFor(num_workers_, [&](uint64_t w) {
      if (dense_now) {
        ComputeWorkerDense(static_cast<WorkerId>(w), program);
      } else {
        ComputeWorker(static_cast<WorkerId>(w), program);
      }
    });

    // Reduce aggregators deterministically in worker order.
    for (size_t i = 0; i < agg_ops_.size(); ++i) {
      double value = AggregatorIdentity(agg_ops_[i]);
      for (WorkerId w = 0; w < num_workers_; ++w) {
        value = AggregatorReduce(agg_ops_[i], value, agg_partial_[w][i]);
      }
      agg_reduced_[i] = value;
    }

    // Post-compute census: survivors (the dense path tallies them per
    // worker; the sparse path keeps explicit lists) and messages sent,
    // which drive both the halting checks and the next path decision.
    uint64_t active_count = 0;
    if (dense_now) {
      for (const uint64_t s : dense_survivors_) active_count += s;
    } else {
      for (const WorkerWorklist& worklist : worklists_) {
        active_count += worklist.num_survivors();
      }
    }
    uint64_t messages_sent = 0;
    for (const WorkerCounters& c : counters_) {
      messages_sent += c.total_messages();
    }
    const bool next_dense = NextSuperstepDense(active_count, messages_sent);

    // Messaging phase: build each worker's incoming slab, shaped for
    // whichever path the NEXT superstep runs. A placed build sorts the
    // outboxes into the slab. A folded one swaps in the slab the sends
    // folded into (inline), or drains the outboxes through the same fold
    // (pooled). The dense shape skips ordering the messaged vertices and
    // the worklist entirely; the sparse shape orders them and rebuilds
    // the worklist (from survivor lists, or from the active flags when
    // this superstep ran dense). Each worker tallies that work in
    // barrier_work_.
    pool_->ParallelFor(num_workers_, [&](uint64_t w64) {
      const WorkerId w = static_cast<WorkerId>(w64);
      BarrierWork& work = barrier_work_[w];
      work = BarrierWork{};
      WorkerWorklist& worklist = worklists_[w];
      std::vector<VertexId>* const messaged =
          next_dense ? nullptr : worklist.messaged();
      if constexpr (kCombines) {
        if (combine_ != nullptr) {
          messages_.SwapInFolded(w, messaged, &work);
        } else {
          messages_.FoldStaged(w, messaged, &work,
                               [&](M& into, const M& message) {
                                 program->Combine(into, message);
                               });
        }
      } else {
        messages_.PlaceStaged(w, messaged, &work);
      }
      if (next_dense) return;
      if (dense_now) {
        worklist.RebuildFromFlags(w, partition_, active_.data());
        work.slots_swept += partition_.NumOwned(w);
      } else {
        worklist.Rebuild();
      }
      work.worklist_entries += worklist.current().size();
    });

    // Superstep accounting.
    SuperstepStats step;
    step.superstep = superstep_;
    step.per_worker = counters_;
    step.dense_path = dense_now;
    for (const BarrierWork& work : barrier_work_) step.barrier_work += work;
    step.host_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - superstep_start)
                            .count();
    step.simulated_seconds = options_.cost_profile.SuperstepSeconds(
        counters_, superstep_, &step.critical_worker);
    for (size_t i = 0; i < agg_names_.size(); ++i) {
      step.aggregates[agg_names_[i]] = agg_reduced_[i];
    }

    // Memory model: graph + vertex state + messages buffered for the next
    // superstep (payload + envelope).
    uint64_t state_bytes = 0;
    for (const uint64_t b : state_bytes_) state_bytes += b;
    const WorkerCounters totals = step.Totals();
    const uint64_t message_bytes =
        totals.total_message_bytes() +
        totals.total_messages() * kMessageEnvelopeBytes;
    step.memory_bytes = graph_bytes + state_bytes + message_bytes;
    stats.peak_memory_bytes = std::max(stats.peak_memory_bytes, step.memory_bytes);

    stats.superstep_phase_seconds += step.simulated_seconds;
    stats.supersteps.push_back(std::move(step));

    if (options_.memory_budget_bytes != 0 &&
        stats.peak_memory_bytes > options_.memory_budget_bytes) {
      return Status::ResourceExhausted(
          "superstep " + std::to_string(superstep_) + ": simulated memory " +
          std::to_string(stats.peak_memory_bytes) + " bytes exceeds budget " +
          std::to_string(options_.memory_budget_bytes) +
          " bytes (Giraph cannot spill messages to disk)");
    }

    // Master compute + halting checks. A vertex is active after the
    // superstep iff it computed and did not vote to halt — the census
    // taken right after the compute phase above.
    MasterContext master(superstep_, n, agg_reduced_, active_count,
                         messages_sent);
    program_->MasterCompute(&master);
    if (master.halt_requested()) {
      halt_reason = HaltReason::kMasterHalt;
      break;
    }
    if (active_count == 0 && messages_sent == 0) {
      halt_reason = HaltReason::kConverged;
      break;
    }

    agg_prev_ = agg_reduced_;
    dense_now = next_dense;
  }

  stats.halt_reason = halt_reason;

  // Write phase: the output graph (vertex states) goes back to HDFS.
  // The incremental accumulators already hold the exact per-worker
  // sums, so no O(|V|) VertexStateBytes walk is needed.
  uint64_t out_bytes = 0;
  for (const uint64_t b : state_bytes_) out_bytes += b;
  stats.write_seconds = options_.cost_profile.WriteSeconds(out_bytes);
  stats.total_seconds = stats.setup_seconds + stats.read_seconds +
                        stats.superstep_phase_seconds + stats.write_seconds;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return stats;
}

}  // namespace internal

/// \brief Runs a VertexProgram over a Graph and returns the run profile.
///
/// The engine owns the final vertex values after Run(); fetch them with
/// vertex_values(). A fresh Engine should be used per run.
template <typename V, typename M>
class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(std::move(options)) {
    int threads = options_.num_threads;
    if (threads < 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads < 1) threads = 1;
      threads -= 1;  // the ParallelFor caller participates
    }
    pool_ = std::make_unique<ThreadPool>(static_cast<uint32_t>(threads));
  }

  /// Executes the program to completion (or OOM / max supersteps).
  /// Deduces the concrete program type: in-tree programs are `final`, so
  /// the compiler devirtualizes and inlines Compute into the superstep
  /// loop, and a program that declares Combine() gets one inbox slot per
  /// messaged vertex. Passing a VertexProgram<V, M>* keeps virtual
  /// dispatch and uncombined inboxes with identical results.
  template <typename Program>
    requires std::is_base_of_v<VertexProgram<V, M>, Program>
  Result<RunStats> Run(const Graph& graph, Program* program) {
    if (program == nullptr) return Status::InvalidArgument("null program");
    internal::EngineState<V, M> state(graph, program, options_, pool_.get());
    auto result = state.Run(program);
    values_ = std::move(state.values());
    return result;
  }

  /// Base-pointer overload (also catches a literal nullptr, which cannot
  /// deduce the template): virtual dispatch and every message delivered
  /// (the general path, and the combiner's reference), identical results.
  Result<RunStats> Run(const Graph& graph, VertexProgram<V, M>* program) {
    return Run<VertexProgram<V, M>>(graph, program);
  }

  /// Final vertex values of the last Run (empty before any run).
  const std::vector<V>& vertex_values() const { return values_; }
  std::vector<V>& mutable_vertex_values() { return values_; }

  const EngineOptions& options() const { return options_; }

 private:
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<V> values_;
};

// ---------------------------------------------------------------------------
// VertexContext member definitions (need EngineState).

template <typename V, typename M>
inline int VertexContext<V, M>::superstep() const {
  return engine_->superstep_;
}

template <typename V, typename M>
inline uint64_t VertexContext<V, M>::num_vertices() const {
  return engine_->graph_->num_vertices();
}

template <typename V, typename M>
inline V& VertexContext<V, M>::value() {
  // Conservatively marks the state as written so the engine refreshes
  // this vertex's contribution to the simulated memory model; the size
  // before the first (potential) write is captured here, which keeps
  // vertices that never take a mutable reference entirely free of
  // VertexStateBytes calls. Fixed-size programs skip the tracking
  // altogether — their state contribution never changes.
  if (engine_->fixed_state_bytes_ == 0 && !value_dirty_) {
    value_dirty_ = true;
    pre_state_bytes_ = engine_->program_->VertexStateBytes(engine_->values_[id_]);
  }
  return engine_->values_[id_];
}

template <typename V, typename M>
inline const V& VertexContext<V, M>::value() const {
  return engine_->values_[id_];
}

template <typename V, typename M>
inline std::span<const VertexId> VertexContext<V, M>::out_neighbors() const {
  // Plain graphs return the CSR span directly; compressed graphs decode
  // into the worker's scratch buffer (single-writer — each worker's
  // compute phase runs on one thread), so the span is valid until the
  // next out_neighbors() call on this worker. Programs consume it within
  // one Compute invocation, which satisfies that.
  return engine_->graph_->OutNeighborsInto(id_,
                                           &engine_->out_scratch_[worker_]);
}

template <typename V, typename M>
inline std::span<const float> VertexContext<V, M>::out_weights() const {
  return engine_->graph_->out_weights(id_);
}

template <typename V, typename M>
inline uint64_t VertexContext<V, M>::out_degree() const {
  return engine_->graph_->out_degree(id_);
}

template <typename V, typename M>
inline bool VertexContext<V, M>::graph_is_weighted() const {
  return engine_->graph_->is_weighted();
}

template <typename V, typename M>
inline void VertexContext<V, M>::SendMessage(VertexId target, M message) {
  auto* engine = engine_;
  const PartitionMap::Location loc = engine->partition_.Locate(target);
  const uint64_t bytes = engine->program_->MessageBytes(message);
  WorkerCounters& counters = engine->counters_[worker_];
  if (loc.worker == worker_) {
    counters.local_messages++;
    counters.local_message_bytes += bytes;
  } else {
    counters.remote_messages++;
    counters.remote_message_bytes += bytes;
  }
  if (engine->combine_ != nullptr) {
    engine->FoldOnSend(loc.worker, loc.local, std::move(message));
  } else {
    engine->messages_.Append(worker_, loc.worker, loc.local,
                             std::move(message));
  }
}

template <typename V, typename M>
inline void VertexContext<V, M>::SendMessageToAllNeighbors(const M& message) {
  // Identical copies share one MessageBytes sizing (the oracle is a pure
  // function of the message value), saving a virtual call per edge in
  // broadcast-style programs.
  auto* engine = engine_;
  const uint64_t bytes = engine->program_->MessageBytes(message);
  uint64_t local = 0;
  if (engine->combine_ != nullptr) {
    local = engine->ScatterToNeighbors(
        worker_, id_, [engine, &message](WorkerId dest, uint32_t local_id) {
          engine->FoldOnSend(dest, local_id, message);
        });
  } else {
    auto* const row = engine->messages_.SenderRow(worker_);
    local = engine->ScatterToNeighbors(
        worker_, id_, [row, &message](WorkerId dest, uint32_t local_id) {
          row[dest].PushBack(local_id, M(message));
        });
  }
  const uint64_t remote = engine->graph_->out_degree(id_) - local;
  WorkerCounters& counters = engine->counters_[worker_];
  counters.local_messages += local;
  counters.local_message_bytes += local * bytes;
  counters.remote_messages += remote;
  counters.remote_message_bytes += remote * bytes;
}

template <typename V, typename M>
inline void VertexContext<V, M>::VoteToHalt() {
  engine_->active_[id_] = 0;
}

template <typename V, typename M>
inline void VertexContext<V, M>::Aggregate(AggregatorId id, double value) {
  double& slot = engine_->agg_partial_[worker_][id];
  slot = AggregatorReduce(engine_->agg_ops_[id], slot, value);
}

template <typename V, typename M>
inline double VertexContext<V, M>::GetAggregate(AggregatorId id) const {
  return engine_->agg_prev_[id];
}

}  // namespace predict::bsp

#endif  // PREDICT_BSP_ENGINE_H_
