// The vertex-centric programming API (Pregel/Giraph model, §2.2).
//
// An algorithm is a VertexProgram<V, M>: V is the per-vertex state, M the
// message type. Each superstep the engine calls Compute() for every
// vertex that is active or has incoming messages; a vertex can send
// messages (delivered next superstep), contribute to aggregators, and
// vote to halt. A MasterCompute() hook runs after each superstep and may
// halt the whole computation — this is where the paper's global
// convergence conditions live.

#ifndef PREDICT_BSP_VERTEX_PROGRAM_H_
#define PREDICT_BSP_VERTEX_PROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/aggregators.h"
#include "bsp/counters.h"
#include "graph/graph.h"

namespace predict::bsp {

namespace internal {
template <typename V, typename M>
class EngineState;  // defined in engine.h
}  // namespace internal

/// Per-vertex view handed to VertexProgram::Compute.
template <typename V, typename M>
class VertexContext {
 public:
  VertexId id() const { return id_; }
  /// The simulated worker computing this vertex. A worker's vertices
  /// compute on one host thread at a time, so a program may keep scratch
  /// per worker, sized to EngineOptions::num_workers, and index it by
  /// this without locking.
  WorkerId worker() const { return worker_; }
  int superstep() const;
  uint64_t num_vertices() const;

  /// Mutable per-vertex state.
  V& value();
  const V& value() const;

  std::span<const VertexId> out_neighbors() const;
  std::span<const float> out_weights() const;
  uint64_t out_degree() const;
  bool graph_is_weighted() const;

  /// Queues a message for delivery at the next superstep.
  void SendMessage(VertexId target, M message);

  /// Sends a copy of `message` to every out-neighbor.
  void SendMessageToAllNeighbors(const M& message);

  /// Deactivates this vertex; a future incoming message reactivates it.
  void VoteToHalt();

  /// Contributes to aggregator `id` (visible from the next superstep).
  void Aggregate(AggregatorId id, double value);

  /// Reduced aggregator value from the previous superstep.
  double GetAggregate(AggregatorId id) const;

 private:
  template <typename, typename>
  friend class internal::EngineState;
  VertexContext(internal::EngineState<V, M>* engine, WorkerId worker,
                VertexId id)
      : engine_(engine), worker_(worker), id_(id) {}

  internal::EngineState<V, M>* engine_;
  WorkerId worker_;
  VertexId id_;
  /// Set when the program takes a mutable reference to the vertex state;
  /// tells the engine to refresh this vertex's simulated state bytes.
  /// The size before the first mutable access is captured alongside so
  /// the engine can charge the delta.
  bool value_dirty_ = false;
  uint64_t pre_state_bytes_ = 0;
};

/// Master view handed to VertexProgram::MasterCompute after superstep S.
class MasterContext {
 public:
  MasterContext(int superstep, uint64_t num_vertices,
                const std::vector<double>& aggregates, uint64_t active,
                uint64_t messages_in_flight)
      : superstep_(superstep),
        num_vertices_(num_vertices),
        aggregates_(aggregates),
        active_vertices_(active),
        messages_in_flight_(messages_in_flight) {}

  /// The superstep that just completed (0-based).
  int superstep() const { return superstep_; }
  uint64_t num_vertices() const { return num_vertices_; }

  /// Aggregator value reduced during the superstep that just completed.
  double GetAggregate(AggregatorId id) const { return aggregates_[id]; }

  /// Vertices still active after the superstep.
  uint64_t active_vertices() const { return active_vertices_; }

  /// Messages queued for delivery in the next superstep.
  uint64_t messages_in_flight() const { return messages_in_flight_; }

  /// Stops the computation: no further superstep is executed.
  void HaltComputation() { halt_ = true; }
  bool halt_requested() const { return halt_; }

 private:
  int superstep_;
  uint64_t num_vertices_;
  const std::vector<double>& aggregates_;
  uint64_t active_vertices_;
  uint64_t messages_in_flight_;
  bool halt_ = false;
};

/// \brief Base class for all BSP algorithms.
///
/// Thread-safety contract: Compute() may be called concurrently for
/// different vertices; it must only touch its own context. The
/// MessageBytes / VertexStateBytes hooks are the engine's serialized-size
/// oracle for the messaging-cost and memory models (Table 1 byte
/// counters).
///
/// Message combiner (optional, Pregel's combiner / Giraph's
/// MessageCombiner). A program's concrete type may declare
///
///   void Combine(M& into, const M& message) const;
///
/// and Engine::Run, given a pointer to that type, then folds each
/// vertex's inbox into one message: the first message delivered, then
/// Combine(into, next) for every later one in delivery order (sender
/// worker ascending, then send order). Compute sees a one-element inbox.
/// An inline run (no pool threads) sends in delivery order, so it folds
/// each message into its target's inbox when it is sent; a pooled run
/// folds the staged messages at the barrier. The contract: Compute's
/// result on the folded inbox must equal its result on the full inbox,
/// bit for bit. That holds when Compute's own fold over its inbox is
/// that same left fold (PageRank's sum, connected components' min,
/// neighborhood's OR), or when Compute depends only on which entries it
/// received and Combine keeps every entry Compute could use (top-k keeps
/// the best k of the union). Combine runs concurrently for different
/// destination workers, so it may touch only its arguments and program
/// state that no run writes (top-k reads its input ranks). Nothing
/// simulated moves: counters, message bytes, simulated time and the
/// memory model are all charged at send time. The hook is deliberately
/// not virtual — calling Run through a VertexProgram<V, M>* finds no
/// Combine and delivers every message, which is the general path and
/// the combiner's reference.
template <typename V, typename M>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Registers the program's aggregators (called once before the run).
  virtual void RegisterAggregators(AggregatorRegistry* registry) {
    (void)registry;
  }

  /// Initial per-vertex state, evaluated before superstep 0.
  virtual V InitialValue(VertexId v, const Graph& graph) const = 0;

  /// The per-vertex kernel.
  virtual void Compute(VertexContext<V, M>* ctx,
                       std::span<const M> messages) = 0;

  /// Runs on the master after each superstep; default: never halts.
  virtual void MasterCompute(MasterContext* ctx) { (void)ctx; }

  /// Serialized size of a message, in bytes (drives LocMsgSize/RemMsgSize).
  virtual uint64_t MessageBytes(const M& message) const {
    (void)message;
    return sizeof(M);
  }

  /// In-memory size of a vertex state (drives the memory model).
  virtual uint64_t VertexStateBytes(const V& value) const {
    (void)value;
    return sizeof(V);
  }

  /// Non-zero iff VertexStateBytes is the same for every possible value,
  /// in which case this returns that constant. Lets the engine charge
  /// vertex-state memory once at init and skip the per-vertex dirty
  /// tracking (two VertexStateBytes virtual calls per computed vertex)
  /// entirely — a measurable win on fixed-state kernels like PageRank.
  /// Programs whose state owns heap payloads (top-k lists, clusters)
  /// must leave this at 0.
  virtual uint64_t FixedVertexStateBytes() const { return 0; }
};

}  // namespace predict::bsp

#endif  // PREDICT_BSP_VERTEX_PROGRAM_H_
