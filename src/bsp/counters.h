// Per-worker, per-superstep execution counters.
//
// These are the "key input features" of Table 1 in the paper: PREDIcT's
// whole methodology consumes nothing from the execution engine except
// these counters (profiled per worker per iteration) and the per-
// superstep runtime. The engine's instrumented code path fills them,
// mirroring the paper's instrumentation of each BSP worker (§3.4,
// "Training Methodology").

#ifndef PREDICT_BSP_COUNTERS_H_
#define PREDICT_BSP_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace predict::bsp {

/// Worker index within a BSP job.
using WorkerId = uint32_t;

/// Counters for one worker during one superstep (Table 1 of the paper).
struct WorkerCounters {
  uint64_t active_vertices = 0;      ///< ActVert: vertices that ran Compute
  uint64_t total_vertices = 0;       ///< TotVert: vertices assigned to worker
  uint64_t local_messages = 0;       ///< LocMsg: dest on the same worker
  uint64_t remote_messages = 0;      ///< RemMsg: dest on another worker
  uint64_t local_message_bytes = 0;  ///< LocMsgSize
  uint64_t remote_message_bytes = 0; ///< RemMsgSize

  uint64_t total_messages() const { return local_messages + remote_messages; }
  uint64_t total_message_bytes() const {
    return local_message_bytes + remote_message_bytes;
  }
  /// AvgMsgSize of Table 1 (not extrapolated).
  double average_message_size() const {
    const uint64_t msgs = total_messages();
    return msgs == 0 ? 0.0
                     : static_cast<double>(total_message_bytes()) /
                           static_cast<double>(msgs);
  }

  WorkerCounters& operator+=(const WorkerCounters& other);
};

/// Host work one superstep barrier did to build the next superstep's
/// inboxes and worklists (bsp/message_store.h, bsp/worklist.h). Like
/// SuperstepStats::host_seconds this is host profiling output: it depends
/// on the superstep path and on whether the program combines its
/// messages, never on anything simulated, and stays out of every result
/// fingerprint. Unlike host_seconds it is exact on any host, so gates
/// compare these counts instead of wall-clock ratios.
struct BarrierWork {
  /// Messaged-vertex entries put in order by a comparison sort.
  uint64_t entries_sorted = 0;
  /// Owned slots visited by O(owned) passes: the stamp scan that orders
  /// a mostly-messaged list, and the worklist rebuild from active flags.
  uint64_t slots_swept = 0;
  /// Entries of the rebuilt worklists (survivors union messaged).
  uint64_t worklist_entries = 0;
  /// Inbox payload slots written: one per message, or one per messaged
  /// vertex when the program combines.
  uint64_t payload_slots = 0;
  /// Messages staged through an outbox and drained here: every message
  /// of a placed or pooled run, none of an inline combining run, which
  /// folds each message into its inbox when it is sent.
  uint64_t messages_staged = 0;

  BarrierWork& operator+=(const BarrierWork& other);
};

/// Everything recorded about one superstep of a run.
struct SuperstepStats {
  int superstep = 0;
  std::vector<WorkerCounters> per_worker;
  /// Simulated runtime of this superstep (critical-path worker + barrier).
  double simulated_seconds = 0.0;
  /// Worker with the largest simulated cost this superstep.
  WorkerId critical_worker = 0;
  /// Aggregator values reduced at the end of this superstep.
  std::map<std::string, double> aggregates;
  /// Simulated memory in use at the superstep barrier (state + buffers).
  uint64_t memory_bytes = 0;
  /// True if this superstep ran on the dense per-vertex-slot path instead
  /// of the worklist/mailbox-sort path (engine.h SuperstepPath). Purely
  /// observational: both paths produce bit-identical results and
  /// identical simulated costs; the flag exists so the cost model and
  /// `predict_cli run` can see which path executed.
  bool dense_path = false;
  /// Host wall-clock cost of this superstep (compute + barrier phases).
  /// Like RunStats::wall_seconds this is host profiling output, NOT part
  /// of the simulated-determinism contract — it varies run to run and is
  /// excluded from every result fingerprint. bench/rmat_scale_gate.cc
  /// uses it to compare per-superstep throughput of the two paths with
  /// per-superstep granularity (robust statistics over noisy hosts).
  double host_seconds = 0.0;
  /// Work of the barrier that ended this superstep, summed over workers
  /// (host profiling like host_seconds, excluded from fingerprints). That
  /// barrier shapes the inboxes for the NEXT superstep's path, so a dense
  /// superstep followed by a sparse one sorts or sweeps here.
  BarrierWork barrier_work;

  /// Sum of the per-worker counters.
  WorkerCounters Totals() const;
};

/// Why a run stopped.
enum class HaltReason {
  kConverged,      ///< all vertices halted and no messages in flight
  kMasterHalt,     ///< the algorithm's master.compute() stopped the job
  kMaxSupersteps,  ///< hit EngineOptions::max_supersteps
};

const char* HaltReasonName(HaltReason reason);

/// Full profile of one BSP run: per-superstep stats plus the phase
/// breakdown of §2.2 (setup / read / superstep / write).
struct RunStats {
  std::vector<SuperstepStats> supersteps;

  double setup_seconds = 0.0;
  double read_seconds = 0.0;
  double superstep_phase_seconds = 0.0;  ///< sum over supersteps
  double write_seconds = 0.0;
  /// setup + read + superstep phase + write.
  double total_seconds = 0.0;

  /// Host wall-clock time actually spent executing the simulation.
  double wall_seconds = 0.0;

  uint64_t peak_memory_bytes = 0;
  HaltReason halt_reason = HaltReason::kConverged;

  /// The worker that §3.4 designates as the critical path: the one with
  /// the most outbound edges under the static partitioning. Computable
  /// before the superstep phase starts ("piggybacked in the read phase").
  WorkerId static_critical_worker = 0;
  std::vector<uint64_t> worker_outbound_edges;

  int num_supersteps() const { return static_cast<int>(supersteps.size()); }
};

/// Index of the max element (first one on ties).
WorkerId ArgMaxWorker(const std::vector<uint64_t>& values);

}  // namespace predict::bsp

#endif  // PREDICT_BSP_COUNTERS_H_
