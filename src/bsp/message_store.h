// Flat message substrate for the BSP engine.
//
// The engine used to keep a std::vector<M> mailbox per vertex, which
// costs one heap allocation per messaged vertex per superstep and
// scatters the inbox of a worker across the heap. This store replaces
// that with two allocation-free-in-steady-state structures:
//
//  * Outboxes: one append-only chunked arena per (sender worker, dest
//    worker). SendMessage appends to the sender's arena with no locking
//    (each arena is written by exactly one worker) and no reallocation
//    copies (chunks are stable once allocated, and are retained across
//    supersteps). Chunks are allocated on first use, so a run that
//    stages nothing allocates none.
//
//  * Incoming slabs: each destination worker reads its inboxes from one
//    contiguous slab, so Compute sees a vertex's inbox as a contiguous
//    std::span with zero per-vertex allocation. The slab is built one of
//    two ways:
//
//      - Placed (any program): at the barrier, a stable two-pass
//        counting sort of the outboxes. Pass 1 counts messages per
//        target and discovers the messaged vertices; a prefix sum gives
//        each a payload range; pass 2 moves every payload into its range.
//      - Folded (programs whose concrete type declares Combine(), see
//        bsp/vertex_program.h): every owned vertex has one payload slot
//        at its local index; a target's first message claims it and every
//        later one is folded into it with Combine, so the inbox Compute
//        sees is the left fold of its messages. An inline run (no pool
//        threads) folds each message when it is sent, into a second
//        per-worker slab, so it stages nothing and its barrier only swaps
//        the two slabs. A pooled run computes workers concurrently, so it
//        stages in outboxes, and its barrier drains them through the same
//        fold into the slab Compute has finished reading.
//
// Vertex ownership and local addressing come from a bsp::PartitionMap
// (bsp/partition.h): the store is agnostic to the strategy and only
// relies on the map's invariant that local order == ascending global
// order within a worker.
//
// Delivery order is the engine's determinism contract: per vertex,
// messages appear ordered by sender worker ascending, and within one
// sender by send-call order. The barrier builds walk the senders in
// ascending order and each outbox in append order. An inline run sends
// in that order already: its pool runs workers 0..W-1 in turn
// (ThreadPool::ParallelFor) and each computes its vertices in ascending
// order. So the placed inbox lists, and the folded slot holds, exactly
// that order for any host thread count.
//
// The slab's per-vertex offset entries are epoch-stamped so that only
// O(messaged vertices) entries are touched per superstep: a stale entry
// from an earlier superstep simply fails the stamp check and reads as
// an empty inbox. Apart from the stamp scan that orders a mostly-
// messaged list (counted in BarrierWork::slots_swept), nothing here
// scans all owned vertices.

#ifndef PREDICT_BSP_MESSAGE_STORE_H_
#define PREDICT_BSP_MESSAGE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bsp/counters.h"
#include "bsp/partition.h"
#include "graph/graph.h"

namespace predict::bsp::internal {

/// \brief Per-worker mailbox arenas + CSR or folded inbox slabs for one
/// run.
///
/// Within a worker a vertex is addressed by its partition-map local
/// index. Offsets are 32-bit: a single worker receiving >= 2^32 messages
/// in one superstep would first exhaust the simulated memory model by
/// orders of magnitude.
template <typename M>
class MessageStore {
 public:
  /// One queued message: the target's local index on its destination
  /// worker (precomputed at send time, so the barrier-time bucket sort
  /// does no ownership lookups) plus the payload.
  struct OutMessage {
    uint32_t target_local;
    M payload;
  };

  /// One (sender, dest) mailbox: append-only storage in fixed-size
  /// chunks. Unlike std::vector, growth never moves existing elements,
  /// and Clear() keeps the chunks for the next superstep.
  /// Single-writer; readers only run at phase barriers.
  /// The hot append is a single predictable branch plus one store.
  class Outbox {
   public:
    static constexpr size_t kChunkSize = 1024;

    void PushBack(uint32_t target_local, M payload) {
      if (tail_left_ == 0) AdvanceChunk();
      *tail_++ = {target_local, std::move(payload)};
      --tail_left_;
      ++size_;
    }

    uint64_t size() const { return size_; }

    /// Logically empties the mailbox; chunk storage is retained.
    void Clear() {
      size_ = 0;
      tail_left_ = 0;
      tail_ = nullptr;
    }

    /// Invokes fn(target_local) in append order.
    template <typename Fn>
    void ForEachLocal(Fn&& fn) {
      size_t remaining = size_;
      for (size_t chunk = 0; remaining != 0; ++chunk) {
        const size_t count = std::min(remaining, kChunkSize);
        const OutMessage* const messages = chunks_[chunk].get();
        for (size_t i = 0; i < count; ++i) fn(messages[i].target_local);
        remaining -= count;
      }
    }

    /// Invokes fn(target_local, payload&) in append order; payloads are
    /// passed by mutable reference so consumers can move them out.
    template <typename Fn>
    void ForEachMessage(Fn&& fn) {
      size_t remaining = size_;
      for (size_t chunk = 0; remaining != 0; ++chunk) {
        const size_t count = std::min(remaining, kChunkSize);
        OutMessage* const messages = chunks_[chunk].get();
        for (size_t i = 0; i < count; ++i) {
          fn(messages[i].target_local, messages[i].payload);
        }
        remaining -= count;
      }
    }

   private:
    void AdvanceChunk() {
      const size_t chunk = size_ / kChunkSize;
      if (chunk == chunks_.size()) {
        chunks_.push_back(std::make_unique<OutMessage[]>(kChunkSize));
      }
      tail_ = chunks_[chunk].get();
      tail_left_ = kChunkSize;
    }

    std::vector<std::unique_ptr<OutMessage[]>> chunks_;
    size_t size_ = 0;
    size_t tail_left_ = 0;
    OutMessage* tail_ = nullptr;
  };

  /// `partition` is borrowed and must outlive the store (the engine owns
  /// both for the duration of one run). `folded`: the program declares a
  /// combiner, so each inbox is one payload slot per owned vertex.
  /// `fold_on_send`: sends fold into a second slab per worker (an inline
  /// run of such a program).
  void Init(const PartitionMap* partition, bool folded, bool fold_on_send) {
    partition_ = partition;
    num_workers_ = partition->num_workers();
    outboxes_.clear();
    outboxes_.resize(static_cast<size_t>(num_workers_) * num_workers_);
    slabs_.clear();
    slabs_.resize(num_workers_);
    next_.clear();
    next_.resize(fold_on_send ? num_workers_ : 0);
    for (WorkerId w = 0; w < num_workers_; ++w) {
      const uint32_t owned = partition->NumOwned(w);
      slabs_[w].entries.assign(owned, SlabEntry{});
      if (folded) slabs_[w].payload.resize(owned);
      if (fold_on_send) {
        next_[w].entries.assign(owned, SlabEntry{});
        next_[w].payload.resize(owned);
      }
    }
  }

  const PartitionMap& partition() const { return *partition_; }

  /// Queues a message from `sender` to the vertex with local index
  /// `target_local` on worker `dest` (the sender already split the
  /// target id into owner + local index). Called concurrently for
  /// distinct senders, never for the same one.
  void Append(WorkerId sender, WorkerId dest, uint32_t target_local,
              M payload) {
    SenderRow(sender)[dest].PushBack(target_local, std::move(payload));
  }

  /// The sender's row of destination outboxes (indexed by dest worker);
  /// lets tight send loops hoist the row lookup.
  Outbox* SenderRow(WorkerId sender) {
    return outboxes_.data() + static_cast<size_t>(sender) * num_workers_;
  }

  /// Folds `payload` into the next superstep's inbox of the vertex with
  /// local index `target_local` on worker `dest` as it is sent (an inline
  /// run; see FoldCursor). Not thread-safe.
  template <typename P, typename Combine>
  void FoldOnSend(WorkerId dest, uint32_t target_local, P&& payload,
                  const Combine& combine) {
    FoldCursor(next_[dest]).Fold(target_local, std::forward<P>(payload),
                                 combine);
  }

  /// The inline folded barrier: swaps w's folded slab in as its inbox and
  /// resets the other to take the next superstep's folds. For a sparse
  /// next superstep, *messaged receives the global ids of the owned
  /// vertices that received at least one message, ascending (the
  /// worklist's input); a dense one passes null and needs no list.
  void SwapInFolded(WorkerId w, std::vector<VertexId>* messaged,
                    BarrierWork* work) {
    std::swap(slabs_[w], next_[w]);
    Reset(next_[w]);
    FinishFolded(w, messaged, work);
  }

  /// The pooled folded barrier: the compute phase is over, so w's slab
  /// is reset and everything staged for `w` is drained into it through
  /// the same fold, senders ascending and each outbox in append order;
  /// `messaged` as for SwapInFolded. Safe to call concurrently for
  /// distinct `w` (so `combine` must only touch its arguments).
  template <typename Combine>
  void FoldStaged(WorkerId w, std::vector<VertexId>* messaged,
                  BarrierWork* work, const Combine& combine) {
    Reset(slabs_[w]);
    FoldCursor cursor(slabs_[w]);
    for (WorkerId sender = 0; sender < num_workers_; ++sender) {
      Outbox& box = OutboxFor(sender, w);
      work->messages_staged += box.size();
      box.ForEachMessage([&](uint32_t target_local, M& payload) {
        cursor.Fold(target_local, std::move(payload), combine);
      });
      box.Clear();
    }
    FinishFolded(w, messaged, work);
  }

  /// The placed barrier: places everything staged for `w` into w's slab
  /// and clears the consumed outboxes. For a sparse next superstep,
  /// *messaged receives the messaged vertices' global ids, ascending. A
  /// dense next superstep (null `messaged`) enumerates owned vertices
  /// itself, so it needs no worklist handoff and the messaged-vertex
  /// ORDER carries no meaning either: the slab only requires each
  /// messaged vertex to own a disjoint payload range. The discovery-order
  /// list is then the whole bookkeeping, O(messages + messaged) with no
  /// O(owned) pass and no sort, which is what BM_DenseSuperstep
  /// measures. Safe to call concurrently for distinct `w`.
  void PlaceStaged(WorkerId w, std::vector<VertexId>* messaged,
                   BarrierWork* work) {
    if (messaged == nullptr) {
      std::vector<VertexId>& touched = slabs_[w].touched;
      CountMessages(w, &touched);
      PlaceCounted(w, touched, work);
      return;
    }
    CountMessages(w, messaged);
    // Ordered before placement, so payload ranges follow the ascending
    // order the worklist computes in.
    OrderMessaged(w, messaged, work);
    PlaceCounted(w, *messaged, work);
    ToGlobalIds(w, messaged);
  }

  /// MessagesFor by precomputed local index — the dense compute path
  /// iterates owned vertices with a running local counter, so it skips
  /// the partition-map lookup.
  std::span<const M> MessagesForLocal(WorkerId w, uint32_t local) const {
    const Slab& slab = slabs_[w];
    const SlabEntry& entry = slab.entries[local];
    if (entry.epoch != slab.stamp) return {};
    return {slab.payload.data() + entry.begin,
            slab.payload.data() + entry.end};
  }

  /// Inbox of vertex `v` (owned by `w`) for the current superstep, as a
  /// contiguous span into the worker's slab. Empty if nothing was
  /// delivered this superstep.
  std::span<const M> MessagesFor(WorkerId w, VertexId v) const {
    const Slab& slab = slabs_[w];
    const SlabEntry& entry = slab.entries[partition_->LocalIndex(v)];
    if (entry.epoch != slab.stamp) return {};
    return {slab.payload.data() + entry.begin,
            slab.payload.data() + entry.end};
  }

 private:
  static constexpr uint32_t kNeverStamped = 0xFFFFFFFFu;

  /// Per-local-vertex slab bookkeeping, packed so one superstep's touch
  /// of a vertex hits a single cache line. Offsets are valid only when
  /// `epoch` carries the slab's current stamp; anything else reads as an
  /// empty inbox, which is what makes the barrier O(messaged) instead of
  /// O(owned vertices).
  struct SlabEntry {
    uint32_t epoch = kNeverStamped;  // last stamp that touched this entry
    uint32_t begin = 0;              // payload offsets [begin, end)
    uint32_t end = 0;
  };

  /// One worker's incoming messages, grouped by target vertex. Compute
  /// at superstep S reads the slab built at the end of superstep S-1.
  /// The barrier builds run after the compute phase's ParallelFor
  /// barrier, so one buffer per worker suffices and is rebuilt in place;
  /// folding on send writes a second one (next_) while Compute reads
  /// this. Cache-line aligned: pooled barriers write neighbouring
  /// workers' slabs from different threads.
  struct alignas(64) Slab {
    /// Placed: every message, grouped by target. Folded: one message per
    /// owned vertex, at its local index.
    std::vector<M> payload;
    std::vector<SlabEntry> entries;
    /// First-touched locals in discovery order: the placed dense build's
    /// scratch, and the folded slab's messaged list (capacity retained
    /// across supersteps).
    std::vector<VertexId> touched;
    uint32_t stamp = 0;  // incremented per slab build or reset
  };

  Outbox& OutboxFor(WorkerId sender, WorkerId dest) {
    return outboxes_[static_cast<size_t>(sender) * num_workers_ + dest];
  }

  /// The fold, shared by both folded builds. A cursor copies one slab's
  /// stamp and array pointers, so a drain loop keeps them in registers.
  /// The first message the slab takes for a vertex claims the vertex's
  /// slot (its local index) and records it as messaged; every later one
  /// goes through combine(slot, payload). Called in delivery order, the
  /// slot ends as the left fold of the vertex's messages.
  class FoldCursor {
   public:
    explicit FoldCursor(Slab& slab)
        : entries_(slab.entries.data()),
          payload_(slab.payload.data()),
          touched_(&slab.touched),
          stamp_(slab.stamp) {}

    template <typename P, typename Combine>
    void Fold(uint32_t target_local, P&& payload, const Combine& combine) {
      SlabEntry& entry = entries_[target_local];
      M& slot = payload_[target_local];
      if (entry.epoch == stamp_) {
        combine(slot, payload);
        return;
      }
      entry = {stamp_, target_local, target_local + 1};
      slot = std::forward<P>(payload);
      touched_->push_back(target_local);
    }

   private:
    SlabEntry* const entries_;
    M* const payload_;
    std::vector<VertexId>* const touched_;
    const uint32_t stamp_;
  };

  /// Empties a folded slab: every entry goes stale.
  static void Reset(Slab& slab) {
    ++slab.stamp;
    slab.touched.clear();
  }

  /// The end of both folded builds, on w's freshly folded slab.
  void FinishFolded(WorkerId w, std::vector<VertexId>* messaged,
                    BarrierWork* work) {
    Slab& slab = slabs_[w];
    work->payload_slots += slab.touched.size();
    if (messaged == nullptr) return;
    messaged->swap(slab.touched);
    OrderMessaged(w, messaged, work);
    ToGlobalIds(w, messaged);
  }

  /// Pass 1 of the placed build: per-vertex counts (accumulated in
  /// entry.begin) and first-touch discovery of the messaged locals into
  /// *touched, in discovery order. Only the locals stream is read.
  void CountMessages(WorkerId w, std::vector<VertexId>* touched) {
    Slab& slab = slabs_[w];
    SlabEntry* const entries = slab.entries.data();
    const uint32_t stamp = ++slab.stamp;
    touched->clear();
    for (WorkerId sender = 0; sender < num_workers_; ++sender) {
      OutboxFor(sender, w).ForEachLocal([&](uint32_t target_local) {
        SlabEntry& entry = entries[target_local];
        if (entry.epoch != stamp) {
          entry.epoch = stamp;
          entry.begin = 0;
          touched->push_back(target_local);
        }
        entry.begin++;
      });
    }
  }

  /// Pass 2 of the placed build: a prefix sum over the counted locals in
  /// the order given, then stable placement. Iterating senders in
  /// ascending order and each outbox in append order yields the
  /// per-vertex delivery order (sender worker asc, within-sender send
  /// order). Clears the consumed outboxes.
  void PlaceCounted(WorkerId w, const std::vector<VertexId>& touched,
                    BarrierWork* work) {
    Slab& slab = slabs_[w];
    SlabEntry* const entries = slab.entries.data();
    // `end` doubles as the fill cursor and lands on the true span end.
    uint32_t running = 0;
    for (const VertexId l : touched) {
      SlabEntry& entry = entries[l];
      const uint32_t count = entry.begin;
      entry.begin = running;
      entry.end = running;
      running += count;
    }
    if (slab.payload.size() < running) slab.payload.resize(running);

    M* const payload_out = slab.payload.data();
    for (WorkerId sender = 0; sender < num_workers_; ++sender) {
      Outbox& box = OutboxFor(sender, w);
      box.ForEachMessage([&](uint32_t target_local, M& payload) {
        payload_out[entries[target_local].end++] = std::move(payload);
      });
      box.Clear();
    }
    work->payload_slots += running;
    work->messages_staged += running;
  }

  /// Puts the discovery-order messaged locals in ascending order, which
  /// is also ascending global order (the partition map keeps owned lists
  /// ascending). When most owned vertices were messaged anyway, a linear
  /// stamp scan beats the comparison sort and is still O(messaged).
  void OrderMessaged(WorkerId w, std::vector<VertexId>* messaged,
                     BarrierWork* work) {
    const Slab& slab = slabs_[w];
    const uint32_t owned = static_cast<uint32_t>(slab.entries.size());
    if (messaged->size() >= owned / 4) {
      messaged->clear();
      for (uint32_t l = 0; l < owned; ++l) {
        if (slab.entries[l].epoch == slab.stamp) messaged->push_back(l);
      }
      work->slots_swept += owned;
    } else {
      std::sort(messaged->begin(), messaged->end());
      work->entries_sorted += messaged->size();
    }
  }

  /// Hands the worklist global vertex ids. The modulo branch keeps the
  /// hash fast path free of table loads.
  void ToGlobalIds(WorkerId w, std::vector<VertexId>* messaged) const {
    if (partition_->is_modulo()) {
      for (VertexId& v : *messaged) v = v * num_workers_ + w;
    } else {
      for (VertexId& v : *messaged) v = partition_->GlobalId(w, v);
    }
  }

  const PartitionMap* partition_ = nullptr;
  uint32_t num_workers_ = 0;
  std::vector<Outbox> outboxes_;  // [sender * W + dest]
  std::vector<Slab> slabs_;       // [dest], read by Compute
  std::vector<Slab> next_;        // [dest], folded into on send, or empty
};

}  // namespace predict::bsp::internal

#endif  // PREDICT_BSP_MESSAGE_STORE_H_
