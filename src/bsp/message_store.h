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
//    supersteps).
//
//  * Incoming slabs: at the superstep barrier each destination worker
//    gathers everything queued for it into one contiguous slab, so
//    Compute reads a vertex's inbox as a contiguous std::span with zero
//    per-vertex allocation. The slab is built one of two ways:
//
//      - Placed (any program): a stable two-pass counting sort. Pass 1
//        counts messages per target and discovers the messaged vertices;
//        a prefix sum gives each a payload range; pass 2 moves every
//        payload into its range.
//      - Combined (programs whose concrete type declares Combine(), see
//        bsp/vertex_program.h): one pass. Every owned vertex has one
//        payload slot at its local index; a target's first message
//        claims it and every later one is folded into it with Combine,
//        so the inbox Compute sees is the left fold of its messages.
//        The dense variant keeps no messaged list at all.
//
// Vertex ownership and local addressing come from a bsp::PartitionMap
// (bsp/partition.h): the store is agnostic to the strategy and only
// relies on the map's invariant that local order == ascending global
// order within a worker.
//
// Delivery order is the engine's determinism contract: per vertex,
// messages appear ordered by sender worker ascending, and within one
// sender by send-call order. Both builds walk the senders in ascending
// order and each outbox in append order, so the placed inbox lists, and
// the combined slot folds, exactly that order for any host thread count.
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

/// \brief Per-worker mailbox arenas + barrier-time CSR slabs for one run.
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
  /// and Clear() keeps both the chunks and the payload elements' own
  /// heap capacity (message types with heap payloads, e.g.
  /// semi-clustering's cluster lists, are re-assigned in place next
  /// superstep). Single-writer; readers only run at phase barriers.
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

    /// Logically empties the mailbox; chunk storage (and the payload
    /// elements' own heap capacity) is retained.
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
  /// both for the duration of one run).
  void Init(const PartitionMap* partition) {
    partition_ = partition;
    num_workers_ = partition->num_workers();
    outboxes_.clear();
    outboxes_.resize(static_cast<size_t>(num_workers_) * num_workers_);
    slabs_.clear();
    slabs_.resize(num_workers_);
    for (WorkerId w = 0; w < num_workers_; ++w) {
      slabs_[w].entries.assign(partition->NumOwned(w), SlabEntry{});
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

  /// Barrier phase for a sparse next superstep: places everything
  /// queued for `w` into w's slab, clears the consumed outboxes, and
  /// fills *messaged with the global ids of the owned vertices that
  /// received at least one message, ascending (the worklist's input).
  /// Safe to call concurrently for distinct `w`.
  void BuildIncomingSlab(WorkerId w, std::vector<VertexId>* messaged,
                         BarrierWork* work) {
    CountMessages(w, messaged);
    // Ordered before placement, so payload ranges follow the ascending
    // order the worklist computes in.
    OrderMessaged(w, messaged, work);
    PlaceCounted(w, *messaged, work);
    ToGlobalIds(w, messaged);
  }

  /// BuildIncomingSlab for a program that declares a combiner:
  /// `combiner.Combine(into, message)` folds each message into its
  /// target's one payload slot, in delivery order. Same messaged list,
  /// same concurrency contract (Combine runs concurrently for distinct
  /// `w`, so it must only touch its arguments).
  template <typename Combiner>
  void BuildIncomingSlab(WorkerId w, std::vector<VertexId>* messaged,
                         BarrierWork* work, const Combiner& combiner) {
    CombineMessages(w, messaged, work, combiner);
    OrderMessaged(w, messaged, work);
    ToGlobalIds(w, messaged);
  }

  /// Dense-superstep variant: the next superstep enumerates owned
  /// vertices itself, so no worklist handoff is needed, and that makes
  /// the messaged-vertex ORDER unnecessary too. The slab only requires
  /// each messaged vertex to own a disjoint payload range; where the
  /// ranges sit carries no meaning. So the discovery-order list is the
  /// whole bookkeeping: O(messages + messaged) with no O(owned) pass and
  /// no sort, which is what BM_DenseSuperstep measures. Safe to call
  /// concurrently for distinct `w`.
  void BuildIncomingSlabDense(WorkerId w, BarrierWork* work) {
    std::vector<VertexId>& touched = slabs_[w].touched;
    CountMessages(w, &touched);
    PlaceCounted(w, touched, work);
  }

  /// BuildIncomingSlabDense for a program that declares a combiner.
  template <typename Combiner>
  void BuildIncomingSlabDense(WorkerId w, BarrierWork* work,
                              const Combiner& combiner) {
    CombineMessages(w, nullptr, work, combiner);
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
  /// at superstep S reads the slab built at the end of superstep S-1;
  /// the phases are separated by a ParallelFor barrier, so a single
  /// buffer per worker suffices and is rebuilt in place.
  struct Slab {
    /// Placed: every message, grouped by target. Combined: one folded
    /// message per owned vertex, at its local index.
    std::vector<M> payload;
    std::vector<SlabEntry> entries;
    /// Placed dense build's scratch: first-touched locals in discovery
    /// order (capacity retained across supersteps).
    std::vector<VertexId> touched;
    uint32_t stamp = 0;      // incremented per slab build
  };

  Outbox& OutboxFor(WorkerId sender, WorkerId dest) {
    return outboxes_[static_cast<size_t>(sender) * num_workers_ + dest];
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
  }

  /// The combined build: one pass in delivery order. Each owned vertex
  /// has a fixed payload slot at its local index, so the next compute
  /// phase reads entries and payloads as two streams in the same order.
  /// A target's first message claims the slot and every later one is
  /// folded into it. Appends the messaged locals to *touched in
  /// discovery order unless `touched` is null (dense next superstep).
  template <typename Combiner>
  void CombineMessages(WorkerId w, std::vector<VertexId>* touched,
                       BarrierWork* work, const Combiner& combiner) {
    Slab& slab = slabs_[w];
    SlabEntry* const entries = slab.entries.data();
    const uint32_t stamp = ++slab.stamp;
    if (touched != nullptr) touched->clear();
    if (slab.payload.size() < slab.entries.size()) {
      slab.payload.resize(slab.entries.size());
    }

    M* const payload_out = slab.payload.data();
    uint64_t slots = 0;
    for (WorkerId sender = 0; sender < num_workers_; ++sender) {
      Outbox& box = OutboxFor(sender, w);
      box.ForEachMessage([&](uint32_t target_local, M& payload) {
        SlabEntry& entry = entries[target_local];
        if (entry.epoch == stamp) {
          combiner.Combine(payload_out[target_local], payload);
          return;
        }
        entry.epoch = stamp;
        entry.begin = target_local;
        entry.end = target_local + 1;
        payload_out[target_local] = std::move(payload);
        ++slots;
        if (touched != nullptr) touched->push_back(target_local);
      });
      box.Clear();
    }
    work->payload_slots += slots;
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
  std::vector<Slab> slabs_;       // [dest]
};

}  // namespace predict::bsp::internal

#endif  // PREDICT_BSP_MESSAGE_STORE_H_
