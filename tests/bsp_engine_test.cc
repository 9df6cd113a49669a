// Tests for the BSP engine: Pregel semantics (message delivery, vote to
// halt, reactivation), Table-1 counters, aggregators, the simulated cost
// clock, the memory model, and determinism across thread counts.

#include <gtest/gtest.h>

#include "bsp/engine.h"
#include "bsp/partition.h"
#include "graph/generators.h"

namespace predict {
namespace {

using bsp::AggregatorOp;
using bsp::Engine;
using bsp::EngineOptions;
using bsp::HaltReason;
using bsp::MasterContext;
using bsp::RunStats;
using bsp::VertexContext;
using bsp::WorkerCounters;

EngineOptions FastOptions(uint32_t workers = 3) {
  EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;  // inline
  options.cost_profile.noise_sigma = 0.0;
  options.cost_profile.setup_seconds = 0.0;
  options.cost_profile.read_bytes_per_second = 0.0;   // skip read phase
  options.cost_profile.write_bytes_per_second = 0.0;  // skip write phase
  return options;
}

// Forwards a counter to all neighbors for a fixed number of rounds.
class RelayProgram : public bsp::VertexProgram<int, int> {
 public:
  explicit RelayProgram(int rounds) : rounds_(rounds) {}

  int InitialValue(VertexId v, const Graph&) const override {
    return static_cast<int>(v);
  }

  void Compute(VertexContext<int, int>* ctx,
               std::span<const int> messages) override {
    for (const int m : messages) ctx->value() += m;
    if (ctx->superstep() < rounds_) {
      ctx->SendMessageToAllNeighbors(1);
    } else {
      ctx->VoteToHalt();
    }
  }

 private:
  int rounds_;
};

// Counts how many times Compute ran for each vertex.
class ComputeCountProgram : public bsp::VertexProgram<int, int> {
 public:
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
    ctx->value()++;
    ctx->VoteToHalt();
  }
};

// Vertex 0 pings vertex `target` once at superstep 0; everyone halts.
class PingProgram : public bsp::VertexProgram<int, int> {
 public:
  explicit PingProgram(VertexId target) : target_(target) {}
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx,
               std::span<const int> messages) override {
    for (const int m : messages) ctx->value() += m;
    if (ctx->superstep() == 0 && ctx->id() == 0) {
      ctx->SendMessage(target_, 41);
    }
    ctx->VoteToHalt();
  }

 private:
  VertexId target_;
};

TEST(BspEngineTest, EmptyGraphRejected) {
  GraphBuilder b(0);
  const Graph g = b.Build().MoveValue();
  Engine<int, int> engine(FastOptions());
  RelayProgram program(1);
  EXPECT_TRUE(engine.Run(g, &program).status().IsInvalidArgument());
}

TEST(BspEngineTest, NullProgramRejected) {
  const Graph g = GenerateChain(3).MoveValue();
  Engine<int, int> engine(FastOptions());
  EXPECT_TRUE(engine.Run(g, nullptr).status().IsInvalidArgument());
}

TEST(BspEngineTest, ZeroWorkersRejected) {
  const Graph g = GenerateChain(3).MoveValue();
  EngineOptions options = FastOptions(0);
  Engine<int, int> engine(options);
  RelayProgram program(1);
  EXPECT_TRUE(engine.Run(g, &program).status().IsInvalidArgument());
}

TEST(BspEngineTest, HaltsWhenAllVoteAndNoMessages) {
  const Graph g = GenerateChain(4).MoveValue();
  Engine<int, int> engine(FastOptions());
  ComputeCountProgram program;
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_supersteps(), 1);
  EXPECT_EQ(stats->halt_reason, HaltReason::kConverged);
  for (const int count : engine.vertex_values()) EXPECT_EQ(count, 1);
}

TEST(BspEngineTest, MessageDeliveredNextSuperstepAndReactivates) {
  const Graph g = GenerateChain(5).MoveValue();
  Engine<int, int> engine(FastOptions());
  PingProgram program(3);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  // Superstep 0: all compute, halt; message in flight. Superstep 1: only
  // vertex 3 is woken up by the ping.
  EXPECT_EQ(stats->num_supersteps(), 2);
  EXPECT_EQ(engine.vertex_values()[3], 41);
  EXPECT_EQ(engine.vertex_values()[2], 0);
  const WorkerCounters totals = stats->supersteps[1].Totals();
  EXPECT_EQ(totals.active_vertices, 1u);
}

TEST(BspEngineTest, RelayRunsExactlyRequestedRounds) {
  const Graph g = GenerateChain(5).MoveValue();
  Engine<int, int> engine(FastOptions());
  RelayProgram program(3);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  // Supersteps 0..2 send; superstep 3 consumes the superstep-2 messages,
  // sends nothing, and everyone votes to halt.
  EXPECT_EQ(stats->num_supersteps(), 4);
  EXPECT_EQ(stats->halt_reason, HaltReason::kConverged);
}

TEST(BspEngineTest, MaxSuperstepsCapsRun) {
  const Graph g = GenerateChain(5).MoveValue();
  EngineOptions options = FastOptions();
  options.max_supersteps = 2;
  Engine<int, int> engine(options);
  RelayProgram program(1000);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_supersteps(), 2);
  EXPECT_EQ(stats->halt_reason, HaltReason::kMaxSupersteps);
}

// --------------------------------------------------------------- counters

TEST(BspEngineTest, LocalVsRemoteMessageAttribution) {
  // 2 workers; vertex 0 and 2 live on worker 0, vertex 1 on worker 1.
  // Edges 0->2 (local: both on worker 0) and 0->1 (remote).
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(0, 1);
  const Graph g = b.Build().MoveValue();
  Engine<int, int> engine(FastOptions(2));
  RelayProgram sender(1);  // superstep 0: everyone sends once, then halts
  auto stats = engine.Run(g, &sender);
  ASSERT_TRUE(stats.ok());
  const WorkerCounters& w0 = stats->supersteps[0].per_worker[0];
  EXPECT_EQ(w0.local_messages, 1u);   // 0 -> 2
  EXPECT_EQ(w0.remote_messages, 1u);  // 0 -> 1
  EXPECT_EQ(w0.local_message_bytes, sizeof(int));
  EXPECT_EQ(w0.remote_message_bytes, sizeof(int));
}

TEST(BspEngineTest, TotalVerticesSplitAcrossWorkers) {
  const Graph g = GenerateChain(7).MoveValue();
  Engine<int, int> engine(FastOptions(3));
  ComputeCountProgram program;
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  const auto& workers = stats->supersteps[0].per_worker;
  // 7 vertices on 3 workers: 3, 2, 2.
  EXPECT_EQ(workers[0].total_vertices, 3u);
  EXPECT_EQ(workers[1].total_vertices, 2u);
  EXPECT_EQ(workers[2].total_vertices, 2u);
}

TEST(BspEngineTest, ActiveVertexCountsPerSuperstep) {
  const Graph g = GenerateChain(6).MoveValue();
  Engine<int, int> engine(FastOptions(2));
  RelayProgram program(2);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps[0].Totals().active_vertices, 6u);
  EXPECT_EQ(stats->supersteps[1].Totals().active_vertices, 6u);
}

TEST(BspEngineTest, MessageCountsMatchEdges) {
  const Graph g = GenerateComplete(6).MoveValue();  // 30 edges
  Engine<int, int> engine(FastOptions(3));
  RelayProgram program(1);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps[0].Totals().total_messages(), 30u);
}

TEST(BspEngineTest, AverageMessageSize) {
  WorkerCounters counters;
  counters.local_messages = 2;
  counters.remote_messages = 2;
  counters.local_message_bytes = 8;
  counters.remote_message_bytes = 24;
  EXPECT_DOUBLE_EQ(counters.average_message_size(), 8.0);
  WorkerCounters empty;
  EXPECT_DOUBLE_EQ(empty.average_message_size(), 0.0);
}

TEST(BspEngineTest, PerWorkerOutboundEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 0);
  b.AddEdge(2, 0);
  b.AddEdge(3, 0);
  const Graph g = b.Build().MoveValue();
  const auto edges =
      bsp::PartitionMap::HashModulo(2, g.num_vertices()).OutboundEdges(g);
  // Worker 0 owns {0, 2}: 2 + 1 = 3 outbound. Worker 1 owns {1, 3}: 2.
  EXPECT_EQ(edges[0], 3u);
  EXPECT_EQ(edges[1], 2u);
  EXPECT_EQ(bsp::ArgMaxWorker(edges), 0u);
}

TEST(BspEngineTest, StaticCriticalWorkerRecorded) {
  const Graph g = GenerateStar(10).MoveValue();  // all edges from vertex 0
  Engine<int, int> engine(FastOptions(3));
  ComputeCountProgram program;
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->static_critical_worker, 0u);  // vertex 0 -> worker 0
  EXPECT_EQ(stats->worker_outbound_edges[0], 9u);
}

// ------------------------------------------------------------- aggregators

class AggregatingProgram : public bsp::VertexProgram<int, int> {
 public:
  void RegisterAggregators(bsp::AggregatorRegistry* registry) override {
    sum_ = registry->Register("sum", AggregatorOp::kSum);
    max_ = registry->Register("max", AggregatorOp::kMax);
    min_ = registry->Register("min", AggregatorOp::kMin);
  }
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
    const double x = static_cast<double>(ctx->id());
    ctx->Aggregate(sum_, x);
    ctx->Aggregate(max_, x);
    ctx->Aggregate(min_, x);
    if (ctx->superstep() == 1) {
      // Aggregates from superstep 0 must be visible here.
      seen_sum_ = ctx->GetAggregate(sum_);
    }
    if (ctx->superstep() >= 1) ctx->VoteToHalt();
  }
  void MasterCompute(MasterContext* ctx) override {
    last_master_sum_ = ctx->GetAggregate(sum_);
    last_master_max_ = ctx->GetAggregate(max_);
    last_master_min_ = ctx->GetAggregate(min_);
  }

  bsp::AggregatorId sum_ = 0, max_ = 0, min_ = 0;
  double seen_sum_ = -1.0;
  double last_master_sum_ = -1.0;
  double last_master_max_ = -1.0;
  double last_master_min_ = -1.0;
};

TEST(BspEngineTest, AggregatorsReduceAcrossWorkers) {
  const Graph g = GenerateChain(5).MoveValue();  // ids 0..4
  Engine<int, int> engine(FastOptions(3));
  AggregatingProgram program;
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(program.last_master_sum_, 10.0);  // 0+1+2+3+4
  EXPECT_DOUBLE_EQ(program.last_master_max_, 4.0);
  EXPECT_DOUBLE_EQ(program.last_master_min_, 0.0);
  // Superstep-0 aggregate visible to vertices at superstep 1.
  EXPECT_DOUBLE_EQ(program.seen_sum_, 10.0);
}

TEST(BspEngineTest, AggregatesSnapshottedInStats) {
  const Graph g = GenerateChain(4).MoveValue();
  Engine<int, int> engine(FastOptions(2));
  AggregatingProgram program;
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->supersteps[0].aggregates.at("sum"), 6.0);
  EXPECT_DOUBLE_EQ(stats->supersteps[0].aggregates.at("max"), 3.0);
}

class HaltAtProgram : public bsp::VertexProgram<int, int> {
 public:
  explicit HaltAtProgram(int superstep) : halt_at_(superstep) {}
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
    ctx->SendMessageToAllNeighbors(1);
  }
  void MasterCompute(MasterContext* ctx) override {
    if (ctx->superstep() >= halt_at_) ctx->HaltComputation();
  }

 private:
  int halt_at_;
};

TEST(BspEngineTest, MasterHaltStopsRun) {
  const Graph g = GenerateComplete(4).MoveValue();
  Engine<int, int> engine(FastOptions(2));
  HaltAtProgram program(2);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_supersteps(), 3);  // supersteps 0, 1, 2
  EXPECT_EQ(stats->halt_reason, HaltReason::kMasterHalt);
}

// -------------------------------------------------------------- cost clock

TEST(CostProfileTest, WorkerSecondsIsLinearInCounters) {
  bsp::CostProfile profile;
  profile.per_active_vertex_seconds = 1.0;
  profile.per_local_message_seconds = 10.0;
  profile.per_remote_message_seconds = 100.0;
  profile.per_local_byte_seconds = 1000.0;
  profile.per_remote_byte_seconds = 10000.0;
  WorkerCounters counters;
  counters.active_vertices = 1;
  counters.local_messages = 2;
  counters.remote_messages = 3;
  counters.local_message_bytes = 4;
  counters.remote_message_bytes = 5;
  EXPECT_DOUBLE_EQ(profile.WorkerSeconds(counters),
                   1.0 + 20.0 + 300.0 + 4000.0 + 50000.0);
}

TEST(CostProfileTest, SuperstepTakesMaxWorkerPlusBarrier) {
  bsp::CostProfile profile;
  profile.noise_sigma = 0.0;
  profile.barrier_seconds = 5.0;
  profile.per_active_vertex_seconds = 1.0;
  WorkerCounters slow, fast;
  slow.active_vertices = 10;
  fast.active_vertices = 2;
  const std::vector<WorkerCounters> workers = {fast, slow};
  bsp::WorkerId critical = 99;
  const double seconds = profile.SuperstepSeconds(workers, 0, &critical);
  EXPECT_DOUBLE_EQ(seconds, 15.0);
  EXPECT_EQ(critical, 1u);
}

TEST(CostProfileTest, NoiseIsDeterministicAndBounded) {
  bsp::CostProfile profile;
  profile.noise_sigma = 0.05;
  const double f1 = profile.NoiseFactor(3, 7);
  EXPECT_DOUBLE_EQ(f1, profile.NoiseFactor(3, 7));
  EXPECT_NE(f1, profile.NoiseFactor(3, 8));
  for (int s = 0; s < 50; ++s) {
    for (bsp::WorkerId w = 0; w < 10; ++w) {
      const double f = profile.NoiseFactor(s, w);
      EXPECT_GT(f, 0.7);
      EXPECT_LT(f, 1.4);
    }
  }
}

TEST(CostProfileTest, ZeroSigmaMeansNoNoise) {
  bsp::CostProfile profile;
  profile.noise_sigma = 0.0;
  EXPECT_DOUBLE_EQ(profile.NoiseFactor(1, 1), 1.0);
}

TEST(CostProfileTest, ReadWritePhases) {
  bsp::CostProfile profile;
  profile.read_bytes_per_second = 100.0;
  profile.write_bytes_per_second = 50.0;
  EXPECT_DOUBLE_EQ(profile.ReadSeconds(1000), 10.0);
  EXPECT_DOUBLE_EQ(profile.WriteSeconds(1000), 20.0);
  profile.read_bytes_per_second = 0.0;
  EXPECT_DOUBLE_EQ(profile.ReadSeconds(1000), 0.0);
}

TEST(BspEngineTest, PhaseBreakdownSumsToTotal) {
  const Graph g = GenerateComplete(5).MoveValue();
  EngineOptions options = FastOptions(2);
  options.cost_profile.setup_seconds = 3.0;
  options.cost_profile.read_bytes_per_second = 1e6;
  options.cost_profile.write_bytes_per_second = 1e6;
  Engine<int, int> engine(options);
  RelayProgram program(1);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->total_seconds,
                   stats->setup_seconds + stats->read_seconds +
                       stats->superstep_phase_seconds + stats->write_seconds);
  EXPECT_DOUBLE_EQ(stats->setup_seconds, 3.0);
  EXPECT_GT(stats->read_seconds, 0.0);
}

// ------------------------------------------------------------ memory model

class BigStateProgram : public bsp::VertexProgram<int, int> {
 public:
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
    ctx->VoteToHalt();
  }
  uint64_t VertexStateBytes(const int&) const override { return 1 << 20; }
};

TEST(BspEngineTest, MemoryBudgetExceededIsResourceExhausted) {
  const Graph g = GenerateChain(100).MoveValue();  // 100 MB of state
  EngineOptions options = FastOptions(2);
  options.memory_budget_bytes = 10 << 20;
  Engine<int, int> engine(options);
  BigStateProgram program;
  EXPECT_TRUE(engine.Run(g, &program).status().IsResourceExhausted());
}

TEST(BspEngineTest, UnlimitedBudgetNeverOoms) {
  const Graph g = GenerateChain(100).MoveValue();
  EngineOptions options = FastOptions(2);
  options.memory_budget_bytes = 0;
  Engine<int, int> engine(options);
  BigStateProgram program;
  EXPECT_TRUE(engine.Run(g, &program).ok());
}

TEST(BspEngineTest, PeakMemoryIncludesMessages) {
  const Graph g = GenerateComplete(10).MoveValue();
  Engine<int, int> engine(FastOptions(2));
  RelayProgram send(1);
  auto with_messages = engine.Run(g, &send);
  ASSERT_TRUE(with_messages.ok());
  Engine<int, int> engine2(FastOptions(2));
  ComputeCountProgram silent;
  auto without_messages = engine2.Run(g, &silent);
  ASSERT_TRUE(without_messages.ok());
  EXPECT_GT(with_messages->peak_memory_bytes,
            without_messages->peak_memory_bytes);
}

// ------------------------------------------------------------- determinism

TEST(BspEngineTest, SimulatedTimeIndependentOfThreadCount) {
  const Graph g = GeneratePreferentialAttachment({3000, 5, 0.3, 11}).MoveValue();
  RunStats results[3];
  const int thread_counts[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    EngineOptions options = FastOptions(7);
    options.cost_profile.noise_sigma = 0.02;  // noise on: still deterministic
    options.num_threads = thread_counts[i];
    Engine<int, int> engine(options);
    RelayProgram program(3);
    auto stats = engine.Run(g, &program);
    ASSERT_TRUE(stats.ok());
    results[i] = std::move(stats).MoveValue();
  }
  for (int i = 1; i < 3; ++i) {
    ASSERT_EQ(results[i].num_supersteps(), results[0].num_supersteps());
    EXPECT_DOUBLE_EQ(results[i].superstep_phase_seconds,
                     results[0].superstep_phase_seconds);
    for (int s = 0; s < results[0].num_supersteps(); ++s) {
      const auto& a = results[0].supersteps[s];
      const auto& b = results[i].supersteps[s];
      EXPECT_EQ(a.Totals().total_messages(), b.Totals().total_messages());
      EXPECT_EQ(a.critical_worker, b.critical_worker);
      for (size_t w = 0; w < a.per_worker.size(); ++w) {
        EXPECT_EQ(a.per_worker[w].remote_message_bytes,
                  b.per_worker[w].remote_message_bytes);
      }
    }
  }
}

TEST(BspEngineTest, VertexValuesIndependentOfThreadCount) {
  const Graph g = GeneratePreferentialAttachment({2000, 5, 0.3, 13}).MoveValue();
  std::vector<int> baseline;
  for (const int threads : {0, 4}) {
    EngineOptions options = FastOptions(5);
    options.num_threads = threads;
    Engine<int, int> engine(options);
    RelayProgram program(2);
    ASSERT_TRUE(engine.Run(g, &program).ok());
    if (baseline.empty()) {
      baseline = engine.vertex_values();
    } else {
      EXPECT_EQ(baseline, engine.vertex_values());
    }
  }
}

TEST(BspEngineTest, HaltReasonNames) {
  EXPECT_STREQ(bsp::HaltReasonName(HaltReason::kConverged), "converged");
  EXPECT_STREQ(bsp::HaltReasonName(HaltReason::kMasterHalt), "master_halt");
  EXPECT_STREQ(bsp::HaltReasonName(HaltReason::kMaxSupersteps),
               "max_supersteps");
}

}  // namespace
}  // namespace predict
