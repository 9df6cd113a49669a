// Edge-case and failure-injection tests for the BSP engine and thread
// pool: self-messages, degenerate partitionings, aggregator identities,
// message-burst OOM, weighted-graph contexts, and noise injection.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "bsp/engine.h"
#include "bsp/thread_pool.h"
#include "graph/generators.h"

namespace predict {
namespace {

using bsp::Engine;
using bsp::EngineOptions;
using bsp::VertexContext;

EngineOptions Inline(uint32_t workers) {
  EngineOptions options;
  options.num_workers = workers;
  options.num_threads = 0;
  options.cost_profile.noise_sigma = 0.0;
  options.cost_profile.setup_seconds = 0.0;
  options.cost_profile.read_bytes_per_second = 0.0;
  options.cost_profile.write_bytes_per_second = 0.0;
  return options;
}

// Sends itself `rounds` messages (self-loop messaging is legal and local).
class SelfPingProgram : public bsp::VertexProgram<int, int> {
 public:
  explicit SelfPingProgram(int rounds) : rounds_(rounds) {}
  int InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int, int>* ctx,
               std::span<const int> messages) override {
    for (const int m : messages) ctx->value() += m;
    if (ctx->superstep() < rounds_) ctx->SendMessage(ctx->id(), 1);
    ctx->VoteToHalt();
  }

 private:
  int rounds_;
};

TEST(EngineEdgeTest, SelfMessagesAreLocalAndDelivered) {
  GraphBuilder b(1);
  const Graph g = b.Build().MoveValue();
  Engine<int, int> engine(Inline(1));
  SelfPingProgram program(3);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(engine.vertex_values()[0], 3);
  // All traffic stayed on worker 0.
  for (const auto& step : stats->supersteps) {
    EXPECT_EQ(step.per_worker[0].remote_messages, 0u);
  }
}

TEST(EngineEdgeTest, MoreWorkersThanVertices) {
  const Graph g = GenerateChain(3).MoveValue();
  Engine<int, int> engine(Inline(10));
  SelfPingProgram program(1);
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  uint64_t assigned = 0;
  for (const auto& worker : stats->supersteps[0].per_worker) {
    assigned += worker.total_vertices;
  }
  EXPECT_EQ(assigned, 3u);
}

TEST(EngineEdgeTest, SingleWorkerEverythingLocal) {
  const Graph g = GenerateComplete(6).MoveValue();
  Engine<int, int> engine(Inline(1));

  class Broadcast : public bsp::VertexProgram<int, int> {
   public:
    int InitialValue(VertexId, const Graph&) const override { return 0; }
    void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
      if (ctx->superstep() == 0) ctx->SendMessageToAllNeighbors(1);
      ctx->VoteToHalt();
    }
  } program;

  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps[0].per_worker[0].local_messages, 30u);
  EXPECT_EQ(stats->supersteps[0].per_worker[0].remote_messages, 0u);
}

TEST(EngineEdgeTest, AggregatorIdentityWhenNobodyContributes) {
  class Silent : public bsp::VertexProgram<int, int> {
   public:
    void RegisterAggregators(bsp::AggregatorRegistry* registry) override {
      sum_ = registry->Register("s", bsp::AggregatorOp::kSum);
      min_ = registry->Register("m", bsp::AggregatorOp::kMin);
      max_ = registry->Register("x", bsp::AggregatorOp::kMax);
    }
    int InitialValue(VertexId, const Graph&) const override { return 0; }
    void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
      ctx->VoteToHalt();
    }
    bsp::AggregatorId sum_ = 0, min_ = 0, max_ = 0;
  } program;

  const Graph g = GenerateChain(3).MoveValue();
  Engine<int, int> engine(Inline(2));
  auto stats = engine.Run(g, &program);
  ASSERT_TRUE(stats.ok());
  const auto& aggregates = stats->supersteps[0].aggregates;
  EXPECT_DOUBLE_EQ(aggregates.at("s"), 0.0);
  EXPECT_TRUE(std::isinf(aggregates.at("m")));
  EXPECT_GT(aggregates.at("m"), 0.0);
  EXPECT_TRUE(std::isinf(aggregates.at("x")));
  EXPECT_LT(aggregates.at("x"), 0.0);
}

TEST(EngineEdgeTest, WeightedGraphExposedToContext) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 2.5f);
  const Graph g = b.Build().MoveValue();

  class WeightReader : public bsp::VertexProgram<double, int> {
   public:
    double InitialValue(VertexId, const Graph&) const override { return 0.0; }
    void Compute(VertexContext<double, int>* ctx, std::span<const int>) override {
      if (ctx->graph_is_weighted() && ctx->out_degree() > 0) {
        ctx->value() = ctx->out_weights()[0];
      }
      ctx->VoteToHalt();
    }
  } program;

  Engine<double, int> engine(Inline(1));
  ASSERT_TRUE(engine.Run(g, &program).ok());
  EXPECT_DOUBLE_EQ(engine.vertex_values()[0], 2.5);
}

TEST(EngineEdgeTest, MessagesNotRedelivered) {
  // A message consumed at superstep 1 must not appear again at 2.
  class CountMessages : public bsp::VertexProgram<int, int> {
   public:
    int InitialValue(VertexId, const Graph&) const override { return 0; }
    void Compute(VertexContext<int, int>* ctx,
                 std::span<const int> messages) override {
      ctx->value() += static_cast<int>(messages.size());
      if (ctx->superstep() == 0 && ctx->id() == 0) {
        ctx->SendMessage(1, 9);
      }
      if (ctx->superstep() < 3) return;  // stay active a few supersteps
      ctx->VoteToHalt();
    }
  } program;

  const Graph g = GenerateChain(2).MoveValue();
  Engine<int, int> engine(Inline(1));
  ASSERT_TRUE(engine.Run(g, &program).ok());
  EXPECT_EQ(engine.vertex_values()[1], 1);  // exactly one delivery
}

TEST(EngineEdgeTest, MessageBurstTripsMemoryBudget) {
  // Vertex state is tiny; the superstep-0 all-to-all burst is what blows
  // the budget (the §5 semi-clustering-on-Twitter failure mode).
  class Broadcast : public bsp::VertexProgram<int, int> {
   public:
    int InitialValue(VertexId, const Graph&) const override { return 0; }
    void Compute(VertexContext<int, int>* ctx, std::span<const int>) override {
      if (ctx->superstep() == 0) ctx->SendMessageToAllNeighbors(1);
      ctx->VoteToHalt();
    }
    uint64_t MessageBytes(const int&) const override { return 1000; }
  } program;

  const Graph g = GenerateComplete(40).MoveValue();  // 1560 edges
  EngineOptions options = Inline(4);
  options.memory_budget_bytes = 1 << 20;  // 1 MB << 1560 * ~1KB
  Engine<int, int> engine(options);
  EXPECT_TRUE(engine.Run(g, &program).status().IsResourceExhausted());
  options.memory_budget_bytes = 16 << 20;
  Engine<int, int> engine2(options);
  EXPECT_TRUE(engine2.Run(g, &program).ok());
}

TEST(EngineEdgeTest, GetAggregateAtSuperstepZeroIsIdentity) {
  class Check : public bsp::VertexProgram<double, int> {
   public:
    void RegisterAggregators(bsp::AggregatorRegistry* registry) override {
      sum_ = registry->Register("s", bsp::AggregatorOp::kSum);
    }
    double InitialValue(VertexId, const Graph&) const override { return -1.0; }
    void Compute(VertexContext<double, int>* ctx, std::span<const int>) override {
      if (ctx->superstep() == 0) ctx->value() = ctx->GetAggregate(sum_);
      ctx->Aggregate(sum_, 1.0);
      ctx->VoteToHalt();
    }
    bsp::AggregatorId sum_ = 0;
  } program;

  const Graph g = GenerateChain(4).MoveValue();
  Engine<double, int> engine(Inline(2));
  ASSERT_TRUE(engine.Run(g, &program).ok());
  for (const double v : engine.vertex_values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EngineEdgeTest, NoiseChangesSimulatedTimeOnly) {
  const Graph g = GenerateComplete(20).MoveValue();
  bsp::RunStats with_noise, without_noise;
  for (const double sigma : {0.0, 0.2}) {
    EngineOptions options = Inline(4);
    options.cost_profile.noise_sigma = sigma;
    Engine<int, int> engine(options);
    SelfPingProgram program(2);
    auto stats = engine.Run(g, &program);
    ASSERT_TRUE(stats.ok());
    (sigma == 0.0 ? without_noise : with_noise) = std::move(stats).MoveValue();
  }
  EXPECT_NE(with_noise.superstep_phase_seconds,
            without_noise.superstep_phase_seconds);
  // Counters are unaffected by the clock's noise.
  ASSERT_EQ(with_noise.num_supersteps(), without_noise.num_supersteps());
  for (int s = 0; s < with_noise.num_supersteps(); ++s) {
    EXPECT_EQ(with_noise.supersteps[s].Totals().total_messages(),
              without_noise.supersteps[s].Totals().total_messages());
  }
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, InlineModeRunsEverything) {
  bsp::ThreadPool pool(0);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](uint64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
  EXPECT_EQ(pool.num_threads(), 0u);
}

// An inline engine run folds each combined message into its inbox as it
// is sent, which is exact only because workers compute in ascending
// order: the send order then is the delivery order.
TEST(ThreadPoolTest, InlineModeRunsIndicesInAscendingOrder) {
  bsp::ThreadPool pool(0);
  std::vector<uint64_t> order;
  pool.ParallelFor(100, [&](uint64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, MultiThreadedCoversAllIndicesExactlyOnce) {
  bsp::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](uint64_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  bsp::ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.ParallelFor(17, [&](uint64_t) { total++; });
  }
  EXPECT_EQ(total.load(), 200u * 17u);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  bsp::ThreadPool pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&](uint64_t) { touched = true; });
  EXPECT_FALSE(touched);
}

}  // namespace
}  // namespace predict
