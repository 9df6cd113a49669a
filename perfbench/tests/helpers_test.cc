// Tests of the benchmark's own helpers: percentile interpolation, the
// seeded request streams and the churn generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "datasets/datasets.h"
#include "graph/delta.h"
#include "helpers.h"
#include "pipeline/artifacts.h"

namespace perfbench {
namespace {

using namespace predict;

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median(values), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, MatchesNumpyOnAHundredValues) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);  // 1..100
  // numpy.percentile(range(1, 101), 90) == 90.1
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 50.5);
}

TEST(RequestStreamTest, RoundsAreSeededPermutations) {
  const auto a = ShuffledRounds(22, 5, 7);
  EXPECT_EQ(a, ShuffledRounds(22, 5, 7));
  EXPECT_NE(a, ShuffledRounds(22, 5, 8));
  for (std::vector<uint32_t> round : a) {
    std::sort(round.begin(), round.end());
    std::vector<uint32_t> all(22);
    std::iota(all.begin(), all.end(), 0u);
    EXPECT_EQ(round, all);
  }
  EXPECT_NE(a[0], a[1]);
}

TEST(RequestStreamTest, ZipfDrawsAreSeededAndSkewed) {
  const auto a = ZipfDraws(12, 1.0, 20000, 3);
  EXPECT_EQ(a, ZipfDraws(12, 1.0, 20000, 3));
  EXPECT_NE(a, ZipfDraws(12, 1.0, 20000, 4));
  std::vector<int> counts(12, 0);
  for (const uint32_t d : a) {
    ASSERT_LT(d, 12u);
    ++counts[d];
  }
  // P(rank 0) / P(rank 11) = 12 under exponent 1.
  EXPECT_GT(counts[0], 8 * counts[11]);
  EXPECT_TRUE(std::is_sorted(counts.begin(), counts.begin() + 3,
                             std::greater<int>()));
}

class ChurnStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new Graph(
        EvolvingGraph::Canonicalize(MakeDataset("wiki", 0.05).MoveValue()));
  }
  static void TearDownTestSuite() { delete base_; }

  static SamplerOptions Sampler() {
    SamplerOptions sampler;
    sampler.kind = SamplerKind::kRandomJump;
    sampler.walk_segment_steps = 64;
    return sampler;
  }

  static ChurnStream Make(uint64_t seed) {
    Result<ChurnStream> stream = MakeChurnStream(*base_, Sampler(), 6, seed);
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    return stream.ok() ? std::move(stream).MoveValue() : ChurnStream{};
  }

  static Graph* base_;
};

Graph* ChurnStreamTest::base_ = nullptr;

TEST_F(ChurnStreamTest, SameSeedSameStreamOtherSeedOtherStream) {
  const ChurnStream a = Make(11);
  const ChurnStream b = Make(11);
  const ChurnStream c = Make(12);
  ASSERT_EQ(a.updates.size(), 30u);
  ASSERT_EQ(c.updates.size(), 30u);
  bool differs = false;
  for (size_t i = 0; i < a.updates.size(); ++i) {
    EXPECT_EQ(a.updates[i].batch, b.updates[i].batch);
    EXPECT_EQ(a.updates[i].core, b.updates[i].core);
    differs = differs || a.updates[i].batch != c.updates[i].batch;
  }
  EXPECT_TRUE(differs);
}

TEST_F(ChurnStreamTest, OneCoreUpdatePerRound) {
  const ChurnStream stream = Make(5);
  for (size_t r = 0; r < 6; ++r) {
    int core = 0;
    for (size_t i = 0; i < kChurnUpdatesPerRound; ++i) {
      core += stream.updates[r * kChurnUpdatesPerRound + i].core;
    }
    EXPECT_EQ(core, 1) << "round " << r;
  }
  EXPECT_GT(stream.periphery_vertices, 0u);
}

// Apply validates every delete against the live edge multiset, so a
// stream that applies cleanly deletes only live edges; periphery updates
// keep the sample bit-identical and core updates change it.
TEST_F(ChurnStreamTest, DeletesHitLiveEdgesAndPeripheryKeepsTheSample) {
  const ChurnStream stream = Make(9);
  EvolvingGraph evolving(*base_);
  Result<Sample> previous = SampleGraph(*base_, Sampler());
  ASSERT_TRUE(previous.ok());
  size_t deletes = 0;
  for (const ChurnUpdate& update : stream.updates) {
    for (const EdgeDelta& delta : update.batch) {
      deletes += delta.op == EdgeDelta::Op::kDelete;
    }
    ASSERT_TRUE(evolving.Apply(update.batch).ok());
    Result<const Graph*> version = evolving.Current();
    ASSERT_TRUE(version.ok());
    Result<Sample> sample = SampleGraph(**version, Sampler());
    ASSERT_TRUE(sample.ok());
    const bool same = sample->vertices == previous->vertices &&
                      sample->subgraph.Fingerprint() ==
                          previous->subgraph.Fingerprint();
    EXPECT_EQ(same, !update.core);
    previous = std::move(sample);
  }
  EXPECT_GT(deletes, 0u);
  EXPECT_EQ(evolving.num_edges() + deletes,
            base_->num_edges() + [&] {
              size_t inserts = 0;
              for (const ChurnUpdate& u : stream.updates) {
                for (const EdgeDelta& d : u.batch) {
                  inserts += d.op == EdgeDelta::Op::kInsert;
                }
              }
              return inserts;
            }());
}

}  // namespace
}  // namespace perfbench
