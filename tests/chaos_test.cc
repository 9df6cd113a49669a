// Fault-injection and robustness tests: fail-point policies and
// configuration, retry/backoff/deadline determinism, stage-boundary
// error provenance, and the degradation ladder (Predictor history-only
// rung, service stale-profile rung) — including the invariant that the
// zero-fault path with robustness options configured stays bit-identical
// to the plain pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "common/status.h"
#include "core/predictor.h"
#include "core/sla.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "pipeline/stages.h"
#include "service/prediction_service.h"

namespace predict {
namespace {

Graph TestGraph(VertexId n, uint64_t seed) {
  return GeneratePreferentialAttachment({n, 6, 0.3, seed}).MoveValue();
}

PredictorOptions TestPredictorOptions() {
  PredictorOptions options;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 5;
  options.engine.num_workers = 4;
  options.engine.num_threads = 0;
  return options;
}

// A history store with `runs` actual runs of `algorithm`, spread over
// the given worker counts (cycled).
HistoryStore TestHistory(const std::string& algorithm,
                         const std::vector<uint32_t>& worker_counts,
                         int runs = 0) {
  HistoryStore store;
  const int total = runs > 0 ? runs : static_cast<int>(worker_counts.size());
  for (int r = 0; r < total; ++r) {
    RunProfile profile;
    profile.algorithm = algorithm;
    profile.dataset = "hist_ds" + std::to_string(r);
    profile.num_vertices = 1000 + 100 * static_cast<uint64_t>(r);
    profile.num_edges = 6000;
    profile.num_workers = worker_counts[r % worker_counts.size()];
    for (int i = 0; i < 5; ++i) {
      IterationProfile it;
      it.iteration = i;
      it.critical_features[0] = 100.0 + i;
      it.runtime_seconds =
          1.0 + 4.0 / profile.num_workers + 0.01 * i;  // scale-out shape
      profile.iterations.push_back(it);
    }
    store.Add(profile);
  }
  return store;
}

// Everything deterministic in a report, as one comparable string.
// Excludes sample_wall_seconds and accounting (host-execution timing).
std::string Canonical(const Result<PredictionReport>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  const PredictionReport& r = *result;
  char buf[64];
  std::string out = r.algorithm + "|" + r.dataset + "|" + r.scenario + "|";
  out += DegradationRungName(r.degradation.rung);
  out += "|" + r.degradation.cause + "|";
  out += std::to_string(r.predicted_iterations) + "|";
  for (const double s : r.per_iteration_seconds) {
    std::snprintf(buf, sizeof(buf), "%.17g,", s);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g", r.predicted_superstep_seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g",
                r.distribution.p50_seconds, r.distribution.p95_seconds);
  out += buf;
  out += "|" + r.runtime_model_description;
  out += "|" + r.transform_description;
  return out;
}

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisableAll(); }
  void TearDown() override { fail::DisableAll(); }
};

// ------------------------------------------------------------ fail points

TEST_F(FailPointTest, DisarmedInjectsNothing) {
  EXPECT_FALSE(fail::AnyActive());
  EXPECT_TRUE(fail::Inject("never.configured").ok());
  EXPECT_TRUE(fail::Inject("profile.run").ok());
}

TEST_F(FailPointTest, OnceFiresOnFirstHitOnly) {
  ASSERT_TRUE(fail::Configure("t.once", "once").ok());
  EXPECT_TRUE(fail::AnyActive());
  const Status first = fail::Inject("t.once");
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(first.IsInternal());  // default code
  EXPECT_NE(first.message().find("t.once"), std::string::npos);
  EXPECT_TRUE(fail::Inject("t.once").ok());
  EXPECT_TRUE(fail::Inject("t.once").ok());
}

TEST_F(FailPointTest, TimesFiresFirstNHits) {
  ASSERT_TRUE(fail::Configure("t.times", "times:3").ok());
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fail::Inject("t.times").ok());
  EXPECT_TRUE(fail::Inject("t.times").ok());
  const fail::FailPointStats stats = fail::StatsFor("t.times");
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.triggers, 3u);
}

TEST_F(FailPointTest, EveryNthFiresOnMultiples) {
  ASSERT_TRUE(fail::Configure("t.every", "every:3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!fail::Inject("t.every").ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST_F(FailPointTest, ProbabilityIsDeterministicAndContextKeyed) {
  // Same (seed, context) -> same decision, no matter how many other hits
  // happened in between: the property that makes concurrent chaos
  // schedules replayable.
  ASSERT_TRUE(fail::Configure("t.prob", "prob:0.3:seed=7").ok());
  const uint64_t ctx = fail::HashContext("pagerank|ds1");
  const bool first = !fail::Inject("t.prob", ctx).ok();
  for (int i = 0; i < 50; ++i) {
    fail::Inject("t.prob", fail::HashContext("noise" + std::to_string(i)));
  }
  EXPECT_EQ(!fail::Inject("t.prob", ctx).ok(), first);

  // The trigger fraction over many distinct contexts approximates p.
  int fires = 0;
  const int kContexts = 2000;
  for (int i = 0; i < kContexts; ++i) {
    if (!fail::Inject("t.prob", fail::HashContext("c" + std::to_string(i)))
             .ok()) {
      ++fires;
    }
  }
  const double fraction = static_cast<double>(fires) / kContexts;
  EXPECT_GT(fraction, 0.2);
  EXPECT_LT(fraction, 0.4);
}

TEST_F(FailPointTest, ProbabilityZeroAndOneAreExact) {
  ASSERT_TRUE(fail::Configure("t.p0", "prob:0").ok());
  ASSERT_TRUE(fail::Configure("t.p1", "prob:1").ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fail::Inject("t.p0", fail::HashContext(std::to_string(i)))
                    .ok());
    EXPECT_FALSE(fail::Inject("t.p1", fail::HashContext(std::to_string(i)))
                     .ok());
  }
}

TEST_F(FailPointTest, ErrorCodeOptionSelectsCategory) {
  ASSERT_TRUE(fail::Configure("t.io", "once:code=io").ok());
  ASSERT_TRUE(fail::Configure("t.unavail", "once:code=unavailable").ok());
  EXPECT_TRUE(fail::Inject("t.io").IsIOError());
  EXPECT_EQ(fail::Inject("t.unavail").code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FailPointTest, ConfigureFromStringArmsEachAssignment) {
  ASSERT_TRUE(
      fail::ConfigureFromString("t.a=once; t.b=times:2:code=io").ok());
  EXPECT_FALSE(fail::Inject("t.a").ok());
  EXPECT_TRUE(fail::Inject("t.b").IsIOError());
}

TEST_F(FailPointTest, BadSpecsAreRejected) {
  EXPECT_TRUE(fail::Configure("x", "bogus").IsInvalidArgument());
  EXPECT_TRUE(fail::Configure("x", "times:0").IsInvalidArgument());
  EXPECT_TRUE(fail::Configure("x", "prob:1.5").IsInvalidArgument());
  EXPECT_TRUE(fail::Configure("x", "once:wat=1").IsInvalidArgument());
  EXPECT_TRUE(fail::Configure("", "once").IsInvalidArgument());
  EXPECT_TRUE(fail::ConfigureFromString("justaname").IsInvalidArgument());
  EXPECT_FALSE(fail::AnyActive());  // nothing armed by the failures
}

TEST_F(FailPointTest, RearmingRestartsTheSchedule) {
  ASSERT_TRUE(fail::Configure("t.re", "once").ok());
  EXPECT_FALSE(fail::Inject("t.re").ok());
  EXPECT_TRUE(fail::Inject("t.re").ok());
  ASSERT_TRUE(fail::Configure("t.re", "once").ok());
  EXPECT_FALSE(fail::Inject("t.re").ok());  // fires again after re-arm
}

TEST_F(FailPointTest, DisableDisarmsAndOffSpecDisarms) {
  ASSERT_TRUE(fail::Configure("t.off", "every:1").ok());
  EXPECT_FALSE(fail::Inject("t.off").ok());
  fail::Disable("t.off");
  EXPECT_TRUE(fail::Inject("t.off").ok());
  ASSERT_TRUE(fail::Configure("t.off", "every:1").ok());
  ASSERT_TRUE(fail::Configure("t.off", "off").ok());
  EXPECT_TRUE(fail::Inject("t.off").ok());
  EXPECT_FALSE(fail::AnyActive());
}

// ------------------------------------------------------- retry / deadline

TEST(RetryPolicyTest, BackoffIsExponentialClampedAndDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.5;
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 0.1);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 0.4);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4), 0.5);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(10), 0.5);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(0), 0.0);

  policy.jitter_fraction = 0.5;
  policy.jitter_seed = 42;
  const double jittered = policy.BackoffSeconds(2);
  EXPECT_GE(jittered, 0.1);   // 0.2 * (1 - 0.5)
  EXPECT_LE(jittered, 0.3);   // 0.2 * (1 + 0.5)
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), jittered);  // same seed+attempt
  policy.jitter_seed = 43;
  EXPECT_NE(policy.BackoffSeconds(2), jittered);  // different stream
}

TEST(RetryPolicyTest, RetryableCodes) {
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::Internal("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
}

TEST(RetryTest, RecoversFromTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  AttemptAccounting accounting;
  auto result = RunWithRetry(
      policy, Deadline::Infinite(), "test",
      [&]() -> Result<int> {
        ++calls;
        if (calls < 3) return Status::Internal("transient");
        return 42;
      },
      &accounting);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(accounting.attempts, 3);
}

TEST(RetryTest, NonRetryableErrorStopsImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  auto result = RunWithRetry(policy, Deadline::Infinite(), "test",
                             [&]() -> Result<int> {
                               ++calls;
                               return Status::InvalidArgument("config bug");
                             });
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, ExhaustedAttemptsReturnLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  AttemptAccounting accounting;
  auto result = RunWithRetry(
      policy, Deadline::Infinite(), "test",
      [&]() -> Result<int> {
        ++calls;
        return Status::IOError("still broken " + std::to_string(calls));
      },
      &accounting);
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("still broken 3"),
            std::string::npos);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(accounting.attempts, 3);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline deadline = Deadline::Infinite();
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(std::isinf(deadline.RemainingSeconds()));
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  const Deadline deadline = Deadline::After(0.0);
  EXPECT_FALSE(deadline.infinite());
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingSeconds(), 0.0);
  EXPECT_TRUE(Deadline::After(-5.0).Expired());  // clamped, not UB
}

TEST(DeadlineTest, GenerousBudgetHasNotExpired) {
  const Deadline deadline = Deadline::After(3600.0);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 3500.0);
  EXPECT_LE(deadline.RemainingSeconds(), 3600.0);
}

TEST(RetryTest, ExpiredDeadlineShortCircuitsBeforeTheFirstAttempt) {
  int calls = 0;
  auto result = RunWithRetry(RetryPolicy{}, Deadline::After(0.0), "stage_x",
                             [&]() -> Result<int> {
                               ++calls;
                               return 1;
                             });
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_NE(result.status().message().find("stage_x"), std::string::npos);
  EXPECT_EQ(calls, 0);
}

TEST(RetryTest, RefusesBackoffThatWouldOverrunTheDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_seconds = 60.0;  // far past the budget
  policy.max_backoff_seconds = 60.0;      // don't let the clamp rescue it
  int calls = 0;
  auto result = RunWithRetry(policy, Deadline::After(1.0), "stage_y",
                             [&]() -> Result<int> {
                               ++calls;
                               return Status::Internal("transient");
                             });
  EXPECT_EQ(calls, 1);  // no sleep, no second attempt
  EXPECT_TRUE(result.status().IsInternal());  // original cause survives
  EXPECT_NE(result.status().message().find("giving up after attempt 1"),
            std::string::npos);
}

// --------------------------------------------------------- status annotate

TEST(StatusAnnotateTest, PrependsContextAndKeepsCode) {
  const Status annotated =
      StatusAnnotate(Status::IOError("disk on fire"), "profile_stage");
  EXPECT_TRUE(annotated.IsIOError());
  EXPECT_EQ(annotated.message(), "profile_stage: disk on fire");
}

TEST(StatusAnnotateTest, OkPassesThroughAndEmptyMessageGetsContextOnly) {
  EXPECT_TRUE(StatusAnnotate(Status::OK(), "ctx").ok());
  const Status empty = StatusAnnotate(Status(StatusCode::kInternal, ""), "ctx");
  EXPECT_EQ(empty.message(), "ctx");
}

// ------------------------------------------------------- stage boundaries

class ChaosStageTest : public FailPointTest {};

TEST_F(ChaosStageTest, StageErrorsCarryTheStageName) {
  ASSERT_TRUE(fail::Configure("sample.walk", "once:code=io").ok());
  const Graph g = TestGraph(1500, 11);
  pipeline::SampleStage stage(TestPredictorOptions().sampler);
  const auto result = stage.Run(g);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(result.status().message().rfind("sample_stage: ", 0), 0u)
      << result.status().message();
  EXPECT_NE(result.status().message().find("sample.walk"), std::string::npos);
}

TEST_F(ChaosStageTest, ExpiredDeadlineStopsAStageBeforeItRuns) {
  const Graph g = TestGraph(1500, 11);
  pipeline::SampleStage stage(TestPredictorOptions().sampler);
  pipeline::StageContext ctx;
  ctx.deadline = Deadline::After(0.0);
  const auto result = stage.Run(g, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  EXPECT_EQ(result.status().message().rfind("sample_stage", 0), 0u);
}

TEST_F(ChaosStageTest, StageRetryRecoversFromAnInjectedFault) {
  ASSERT_TRUE(fail::Configure("sample.walk", "once").ok());
  const Graph g = TestGraph(1500, 11);
  pipeline::SampleStage stage(TestPredictorOptions().sampler);
  pipeline::StageContext ctx;
  ctx.retry.max_attempts = 2;
  AttemptAccounting accounting;
  ctx.accounting = &accounting;
  const auto result = stage.Run(g, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(accounting.attempts, 2);
  EXPECT_EQ(fail::StatsFor("sample.walk").triggers, 1u);
}

// ----------------------------------------------- Predictor ladder (chaos)

class ChaosPredictorTest : public FailPointTest {};

TEST_F(ChaosPredictorTest, ZeroFaultPathIsBitIdenticalWithRobustnessOn) {
  const Graph g = TestGraph(2000, 17);
  PredictorOptions plain = TestPredictorOptions();
  PredictorOptions robust = plain;
  robust.robustness.retry.max_attempts = 3;
  robust.robustness.deadline_seconds = 3600.0;
  robust.robustness.degraded_fallbacks = true;

  auto baseline = Predictor(plain).PredictRuntime("pagerank", g, "ds");
  auto hardened = Predictor(robust).PredictRuntime("pagerank", g, "ds");
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(hardened.ok());
  EXPECT_EQ(Canonical(baseline), Canonical(hardened));
  EXPECT_FALSE(hardened->degradation.degraded());
}

TEST_F(ChaosPredictorTest, ProfileFailureFallsBackToHistoryOnly) {
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 17);
  const HistoryStore history = TestHistory("pagerank", {2, 4, 8});
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->degradation.rung, DegradationRung::kHistoryOnly);
  EXPECT_NE(report->degradation.cause.find("profile_stage"),
            std::string::npos);
  EXPECT_EQ(report->predicted_iterations, 5);  // mean of history runs
  EXPECT_GT(report->predicted_superstep_seconds, 0.0);
  // 3 distinct worker configs -> the Ernest member fits the fallback.
  EXPECT_EQ(report->model_selection.tier, models::ModelTier::kErnest);
}

TEST_F(ChaosPredictorTest, SingleConfigHistoryFallsBackToMeanModel) {
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 17);
  const HistoryStore history = TestHistory("pagerank", {4}, 2);
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->model_selection.tier, models::ModelTier::kMean);
}

TEST_F(ChaosPredictorTest, LegacyHistoryRunsKeepTheErnestFallback) {
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 17);
  // Runs at 2 and 4 workers, plus one from a history file written before
  // the num_workers column: it loads with num_workers = 0.
  HistoryStore history = TestHistory("pagerank", {2, 4});
  RunProfile legacy;
  legacy.algorithm = "pagerank";
  legacy.dataset = "legacy_ds";
  legacy.num_vertices = 1000;
  legacy.num_edges = 6000;
  for (int i = 0; i < 5; ++i) {
    IterationProfile it;
    it.iteration = i;
    it.critical_features[0] = 100.0 + i;
    it.runtime_seconds = 2.0;
    legacy.iterations.push_back(it);
  }
  history.Add(legacy);
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->degradation.rung, DegradationRung::kHistoryOnly);
  // Two known worker counts still fit Ernest; the legacy run only counts
  // toward the iteration mean.
  EXPECT_EQ(report->model_selection.tier, models::ModelTier::kErnest);
  EXPECT_EQ(report->predicted_iterations, 5);
}

TEST_F(ChaosPredictorTest, NoUsableHistoryIsAnExplicitError) {
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 17);
  PredictorOptions options = TestPredictorOptions();  // no history at all
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("history-only fallback unavailable"),
            std::string::npos);
  // The original cause rides along in the annotated error.
  EXPECT_NE(report.status().message().find("profile_stage"),
            std::string::npos);
}

TEST_F(ChaosPredictorTest, FallbacksOffMeansFailuresSurface) {
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 17);
  const HistoryStore history = TestHistory("pagerank", {2, 4});
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;  // available, but fallbacks not enabled

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().message().rfind("profile_stage: ", 0), 0u);
}

TEST_F(ChaosPredictorTest, ValidationFailuresNeverDegrade) {
  const Graph g = TestGraph(1500, 17);
  const HistoryStore history = TestHistory("pagerank", {2, 4});
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("no_such_algorithm", g, "ds");
  EXPECT_TRUE(report.status().IsNotFound());
}

TEST_F(ChaosPredictorTest, RetriesRecoverWithoutDegrading) {
  ASSERT_TRUE(fail::Configure("profile.run", "once").ok());
  const Graph g = TestGraph(2000, 17);
  PredictorOptions options = TestPredictorOptions();
  options.robustness.retry.max_attempts = 2;
  options.robustness.degraded_fallbacks = true;

  auto report = Predictor(options).PredictRuntime("pagerank", g, "ds");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->degradation.degraded());
  EXPECT_EQ(report->accounting.profile.attempts, 2);

  // Bit-identical to the never-faulted run: a retried success is a
  // success, not a different prediction.
  fail::DisableAll();
  auto clean = Predictor(TestPredictorOptions()).PredictRuntime("pagerank", g,
                                                                "ds");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(Canonical(report), Canonical(clean));
}

class ChaosSlaTest : public FailPointTest {};

TEST_F(ChaosSlaTest, RequireFullQualityVetoesDegradedPredictions) {
  // The SLA layer can refuse to admit a job on a degraded prediction:
  // same workload, same generous deadline — the job flips from feasible
  // to rejected purely because the answer came from a fallback rung.
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  const Graph g = TestGraph(2000, 19);
  const HistoryStore history = TestHistory("pagerank", {2, 4, 8});
  PredictorOptions options = TestPredictorOptions();
  options.history = &history;
  options.robustness.degraded_fallbacks = true;

  JobRequest job;
  job.job_name = "nightly_pagerank";
  job.algorithm = "pagerank";
  job.graph = &g;
  job.dataset_name = "ds";
  job.deadline_seconds = 1e9;  // the deadline itself is never the problem

  auto tolerant = AnalyzeFeasibility({job}, options);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  ASSERT_EQ(tolerant->jobs.size(), 1u);
  EXPECT_TRUE(tolerant->jobs[0].feasible);
  EXPECT_FALSE(tolerant->jobs[0].rejected_degraded);
  EXPECT_EQ(tolerant->jobs[0].degradation.rung, DegradationRung::kHistoryOnly);
  EXPECT_NE(tolerant->ToString().find("[degraded]"), std::string::npos);

  job.require_full_quality = true;
  auto strict = AnalyzeFeasibility({job}, options);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_FALSE(strict->jobs[0].feasible);
  EXPECT_TRUE(strict->jobs[0].rejected_degraded);
  EXPECT_FALSE(strict->all_feasible);
  EXPECT_NE(strict->ToString().find("DEGRADED (rejected)"), std::string::npos);

  // Full-quality predictions are untouched by the flag.
  fail::DisableAll();
  auto clean = AnalyzeFeasibility({job}, options);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->jobs[0].feasible);
  EXPECT_FALSE(clean->jobs[0].rejected_degraded);
}

// ----------------------------------------------- service ladder + replay

class ChaosServiceTest : public FailPointTest {};

PredictionRequest PageRankRequest(const Graph& graph) {
  PredictionRequest request;
  request.algorithm = "pagerank";
  request.graph = &graph;
  request.dataset = "ds1";
  return request;
}

TEST_F(ChaosServiceTest, StaleProfileAnswersAcrossCacheEpochs) {
  const Graph g = TestGraph(2000, 23);
  PredictionServiceOptions options;
  options.predictor = TestPredictorOptions();
  options.predictor.robustness.degraded_fallbacks = true;
  options.num_threads = 0;
  PredictionService service(options);

  // Epoch 1: clean run populates the last-good-profile map.
  auto first = service.Predict(PageRankRequest(g));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->degradation.degraded());

  // "Restart": caches drop, then every fresh profile run fails.
  service.ClearCaches();
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  auto second = service.Predict(PageRankRequest(g));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->degradation.rung, DegradationRung::kStaleProfile);
  EXPECT_NE(second->degradation.cause.find("profile.run"), std::string::npos);
  EXPECT_EQ(service.cache_stats().stale_profile_hits, 1u);

  // The stale profile is the same artifact, so the prediction numbers
  // match the clean epoch exactly.
  EXPECT_EQ(first->per_iteration_seconds, second->per_iteration_seconds);
  EXPECT_EQ(first->predicted_superstep_seconds,
            second->predicted_superstep_seconds);
}

TEST_F(ChaosServiceTest, LadderPrefersStaleProfileOverHistoryOnly) {
  const Graph g = TestGraph(2000, 23);
  const HistoryStore history = TestHistory("pagerank", {2, 4});
  PredictionServiceOptions options;
  options.predictor = TestPredictorOptions();
  options.predictor.history = &history;
  options.predictor.robustness.degraded_fallbacks = true;
  options.num_threads = 0;
  PredictionService service(options);

  // No prior profile for this key: history-only is the only rung left.
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  auto cold = service.Predict(PageRankRequest(g));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->degradation.rung, DegradationRung::kHistoryOnly);
  EXPECT_EQ(service.cache_stats().history_only_fallbacks, 1u);

  // Once a clean run exists, the same failure degrades only one rung.
  fail::DisableAll();
  auto clean = service.Predict(PageRankRequest(g));
  ASSERT_TRUE(clean.ok());
  service.ClearCaches();
  ASSERT_TRUE(fail::Configure("profile.run", "prob:1").ok());
  auto warm = service.Predict(PageRankRequest(g));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->degradation.rung, DegradationRung::kStaleProfile);
}

TEST_F(ChaosServiceTest, ZeroFaultServiceMatchesPredictorWithRobustnessOn) {
  const Graph g = TestGraph(2000, 29);
  PredictionServiceOptions options;
  options.predictor = TestPredictorOptions();
  options.predictor.robustness.retry.max_attempts = 3;
  options.predictor.robustness.deadline_seconds = 3600.0;
  options.predictor.robustness.degraded_fallbacks = true;
  options.num_threads = 2;
  PredictionService service(options);

  auto served = service.Predict(PageRankRequest(g));
  auto direct = Predictor(TestPredictorOptions()).PredictRuntime("pagerank", g,
                                                                 "ds1");
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Canonical(served), Canonical(direct));
}

TEST_F(ChaosServiceTest, SameFaultScheduleReplaysByteIdentically) {
  // Two fresh services, same concurrent batch, same probabilistic fault
  // schedule: context-keyed decisions make the outcome — successes,
  // degradations, and errors alike — identical byte for byte.
  const Graph g1 = TestGraph(2000, 31);
  const Graph g2 = TestGraph(1500, 37);
  const HistoryStore history = TestHistory("pagerank", {2, 4, 8});

  auto run_schedule = [&]() -> std::vector<std::string> {
    fail::DisableAll();
    EXPECT_TRUE(
        fail::ConfigureFromString("profile.run=prob:0.5:seed=9").ok());
    PredictionServiceOptions options;
    options.predictor = TestPredictorOptions();
    options.predictor.history = &history;
    options.predictor.robustness.degraded_fallbacks = true;
    options.num_threads = 4;
    PredictionService service(options);

    std::vector<PredictionRequest> requests;
    for (const Graph* graph : {&g1, &g2}) {
      for (const char* algorithm :
           {"pagerank", "connected_components", "topk_ranking",
            "neighborhood"}) {
        PredictionRequest request;
        request.algorithm = algorithm;
        request.graph = graph;
        request.dataset = graph == &g1 ? "ds1" : "ds2";
        requests.push_back(std::move(request));
      }
    }
    const auto results = service.PredictBatch(requests);
    std::vector<std::string> canonical;
    for (const auto& result : results) canonical.push_back(Canonical(result));
    return canonical;
  };

  const std::vector<std::string> first = run_schedule();
  const std::vector<std::string> second = run_schedule();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i;
  }
  // The schedule actually injected something (p=0.5 over 8 contexts).
  EXPECT_GT(fail::StatsFor("profile.run").triggers, 0u);
}

// ------------------------------------- delta compaction under injection

class ChaosDeltaCompactionTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::DisableAll(); }
  void TearDown() override { fail::DisableAll(); }
};

TEST_F(ChaosDeltaCompactionTest, ExplicitCompactFaultIsStrongExceptionSafe) {
  EvolvingGraph g(TestGraph(200, 43));
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(5, 6)}).ok());  // has a lineage
  EvolvingGraph unfaulted = g;
  const EdgeDeltaBatch batch = {EdgeDelta::Insert(0, 7),
                                EdgeDelta::Insert(3, 9)};
  const Graph& version = **g.Current();
  const uint64_t fp = version.Fingerprint();
  const GraphLineage* lineage = version.lineage();
  const std::vector<Edge> before = version.ToEdgeList();
  ASSERT_NE(lineage, nullptr);

  ASSERT_TRUE(fail::Configure("graph.compact", "once").ok());
  const Status faulted = g.Apply(batch);
  EXPECT_FALSE(faulted.ok());
  EXPECT_NE(faulted.message().find("graph_compact"), std::string::npos)
      << faulted.message();
  // Nothing changed: same version, same lineage, same edges.
  EXPECT_EQ((*g.Current())->Fingerprint(), fp);
  EXPECT_EQ((*g.Current())->lineage(), lineage);
  EXPECT_EQ((*g.Current())->ToEdgeList(), before);

  // The retry (fail point consumed) reaches the version an unfaulted
  // graph reaches.
  ASSERT_TRUE(g.Apply(batch).ok());
  ASSERT_TRUE(unfaulted.Apply(batch).ok());
  const Graph& retried = **g.Current();
  const Graph& expected = **unfaulted.Current();
  EXPECT_EQ(retried.Fingerprint(), expected.Fingerprint());
  EXPECT_EQ(retried.ToEdgeList(), expected.ToEdgeList());
  ASSERT_NE(retried.lineage(), nullptr);
  EXPECT_EQ(retried.lineage()->parent_fingerprint, fp);
  EXPECT_EQ(retried.lineage()->dirty, expected.lineage()->dirty);
}

TEST_F(ChaosDeltaCompactionTest, CachesKeyedOnVersionNeverSeeTornState) {
  // A cache keyed on the version's Fingerprint() is sound iff every read
  // of a given version yields identical bytes, no matter how many
  // faulted Applys happen in between. Walk the graph through mutate ->
  // faulted mutate -> read -> retry -> read and demand one consistent
  // edge list per version.
  EvolvingGraph g(TestGraph(150, 53));
  std::unordered_map<uint64_t, std::vector<Edge>> cache;
  const auto observe = [&](EvolvingGraph& graph) {
    const Graph& version = **graph.Current();
    const std::vector<Edge> edges = version.ToEdgeList();
    const auto [it, inserted] = cache.emplace(version.Fingerprint(), edges);
    if (!inserted) {
      EXPECT_EQ(it->second, edges)
          << "two reads of version " << version.Fingerprint()
          << " observed different edge sets";
    }
  };

  observe(g);
  ASSERT_TRUE(g.Apply({EdgeDelta::Insert(1, 2), EdgeDelta::Insert(5, 8)}).ok());
  observe(g);

  ASSERT_TRUE(fail::Configure("graph.compact", "times:2").ok());
  EXPECT_FALSE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());
  observe(g);  // post-fault read: same version, same bytes
  EXPECT_FALSE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());
  observe(g);
  ASSERT_TRUE(g.Apply({EdgeDelta::Delete(1, 2)}).ok());  // third attempt
  observe(g);
  EXPECT_EQ(cache.size(), 3u);  // 3 distinct versions were reached
}

}  // namespace
}  // namespace predict
