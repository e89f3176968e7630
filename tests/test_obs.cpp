// The observability layer's contracts: deterministic shard-merged counters
// (bit-identical totals for any thread count), inert-when-disabled
// instrumentation, span capture, the convergence-trace CSV format, and the
// golden convergence trace of the fig. 3 goal-attainment run at 1 and 4
// threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "amplifier/objectives.h"
#include "device/phemt.h"
#include "numeric/parallel.h"
#include "numeric/rng.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "optimize/goal_attainment.h"

namespace gnsslna {
namespace {

/// Every test in this file owns the global obs state for its lifetime.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::reset();
    obs::clear_span_capture();
  }
  void TearDown() override {
    obs::stop_span_capture();
    obs::clear_span_capture();
    obs::reset();
    obs::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

#if defined(GNSSLNA_OBS_ENABLED)

std::uint64_t counter_named(const std::vector<obs::CounterValue>& snapshot,
                            const std::string& name) {
  for (const obs::CounterValue& c : snapshot) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST_F(ObsTest, CounterNameRegistrationIsIdempotent) {
  const obs::Counter a("obs_test.idempotent");
  const obs::Counter b("obs_test.idempotent");
  EXPECT_EQ(a.id(), b.id());
  const obs::Counter c("obs_test.other");
  EXPECT_NE(a.id(), c.id());
}

TEST_F(ObsTest, CounterTotalsMergeAcrossPoolThreads) {
  const obs::Counter counter("obs_test.merge");
  constexpr std::size_t n = 1000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    obs::reset();
    numeric::parallel_for(threads, n, [&](std::size_t i) {
      counter.add(1 + i % 3);
    });
    // Sum of (1 + i%3) over i in [0, n): thread placement must not matter.
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) expected += 1 + i % 3;
    EXPECT_EQ(counter_named(obs::counter_snapshot(), "obs_test.merge"),
              expected)
        << threads << " threads";
  }
}

TEST_F(ObsTest, DisabledCountersDoNotCount) {
  const obs::Counter counter("obs_test.disabled");
  obs::set_enabled(false);
  counter.add(7);
  obs::set_enabled(true);
  EXPECT_EQ(counter_named(obs::counter_snapshot(), "obs_test.disabled"), 0u);
  counter.add(7);
  EXPECT_EQ(counter_named(obs::counter_snapshot(), "obs_test.disabled"), 7u);
}

TEST_F(ObsTest, CounterDeltaSubtractsByName) {
  const obs::Counter counter("obs_test.delta");
  counter.add(5);
  const auto before = obs::counter_snapshot();
  counter.add(3);
  const auto delta = obs::counter_delta(obs::counter_snapshot(), before);
  EXPECT_EQ(counter_named(delta, "obs_test.delta"), 3u);
}

TEST_F(ObsTest, SpanStatsCountScopes) {
  const obs::SpanCategory category("obs_test.span");
  for (int i = 0; i < 5; ++i) {
    obs::Span span(category);
  }
  const auto spans = obs::span_snapshot();
  for (const obs::SpanStat& s : spans) {
    if (s.name == "obs_test.span") {
      EXPECT_EQ(s.count, 5u);
      return;
    }
  }
  FAIL() << "span category not found in snapshot";
}

TEST_F(ObsTest, SpanCaptureWritesChromeTraceJson) {
  const obs::SpanCategory category("obs_test.capture");
  obs::start_span_capture();
  { obs::Span span(category); }
  { obs::Span span(category); }
  obs::stop_span_capture();

  const std::string path = ::testing::TempDir() + "obs_capture.json";
  ASSERT_TRUE(obs::write_span_trace(path, /*deterministic=*/true));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("obs_test.capture"), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  // Deterministic mode zeroes wall-clock: both events at ts 0.000.
  EXPECT_NE(text.find("\"ts\": 0.000"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, InstrumentationMacrosCompileAndCount) {
  const auto before = obs::counter_snapshot();
  GNSSLNA_OBS_COUNT("obs_test.macro");
  GNSSLNA_OBS_COUNT_N("obs_test.macro", 4);
  {
    GNSSLNA_OBS_SPAN("obs_test.macro_span");
  }
  const auto delta = obs::counter_delta(obs::counter_snapshot(), before);
  EXPECT_EQ(counter_named(delta, "obs_test.macro"), 5u);
}

TEST_F(ObsTest, GaugesTrackLevelsAndRespectTheEnableGate) {
  const obs::Gauge gauge("obs_test.gauge");
  gauge.set(5);
  gauge.add(2);
  obs::set_enabled(false);
  gauge.set(99);  // dropped while disabled
  obs::set_enabled(true);

  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  bool found = false;
  for (const obs::GaugeValue& g : snapshot.gauges) {
    if (g.name == "obs_test.gauge") {
      EXPECT_EQ(g.value, 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  obs::metrics_reset();
}

TEST_F(ObsTest, HistogramObservesWithPrometheusLeSemantics) {
  obs::metrics_reset();
  const obs::Histogram hist("obs_test.hist", {1.0, 10.0});
  hist.observe(0.5);   // bucket le=1
  hist.observe(1.0);   // boundary: le=1 (cumulative "less or equal")
  hist.observe(5.0);   // bucket le=10
  hist.observe(11.0);  // overflow (+Inf)

  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  const obs::HistogramValue* h = nullptr;
  for (const obs::HistogramValue& v : snapshot.histograms) {
    if (v.name == "obs_test.hist") h = &v;
  }
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 2u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_EQ(h->counts[2], 1u);
  EXPECT_EQ(h->total, 4u);
  EXPECT_EQ(h->sum, 1 + 1 + 5 + 11);  // llround per observation

  obs::metrics_reset();  // zeroes values, keeps the registration
  for (const obs::HistogramValue& v : obs::metrics_snapshot().histograms) {
    if (v.name == "obs_test.hist") {
      EXPECT_EQ(v.total, 0u);
    }
  }
}

TEST_F(ObsTest, JobTraceRecordsOpenOrderSeqAndDepth) {
  obs::JobTrace trace(42);
  {
    const obs::ScopedJobTrace scope(&trace);
    EXPECT_EQ(obs::current_job_trace(), &trace);
    const obs::SpanCategory outer("obs_test.jt_outer");
    const obs::SpanCategory inner("obs_test.jt_inner");
    {
      obs::Span a(outer);
      { obs::Span b(inner); }
      { obs::Span c(inner); }
    }
    const obs::SpanCategory leaf("obs_test.jt_leaf");
    obs::job_trace_event(leaf, 7);
  }
  EXPECT_EQ(obs::current_job_trace(), nullptr);

  ASSERT_EQ(trace.records.size(), 4u);
  // Records are pushed at span OPEN: parents precede children in seq
  // order, depth counts open ancestors.
  EXPECT_EQ(trace.records[0].seq, 0u);
  EXPECT_EQ(trace.records[0].depth, 0u);
  EXPECT_EQ(trace.records[1].seq, 1u);
  EXPECT_EQ(trace.records[1].depth, 1u);
  EXPECT_EQ(trace.records[2].seq, 2u);
  EXPECT_EQ(trace.records[2].depth, 1u);
  EXPECT_EQ(trace.records[1].span_id, trace.records[2].span_id);
  // The leaf event lands after the spans closed, back at depth 0.
  EXPECT_EQ(trace.records[3].seq, 3u);
  EXPECT_EQ(trace.records[3].depth, 0u);
  EXPECT_EQ(trace.records[3].dur_ns, 7u);
}

TEST_F(ObsTest, FlightRingKeepsTheNewestEventsAtCapacity) {
  obs::flight_clear();
  constexpr std::size_t kOver = obs::kFlightRingCapacity + 44;
  for (std::size_t i = 0; i < kOver; ++i) {
    obs::FlightEvent e;
    e.job_id = i + 1;
    e.job_seq = 0;
    e.type = obs::FlightType::kAdmit;
    obs::flight_copy_name(e.job_type, "evaluate");
    obs::flight_copy_name(e.client, "ring-test");
    obs::flight_record(e);
  }
  const std::vector<obs::FlightEvent> snapshot = obs::flight_snapshot();
  ASSERT_EQ(snapshot.size(), obs::kFlightRingCapacity);
  // Oldest events fell off; the snapshot is order-sorted, newest last.
  EXPECT_EQ(snapshot.front().job_id, kOver - obs::kFlightRingCapacity + 1);
  EXPECT_EQ(snapshot.back().job_id, kOver);
  EXPECT_LT(snapshot.front().order, snapshot.back().order);

  EXPECT_EQ(obs::flight_for_job(kOver).size(), 1u);
  EXPECT_TRUE(obs::flight_for_job(1).empty());  // overwritten
  obs::flight_clear();
  EXPECT_TRUE(obs::flight_snapshot().empty());
}

TEST_F(ObsTest, FlightRecordingIsGatedOnEnabled) {
  obs::flight_clear();
  obs::set_enabled(false);
  obs::FlightEvent e;
  e.job_id = 1;
  obs::flight_record(e);
  obs::set_enabled(true);
  EXPECT_TRUE(obs::flight_snapshot().empty());
}

#endif  // GNSSLNA_OBS_ENABLED

TEST(ObsMetrics, DeterministicFlagRoundTrips) {
  const bool was = obs::deterministic();
  obs::set_deterministic(true);
  EXPECT_TRUE(obs::deterministic());
  obs::set_deterministic(false);
  EXPECT_FALSE(obs::deterministic());
  obs::set_deterministic(was);
}

TEST(ObsMetrics, ObservationalClassificationFollowsThePrefixTable) {
  EXPECT_TRUE(obs::metric_is_observational("service.plan_cache.hits"));
  EXPECT_TRUE(obs::metric_is_observational("service.plan_cache.idle"));
  EXPECT_TRUE(obs::metric_is_observational("circuit.batch.workspace_reuses"));
  EXPECT_TRUE(obs::metric_is_observational("circuit.batch.arena_bytes_hwm"));
  EXPECT_TRUE(obs::metric_is_observational("amplifier.report_cache.hits"));
  EXPECT_TRUE(obs::metric_is_observational("yield.plan_builds"));

  EXPECT_FALSE(obs::metric_is_observational("service.submitted"));
  EXPECT_FALSE(obs::metric_is_observational("service.job_latency_us"));
  EXPECT_FALSE(obs::metric_is_observational("circuit.batch.solves"));
  EXPECT_FALSE(obs::metric_is_observational("amplifier.band_evaluations"));
}

/// Byte-level pin of the Prometheus exposition on a hand-built snapshot:
/// the format is part of the service wire contract.
TEST(ObsMetrics, PrometheusTextExactBytes) {
  obs::MetricsSnapshot s;
  obs::CounterValue completed;
  completed.name = "service.completed";
  completed.value = 3;
  obs::CounterValue hits;
  hits.name = "service.plan_cache.hits";  // observational
  hits.value = 9;
  s.counters = {completed, hits};
  obs::GaugeValue depth;
  depth.name = "service.queue_depth";
  depth.value = 2;
  s.gauges = {depth};
  obs::HistogramValue h;
  h.name = "service.job_latency_us";
  h.upper_bounds = {50.0, 100.0};
  h.counts = {1, 2, 1};
  h.total = 4;
  h.sum = 260;
  s.histograms = {h};

  EXPECT_EQ(obs::prometheus_text(s, /*deterministic=*/false),
            "# TYPE gnsslna_service_completed counter\n"
            "gnsslna_service_completed 3\n"
            "# TYPE gnsslna_service_plan_cache_hits counter\n"
            "gnsslna_service_plan_cache_hits 9\n"
            "# TYPE gnsslna_service_queue_depth gauge\n"
            "gnsslna_service_queue_depth 2\n"
            "# TYPE gnsslna_service_job_latency_us histogram\n"
            "gnsslna_service_job_latency_us_bucket{le=\"50\"} 1\n"
            "gnsslna_service_job_latency_us_bucket{le=\"100\"} 3\n"
            "gnsslna_service_job_latency_us_bucket{le=\"+Inf\"} 4\n"
            "gnsslna_service_job_latency_us_sum 260\n"
            "gnsslna_service_job_latency_us_count 4\n");

  // Deterministic mode zeroes observational VALUES but keeps the layout.
  const std::string det = obs::prometheus_text(s, /*deterministic=*/true);
  EXPECT_NE(det.find("gnsslna_service_plan_cache_hits 0\n"),
            std::string::npos);
  EXPECT_NE(det.find("gnsslna_service_completed 3\n"), std::string::npos);
}

TEST(ObsMetrics, HistogramQuantileUsesTheMidpointRule) {
  obs::HistogramValue h;
  h.upper_bounds = {10.0, 20.0};
  h.counts = {2, 2, 0};
  h.total = 4;
  // Median rank k = floor(0.5*4)+1 = 3: 1st of 2 samples in (10, 20] ->
  // 10 + 10 * 0.5/2 = 12.5.  Rank 1 sits at 0 + 10 * 0.5/2 = 2.5.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 12.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.0), 2.5);

  obs::HistogramValue overflow;
  overflow.upper_bounds = {10.0, 20.0};
  overflow.counts = {0, 0, 3};
  overflow.total = 3;
  // Overflow bucket has no width: report the last finite bound.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(overflow, 0.5), 20.0);

  obs::HistogramValue empty;
  empty.upper_bounds = {10.0};
  empty.counts = {0, 0};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(empty, 0.5), 0.0);
}

TEST(ObsTrace, CsvFormatRoundTripsBitExactly) {
  obs::ConvergenceTrace trace;
  obs::TraceRecord rec;
  rec.phase = "de";
  rec.iteration = 3;
  rec.evaluations = 420;
  rec.best_value = 0.12345678901234567;
  trace.record(rec);
  rec.phase = "final";
  rec.attainment = -0.25;
  trace.record(rec);

  const std::string csv = trace.to_csv();
  std::istringstream in(csv);
  std::string header, row1, row2;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row1));
  ASSERT_TRUE(std::getline(in, row2));
  EXPECT_EQ(header,
            "phase,stream,iteration,evaluations,best_value,attainment,"
            "front_size,hypervolume");
  // %.17g doubles parse back to the exact same bits.
  const std::size_t comma = row1.find(",nan", row1.find("0.12"));
  ASSERT_NE(comma, std::string::npos);
  const double parsed = std::strtod(row1.c_str() + row1.find("0.12"), nullptr);
  EXPECT_EQ(parsed, 0.12345678901234567);
  EXPECT_NE(row2.find("final"), std::string::npos);
  EXPECT_NE(row2.find("-0.25"), std::string::npos);
}

TEST(ObsReport, SparklineScalesMinToMax) {
  EXPECT_EQ(obs::sparkline({}), "");
  const std::string line = obs::sparkline({0.0, 0.5, 1.0});
  EXPECT_EQ(line, "▁▅█");
  // Flat input renders at the floor level, NaN as a space.
  EXPECT_EQ(obs::sparkline({2.0, 2.0}), "▁▁");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(obs::sparkline({0.0, nan, 1.0}), "▁ █");
}

// ---------------------------------------------------------------------------
// Golden convergence trace of the fig. 3 goal-attainment run (reduced
// budgets), at 1 and 4 threads.

optimize::ImprovedGoalOptions small_budget(std::size_t threads) {
  optimize::ImprovedGoalOptions options;
  options.de_generations = 6;
  options.de_population = 24;
  options.polish_evaluations = 400;
  options.threads = threads;
  return options;
}

TEST(ObsConvergenceGolden, Fig3TraceShapeAndFinalRowMatchResult) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::GoalProblem problem = amplifier::make_goal_problem(
      dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::ConvergenceTrace trace;
    optimize::ImprovedGoalOptions options = small_budget(threads);
    options.trace = trace.sink();
    numeric::Rng rng(1234);
    const optimize::GoalResult result =
        optimize::improved_goal_attainment(problem, rng, options);

    const auto& rows = trace.records();
    // de_seed: one row for the initial population + one per generation;
    // polish: one per rho stage; then the closing "final" row.
    const std::size_t expected =
        (options.de_generations + 1) + static_cast<std::size_t>(
                                           options.rho_stages) + 1;
    ASSERT_EQ(rows.size(), expected) << threads << " threads";

    // DE keeps its best: the seeding stage's best objective is monotone
    // non-increasing, and evaluations only grow.
    double prev_best = std::numeric_limits<double>::infinity();
    std::size_t prev_evals = 0;
    for (const obs::TraceRecord& rec : rows) {
      EXPECT_GE(rec.evaluations, prev_evals);
      prev_evals = rec.evaluations;
      if (rec.phase == "de_seed") {
        EXPECT_LE(rec.best_value, prev_best);
        prev_best = rec.best_value;
      }
    }

    const obs::TraceRecord& last = rows.back();
    EXPECT_EQ(last.phase, "final");
    EXPECT_EQ(last.attainment, result.attainment);
    EXPECT_EQ(last.evaluations, result.evaluations);
  }
}

TEST(ObsConvergenceGolden, Fig3TraceIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::GoalProblem problem = amplifier::make_goal_problem(
      dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});

  const auto run_csv = [&](std::size_t threads) {
    obs::ConvergenceTrace trace;
    optimize::ImprovedGoalOptions options = small_budget(threads);
    options.trace = trace.sink();
    numeric::Rng rng(1234);
    (void)optimize::improved_goal_attainment(problem, rng, options);
    return trace.to_csv();
  };

  const std::string serial = run_csv(1);
  EXPECT_EQ(serial, run_csv(4));
}

TEST(ObsConvergenceGolden, AttachingASinkDoesNotChangeTheResult) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::GoalProblem problem = amplifier::make_goal_problem(
      dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});

  const auto run = [&](bool traced) {
    optimize::ImprovedGoalOptions options = small_budget(1);
    obs::ConvergenceTrace trace;
    if (traced) options.trace = trace.sink();
    numeric::Rng rng(1234);
    return optimize::improved_goal_attainment(problem, rng, options);
  };

  const optimize::GoalResult bare = run(false);
  const optimize::GoalResult traced = run(true);
  EXPECT_EQ(bare.x, traced.x);
  EXPECT_EQ(bare.attainment, traced.attainment);
  EXPECT_EQ(bare.evaluations, traced.evaluations);
  EXPECT_EQ(bare.objective_values, traced.objective_values);
}

}  // namespace
}  // namespace gnsslna
