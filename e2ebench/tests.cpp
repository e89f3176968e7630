// Tests of the benchmark's own arithmetic (percentile choice, span self
// time, name grammar) and a short smoke run of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench_core.h"
#include "workloads.h"

namespace e2e {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_quantile(1), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(19), 0.5);   // p90 rank 18: 1 beyond
  EXPECT_DOUBLE_EQ(tail_quantile(99), 0.5);   // p90 rank 90: 9 beyond
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.9);  // p90 rank 90: 10 beyond
  EXPECT_DOUBLE_EQ(tail_quantile(999), 0.9);  // p99 rank 990: 9 beyond
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(10000), 0.999);
  EXPECT_EQ(quantile_label(0.5), "p50");
  EXPECT_EQ(quantile_label(0.99), "p99");
  EXPECT_EQ(quantile_label(0.999), "p99.9");
}

TEST(TailPercentile, SummaryUsesNearestRank) {
  const Summary s = summarize(ramp(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // exactly ten samples beyond
  const Summary small = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(small.p50, 2.0);
  EXPECT_DOUBLE_EQ(small.tail, 2.0);  // too few for a tail: the median
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(SelfTime, NestedAndOverlappingChildren) {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap, [40, 45)
  // nests inside the second, [90, 120) sticks out of the parent.
  EXPECT_EQ(self_ns({0, 100}, {{10, 30}, {20, 50}, {40, 45}, {90, 120}}),
            100u - 40u - 10u);
  EXPECT_EQ(self_ns({0, 100}, {}), 100u);
  EXPECT_EQ(self_ns({0, 100}, {{0, 100}, {0, 100}}), 0u);
  EXPECT_EQ(self_ns({50, 60}, {{0, 10}, {70, 80}}), 10u);
}

TEST(SelfTime, TracerTotalsFollowParents) {
  Tracer t;
  const auto root = t.open("root");
  const auto a = t.open("child");
  t.close(a);
  t.add("request", 0, ~std::uint64_t{0} / 2);  // covers the whole root
  t.close(root);
  EXPECT_EQ(t.self_of(static_cast<std::size_t>(root)), 0u);
  EXPECT_EQ(t.spans()[static_cast<std::size_t>(a)].parent, root);
  std::size_t names = 0;
  for (const auto& [name, totals] : t.totals()) {
    ++names;
    EXPECT_EQ(totals.count, 1u) << name;
  }
  EXPECT_EQ(names, 3u);
}

TEST(NameGrammar, AcceptsOnlyTheMetricAlphabet) {
  EXPECT_TRUE(valid_name("setup_s"));
  EXPECT_TRUE(valid_name("service.run_job_ms.design_scenario"));
  EXPECT_TRUE(valid_name("trace.coverage.yield_mc"));
  EXPECT_TRUE(valid_name("9-lives"));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name(".hidden"));
  EXPECT_FALSE(valid_name("_private"));
  EXPECT_FALSE(valid_name("rtt p50"));
  EXPECT_FALSE(valid_name("us/\xC2\xB5s"));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
}

TEST(Requests, PhaseBMixHoldsExactProportionsPerHundred) {
  const gnsslna::numeric::Rng root(derive_seed(3, 2));
  std::map<std::string, int> kinds;
  int custom_bands = 0;
  for (std::size_t i = 0; i < 4000; ++i) {
    const Request r = phase_b_request(root, i);
    ++kinds[r.kind];
    if (r.params.find("band_hz") != std::string::npos) ++custom_bands;
  }
  const std::map<std::string, int> expected = {
      {"evaluate", 2800}, {"sweep", 720}, {"design", 120},
      {"design_scenario", 120}, {"yield", 160}, {"extract", 80}};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(custom_bands, 80);
  EXPECT_EQ(phase_b_request(root, 17).params, phase_b_request(root, 17).params);
}

void expect_smoke(const std::string& workload, bool trace) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = 5;
  opt.seconds = 0.5;
  opt.process_start_ns = now_ns();
  Report report;
  if (trace) {
    run_traced(opt, report);
  } else if (workload == "design_run") {
    run_design_run(opt, report);
  } else if (workload == "yield_mc") {
    run_yield_mc(opt, report);
  } else {
    run_service(opt, report);
  }
  EXPECT_TRUE(report.correct);
  EXPECT_GT(report.attempted, 0u);
  EXPECT_EQ(report.failed, 0u);
  for (const Metric& m : report.metrics) {
    EXPECT_TRUE(valid_name(m.name)) << m.name;
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

TEST(Smoke, DesignRun) { expect_smoke("design_run", false); }
TEST(Smoke, YieldMc) { expect_smoke("yield_mc", false); }
TEST(Smoke, Service) { expect_smoke("service", false); }
TEST(Smoke, Traced) { expect_smoke("service", true); }

}  // namespace
}  // namespace e2e
