// Pins the committed BENCH_*.json baselines to the current bench results
// schema, and exercises the validator/reader round trip.  Deliberately does
// NOT define GNSSLNA_BENCH_COUNT_ALLOCS: that macro injects program-wide
// operator new replacements and belongs to exactly one executable (the
// bench binary), never the test suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace gnsslna {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

TEST(BenchSchema, CommittedKernelBaselineMatchesCurrentSchema) {
  const std::string path = std::string(GNSSLNA_SOURCE_DIR) +
                           "/BENCH_kernels.json";
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "missing committed baseline: " << path;
  std::string error;
  EXPECT_TRUE(bench::validate_bench_json(text, &error)) << error;
}

TEST(BenchSchema, CommittedBaselineHasTheGateKernel) {
  // perf_smoke reads its recorded ratios from the perf_smoke.* rows; the
  // baseline must carry them, and the FET kernel's informational row.
  const std::string path = std::string(GNSSLNA_SOURCE_DIR) +
                           "/BENCH_kernels.json";
  const auto entries = bench::load_bench_json(path);
  EXPECT_GT(bench::bench_json_ns(entries, "BM_FetSParams"), 0.0);
  for (const char* row :
       {"perf_smoke.band_over_fet", "perf_smoke.band_over_solve",
        "perf_smoke.yield_over_band"}) {
    EXPECT_GT(bench::bench_json_ns(entries, row), 0.0) << row;
  }
}

TEST(BenchSchema, RecorderOutputValidatesAndReadsBack) {
  const std::string path = ::testing::TempDir() + "bench_schema_rt.json";
  bench::JsonRecorder recorder(path);
  recorder.add("BM_One", 1000, 42.5, 128.0, 3.25);
  recorder.add("BM_Two", 10, 9999.0);
  ASSERT_TRUE(recorder.write());

  std::string error;
  EXPECT_TRUE(bench::validate_bench_json(slurp(path), &error)) << error;
  const auto entries = bench::load_bench_json(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(bench::bench_json_ns(entries, "BM_One"), 42.5);
  EXPECT_DOUBLE_EQ(bench::bench_json_ns(entries, "BM_Two"), 9999.0);
  std::remove(path.c_str());
}

TEST(BenchSchema, ValidatorRejectsStaleSchemaAndMissingKeys) {
  std::string error;
  EXPECT_FALSE(bench::validate_bench_json("{}", &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);

  const std::string stale =
      "{\"schema_version\": 1, \"benchmarks\": ["
      "{\"name\": \"BM_X\", \"iterations\": 1, \"ns_per_op\": 1.0, "
      "\"bytes_per_op\": -1.0}]}";
  EXPECT_FALSE(bench::validate_bench_json(stale, &error));

  const std::string missing_key =
      "{\"schema_version\": 2, \"benchmarks\": ["
      "{\"name\": \"BM_X\", \"iterations\": 1, \"ns_per_op\": 1.0, "
      "\"bytes_per_op\": -1.0, \"allocs_per_op\": -1.0}]}";
  EXPECT_FALSE(bench::validate_bench_json(missing_key, &error));
  EXPECT_NE(error.find("peak_rss_kb"), std::string::npos);

  const std::string empty = "{\"schema_version\": 2, \"benchmarks\": []}";
  EXPECT_FALSE(bench::validate_bench_json(empty, &error));
  EXPECT_NE(error.find("no benchmark records"), std::string::npos);
}

TEST(BenchSchema, PeakRssIsReportedOnThisPlatform) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(bench::peak_rss_kb(), 0.0);
#else
  GTEST_SKIP() << "peak RSS not available on this platform";
#endif
}

}  // namespace
}  // namespace gnsslna
