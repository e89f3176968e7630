// Service-layer benchmark: scheduler throughput and end-to-end job
// latency for the design-as-a-service server (src/service/).
//
// Measures three numbers:
//
//   1. Mixed-traffic throughput: a deterministic evaluate/sweep-heavy mix
//      (the load_gen.cpp distribution) pushed through the scheduler at
//      full admission, jobs per second across --threads workers.
//   2. Single-job round trip: one evaluate job submitted and awaited in a
//      closed loop — queueing + dispatch + plan-cache lease + evaluation.
//   3. Server-side p99: the log2-microsecond obs latency histogram the
//      stats op exports, after the mixed run.
//
//   --json <path>   write bench_util schema-v2 records:
//                     BM_ServiceMixedJob      ns per job, mixed traffic
//                     BM_ServiceEvaluateJob   ns per closed-loop evaluate
//                     BM_ServiceLatencyP99    p99 in ns (from the obs
//                                             histogram upper bound)
//   --count <n>     mixed jobs (default 512)
//   --threads <n>   scheduler workers (default 0 = all hardware threads)
//   --perf-smoke [baseline.json]
//                   regression gate instead of the report: the mixed-job
//                   cost with full observability (metrics + histograms +
//                   flight + per-job traces) must stay within 3% of the
//                   same mix with obs disabled (best-of-3, alternating
//                   passes so host drift cancels), and — when a baseline
//                   with BM_ServiceMixedJob / BM_ServiceEvaluateJob is
//                   given — the mixed/evaluate ratio must stay within
//                   1.25x of the committed ratio (host-normalized, both
//                   sides measured in this process).  Skip with
//                   GNSSLNA_SKIP_PERF_SMOKE=1.
#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "numeric/rng.h"
#include "obs/obs.h"
#include "service/jobs.h"
#include "service/json.h"
#include "service/scheduler.h"

namespace {

using namespace gnsslna;
using service::Json;

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// The load_gen.cpp mix, minus the slow optimizer tail: evaluations over
/// several designs/configs (plan-cache churn) and small sweeps.
std::pair<std::string, std::string> mixed_request(const numeric::Rng& root,
                                                  std::size_t i) {
  numeric::Rng rng = root.split(i);
  char buf[256];
  if (rng.uniform() < 0.8) {
    std::snprintf(buf, sizeof buf,
                  R"({"design":{"vgs":%.4f,"vds":%.3f},)"
                  R"("config":{"t_ambient_k":%g}})",
                  rng.uniform(-0.45, -0.25), rng.uniform(2.0, 3.0),
                  rng.bernoulli(0.3) ? 310.0 : 290.0);
    return {"evaluate", buf};
  }
  std::snprintf(buf, sizeof buf,
                R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":%llu})",
                static_cast<unsigned long long>(5 + rng.uniform_index(12)));
  return {"sweep", buf};
}

Json parse(const std::string& text) {
  Json doc;
  Json::parse(text, &doc);
  return doc;
}

/// One saturating mixed-traffic pass (same distribution as the report
/// mode): fresh scheduler over a shared plan cache, warm job outside the
/// timed region, returns wall ns/job.  Telemetry cost rides on whatever
/// obs::enabled() currently is — the perf-smoke gate flips that flag
/// between passes.
double mixed_pass_ns(std::size_t count, std::size_t threads,
                     service::PlanCache* cache) {
  service::SchedulerOptions options;
  options.workers = threads;
  options.queue_capacity = 4096;
  options.max_queued_per_client = 4096;
  service::Scheduler scheduler(options, cache);
  const numeric::Rng root(42);
  scheduler.submit("warm", "evaluate", parse("{}"))->wait();

  std::vector<service::Scheduler::TicketPtr> tickets;
  tickets.reserve(count);
  const double t0 = wall_seconds();
  for (std::size_t i = 0; i < count; ++i) {
    const auto [type, params] = mixed_request(root, i);
    auto t = scheduler.submit("bench", type, parse(params));
    if (t != nullptr) tickets.push_back(std::move(t));
  }
  for (const auto& t : tickets) (void)t->wait();
  const double wall = wall_seconds() - t0;
  scheduler.shutdown();
  return wall * 1e9 / static_cast<double>(tickets.size());
}

/// Closed-loop evaluate round trip, ns/job (the in-process normalizer for
/// the baseline ratio check).
double evaluate_pass_ns(std::size_t threads) {
  service::SchedulerOptions options;
  options.workers = threads;
  service::PlanCache cache;
  service::Scheduler scheduler(options, &cache);
  scheduler.submit("warm", "evaluate", parse("{}"))->wait();
  const int iters = 200;
  const double t0 = wall_seconds();
  for (int i = 0; i < iters; ++i) {
    scheduler.submit("bench", "evaluate", parse("{}"))->wait();
  }
  const double ns = (wall_seconds() - t0) * 1e9 / iters;
  scheduler.shutdown();
  return ns;
}

/// Observability-overhead regression gate (see the file comment).
int perf_smoke(const std::string& baseline_path) {
  if (std::getenv("GNSSLNA_SKIP_PERF_SMOKE") != nullptr) {
    std::printf("[perf_smoke] skipped (GNSSLNA_SKIP_PERF_SMOKE set)\n");
    return 0;
  }
  const std::size_t count = 256;
  const std::size_t threads = 2;
  constexpr double kOverheadLimit = 1.03;

  // Alternate off/on passes over one shared warmed plan cache (so every
  // timed pass is steady-state service, not plan builds) and keep the best
  // of each: the minima converge to each mode's noise-free floor, and
  // interleaving means a host that speeds up or slows down mid-run biases
  // both sides equally.
  service::PlanCache cache;
  double best_off = 1e300;
  double best_on = 1e300;
  double best_paired = 1e300;
  for (int round = 0; round < 8; ++round) {
    obs::set_enabled(false);
    const double off = mixed_pass_ns(count, threads, &cache);
    obs::set_enabled(true);
    const double on = mixed_pass_ns(count, threads, &cache);
    best_off = std::min(best_off, off);
    best_on = std::min(best_on, on);
    // Adjacent passes share the host's weather; their ratio is immune to
    // drift slower than one round.
    best_paired = std::min(best_paired, on / off);
  }
  // Two estimators, take the lower: floor ratio (needs both modes to hit
  // their floor in the same process) and best paired round (needs one
  // clean round).  A genuine regression inflates every round, so both.
  const double overhead = std::min(best_on / best_off, best_paired);
  std::printf("[perf_smoke] mixed job: %.0f ns/op obs-off, %.0f ns/op "
              "obs-on -> observability overhead %.3fx (best paired round "
              "%.3fx, limit %.2fx)\n",
              best_off, best_on, overhead, best_paired, kOverheadLimit);
  bool failed = false;
  if (overhead > kOverheadLimit) {
    std::fprintf(stderr,
                 "[perf_smoke] FAIL: full observability costs more than "
                 "%.0f%% on the mixed-traffic path\n",
                 100.0 * (kOverheadLimit - 1.0));
    failed = true;
  }

  // Host-normalized baseline check: the mixed/evaluate ratio is a pure
  // shape of the service path (both sides measured here, obs on), so a
  // uniformly slower host cancels; only added per-job service work moves
  // it.  Skipped with a note against baselines that predate the service
  // bench.
  if (!baseline_path.empty()) {
    const auto entries = bench::load_bench_json(baseline_path);
    const double base_mixed = bench::bench_json_ns(entries, "BM_ServiceMixedJob");
    const double base_eval =
        bench::bench_json_ns(entries, "BM_ServiceEvaluateJob");
    if (base_mixed > 0.0 && base_eval > 0.0) {
      const double now_eval = evaluate_pass_ns(threads);
      const double ratio = best_on / now_eval;
      const double ratio_limit = 1.25 * base_mixed / base_eval;
      std::printf("[perf_smoke] mixed vs closed-loop evaluate: %.2fx "
                  "(limit %.2fx from committed baseline)\n",
                  ratio, ratio_limit);
      if (ratio > ratio_limit) {
        std::fprintf(stderr,
                     "[perf_smoke] FAIL: mixed-job cost regressed >25%% vs "
                     "the committed BM_ServiceMixedJob/BM_ServiceEvaluateJob "
                     "ratio\n");
        failed = true;
      }
    } else {
      std::printf("[perf_smoke] (no BM_ServiceMixedJob baseline; "
                  "ratio gate skipped)\n");
    }
  }
  if (!failed) std::printf("[perf_smoke] OK\n");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t count = 512;
  std::size_t threads = 0;
  bool smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--count" && i + 1 < argc) {
      count = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--perf-smoke") {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json path] [--count n] [--threads n] "
                   "[--perf-smoke [baseline.json]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) return perf_smoke(baseline_path);
  obs::set_enabled(true);
  obs::reset();
  bench::JsonRecorder json(json_path);

  service::SchedulerOptions options;
  options.workers = threads;
  options.queue_capacity = 4096;
  options.max_queued_per_client = 4096;

  // 1. Mixed throughput at saturation.
  double mixed_ns = 0.0;
  {
    service::PlanCache cache;
    service::Scheduler scheduler(options, &cache);
    const numeric::Rng root(42);
    // Warm the plan cache and the lazily built reference device tables so
    // the timed region measures steady-state service, not cold start.
    scheduler.submit("warm", "evaluate", parse("{}"))->wait();

    std::vector<service::Scheduler::TicketPtr> tickets;
    tickets.reserve(count);
    const double t0 = wall_seconds();
    for (std::size_t i = 0; i < count; ++i) {
      const auto [type, params] = mixed_request(root, i);
      auto t = scheduler.submit("bench", type, parse(params));
      if (t != nullptr) tickets.push_back(std::move(t));
    }
    std::size_t ok = 0;
    for (const auto& t : tickets) {
      if (t->wait().status == "ok") ++ok;
    }
    const double wall = wall_seconds() - t0;
    mixed_ns = wall * 1e9 / static_cast<double>(tickets.size());
    std::printf(
        "== service: mixed traffic, %zu workers ==\n"
        "  %zu jobs (%zu ok) in %.2f s  ->  %.0f jobs/s  (%.0f us/job)\n",
        scheduler.workers(), tickets.size(), ok, wall,
        static_cast<double>(tickets.size()) / wall, mixed_ns / 1e3);
    json.add("BM_ServiceMixedJob", tickets.size(), mixed_ns);
    scheduler.shutdown();
  }

  // 2. Closed-loop single evaluate round trip (dispatch overhead + job).
  {
    service::PlanCache cache;
    service::Scheduler scheduler(options, &cache);
    scheduler.submit("warm", "evaluate", parse("{}"))->wait();
    const int iters = 200;
    const double t0 = wall_seconds();
    for (int i = 0; i < iters; ++i) {
      scheduler.submit("bench", "evaluate", parse("{}"))->wait();
    }
    const double ns = (wall_seconds() - t0) * 1e9 / iters;
    std::printf("  closed-loop evaluate: %.0f us/job\n", ns / 1e3);
    json.add("BM_ServiceEvaluateJob", iters, ns);
    scheduler.shutdown();
  }

  // 3. Server-side percentile export: interpolated midpoints of the
  //    service.job_latency_us histogram (the latency SLOs' source).
  const Json stats = service::service_stats_json();
  const double p50_us = stats.number_at("latency_p50_us", 0);
  const double p99_us = stats.number_at("latency_p99_us", 0);
  std::printf("  obs histogram over %lld jobs: p50 %.0f us, p99 %.0f us\n",
              static_cast<long long>(stats.number_at("latency_jobs", 0)),
              p50_us, p99_us);
  json.add("BM_ServiceLatencyP99",
           static_cast<std::uint64_t>(stats.number_at("latency_jobs", 0)),
           p99_us * 1e3);

  if (json.enabled()) json.write();
  return 0;
}
