// Production-scale yield-engine benchmark.
//
// Measures the three numbers the yield engine is sold on:
//
//   1. Per-sample cost: one persistent-engine trial (re-stamp + batched
//      evaluate) vs a full per-trial LnaDesign rebuild (netlist + transient
//      batched plan per trial).
//   2. Steady-state allocations per trial (contract: exactly 0).
//   3. Throughput at scale: a full run_yield() at --samples (default
//      65536; pass --samples 1000000 for the acceptance run) with both
//      samplers, wall-clock timed across --threads workers.
//
// Also emits the MC-vs-QMC convergence comparison: pass rate and Wilson
// 95% CI width at every power-of-two sample count, printed as a table and
// optionally written as CSV (--trace-csv), the source of the
// EXPERIMENTS.md yield-convergence table.
//
//   --json <path>       write bench_util schema-v2 records
//   --samples <n>       trials for the at-scale runs (default 65536)
//   --threads <n>       worker threads (default 0 = all hardware threads)
//   --trace-csv <path>  write the convergence table as CSV
#define GNSSLNA_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <cinttypes>
#include <ctime>
#include <string>
#include <vector>

#include "amplifier/yield.h"
#include "device/phemt.h"
#include "obs/trace.h"

namespace {

using namespace gnsslna;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

amplifier::AmplifierConfig resolved_config() {
  amplifier::AmplifierConfig config;
  config.resolve();
  return config;
}

/// Goals a hair looser than the paper-nominal DesignVector performance
/// (NF_avg 0.68 dB, GT_min 12.19 dB, S11 -2.6 dB, S22 -2.0 dB, mu 1.095),
/// so the nominal passes but tolerance draws produce an interesting
/// (non-degenerate) pass rate.
amplifier::DesignGoals bench_goals() {
  amplifier::DesignGoals goals;
  goals.nf_goal_db = 0.72;
  goals.gain_goal_db = 11.9;
  goals.s11_goal_db = -2.0;
  goals.s22_goal_db = -1.5;
  goals.mu_margin = 1.0;
  return goals;
}

/// Serial per-trial cost of the persistent engine, min-of-3 batches, with
/// steady-state allocations per trial.
double time_engine_sample_ns(double* allocs_per_op) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config = resolved_config();
  const amplifier::DesignVector nominal;
  amplifier::YieldTrialEvaluator evaluator(dev, config, nominal);
  const amplifier::DesignGoals goals = bench_goals();
  const numeric::Rng root(2024);
  std::uint64_t trial = 0;
  // Warm-up: cold build + lazy obs-counter registration.
  for (int i = 0; i < 2; ++i) {
    (void)evaluator.evaluate(
        amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                     {}),
        goals);
  }
  double best = 1e300;
  std::uint64_t allocs = 0, iters_total = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 300;
    const std::uint64_t count0 = bench::alloc_count();
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
          root, trial++, nominal, config.substrate, {});
      (void)evaluator.evaluate(draw, goals);
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
    allocs += bench::alloc_count() - count0;
    iters_total += iters;
  }
  *allocs_per_op =
      static_cast<double>(allocs) / static_cast<double>(iters_total);
  return best;
}

/// Serial per-trial cost of a full LnaDesign rebuild, a comparison
/// baseline that no production path takes: the rebuilt design still
/// evaluates through the batched core, so this isolates what plan reuse
/// buys.
double time_rebuild_sample_ns() {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config = resolved_config();
  const amplifier::DesignVector nominal;
  const amplifier::DesignGoals goals = bench_goals();
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const numeric::Rng root(2024);
  std::uint64_t trial = 0;
  double best = 1e300;
  for (int batch = 0; batch < 3; ++batch) {
    const int iters = 40;
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < iters; ++i) {
      const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
          root, trial++, nominal, config.substrate, {});
      amplifier::AmplifierConfig cfg = config;
      cfg.substrate = draw.substrate;
      volatile double sink =
          amplifier::LnaDesign(dev, cfg, draw.design).evaluate(band).nf_avg_db;
      (void)sink;
      (void)goals;
    }
    best = std::min(best, (thread_cpu_seconds() - t0) * 1e9 / iters);
  }
  return best;
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

struct RunResult {
  amplifier::YieldReport report;
  std::vector<obs::TraceRecord> trace;
  double wall_s = 0.0;
};

RunResult run_at_scale(amplifier::YieldSampler sampler, std::size_t samples,
                       std::size_t threads) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config = resolved_config();
  amplifier::YieldOptions options;
  options.sampler = sampler;
  options.threads = threads;
  RunResult result;
  options.trace = [&](const obs::TraceRecord& r) {
    result.trace.push_back(r);
  };
  numeric::Rng rng(777);
  const double t0 = wall_seconds();
  result.report = amplifier::run_yield(dev, config, amplifier::DesignVector{},
                                       bench_goals(), samples, rng, options);
  result.wall_s = wall_seconds() - t0;
  return result;
}

void print_report(const char* label, const RunResult& r, std::size_t samples) {
  const amplifier::YieldReport& rep = r.report;
  std::printf(
      "  %-5s %9zu samples in %7.2f s  (%8.2f us/sample wall)\n"
      "        pass rate %.4f  [%.4f, %.4f] (Wilson 95%%), "
      "failed evals %zu\n"
      "        NF p95 %.3f dB  GTmin p5 %.2f dB\n",
      label, samples, r.wall_s, r.wall_s * 1e6 / static_cast<double>(samples),
      rep.pass_rate, rep.pass_rate_ci95_lo, rep.pass_rate_ci95_hi,
      rep.failed_evals, rep.nf_avg_p95_db, rep.gt_min_p5_db);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, csv_path;
  std::size_t samples = 65536;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--samples" && i + 1 < argc) {
      samples = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--trace-csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--samples n] [--threads n] [--json path] "
                   "[--trace-csv path]\n",
                   argv[0]);
      return 2;
    }
  }
  bench::JsonRecorder json(json_path);

  std::printf("== yield engine: per-sample cost (serial) ==\n");
  double engine_allocs = -1.0;
  const double engine_ns = time_engine_sample_ns(&engine_allocs);
  const double rebuild_ns = time_rebuild_sample_ns();
  const double speedup = rebuild_ns / engine_ns;
  std::printf(
      "  engine            %10.0f ns/sample  "
      "(%.3f allocs/sample steady-state)\n"
      "  rebuild (batched) %10.0f ns/sample  -> %5.1fx\n",
      engine_ns, engine_allocs, rebuild_ns, speedup);
  json.add("YieldSampleEngine", 900, engine_ns, -1.0, engine_allocs);
  json.add("YieldSampleRebuild", 120, rebuild_ns);

  std::printf("\n== yield at scale: %zu samples, %zu threads ==\n", samples,
              threads);
  const RunResult mc =
      run_at_scale(amplifier::YieldSampler::kPseudoRandom, samples, threads);
  print_report("MC", mc, samples);
  const RunResult qmc =
      run_at_scale(amplifier::YieldSampler::kSobol, samples, threads);
  print_report("QMC", qmc, samples);
  json.add("YieldRunMc", samples,
           mc.wall_s * 1e9 / static_cast<double>(samples));
  json.add("YieldRunQmc", samples,
           qmc.wall_s * 1e9 / static_cast<double>(samples));

  std::printf(
      "\n== MC vs QMC convergence (pass rate, Wilson 95%% CI width) ==\n"
      "  %9s  %10s %9s  %10s %9s\n",
      "samples", "MC rate", "CI width", "QMC rate", "CI width");
  const std::size_t rows = std::min(mc.trace.size(), qmc.trace.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("  %9zu  %10.4f %9.4f  %10.4f %9.4f\n",
                mc.trace[i].evaluations, mc.trace[i].best_value,
                mc.trace[i].attainment, qmc.trace[i].best_value,
                qmc.trace[i].attainment);
  }
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "samples,mc_pass_rate,mc_ci_width,qmc_pass_rate,"
                 "qmc_ci_width\n");
    for (std::size_t i = 0; i < rows; ++i) {
      std::fprintf(f, "%zu,%.6f,%.6f,%.6f,%.6f\n", mc.trace[i].evaluations,
                   mc.trace[i].best_value, mc.trace[i].attainment,
                   qmc.trace[i].best_value, qmc.trace[i].attainment);
    }
    std::fclose(f);
    std::printf("  (written to %s)\n", csv_path.c_str());
  }

  if (json.enabled()) json.write();
  return 0;
}
