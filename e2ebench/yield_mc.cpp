// yield_mc: amplifier::run_yield of the nominal DesignVector against the
// bench_yield goals with the pseudo-random sampler and telemetry off, once
// at one thread and once at min(4, nproc) threads on the same seed.
#include <sched.h>

#include <algorithm>
#include <stdexcept>

#include "amplifier/yield.h"
#include "obs/obs.h"
#include "traced.h"
#include "workloads.h"

namespace e2e {

using namespace gnsslna;

std::size_t parallel_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t nproc = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    nproc = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min<std::size_t>(4, nproc);
}

amplifier::DesignGoals yield_goals() {
  amplifier::DesignGoals goals;
  goals.nf_goal_db = 0.72;
  goals.gain_goal_db = 11.9;
  goals.s11_goal_db = -2.0;
  goals.s22_goal_db = -1.5;
  goals.mu_margin = 1.0;
  return goals;
}

namespace {

bool same_yield(const amplifier::YieldReport& a,
                const amplifier::YieldReport& b) {
  return a.samples == b.samples && a.passes == b.passes &&
         a.failed_evals == b.failed_evals && a.pass_rate == b.pass_rate &&
         a.pass_rate_ci95_lo == b.pass_rate_ci95_lo &&
         a.pass_rate_ci95_hi == b.pass_rate_ci95_hi &&
         a.nf_avg_p95_db == b.nf_avg_p95_db &&
         a.gt_min_p5_db == b.gt_min_p5_db &&
         a.nf_avg_mean_db == b.nf_avg_mean_db &&
         a.gt_min_mean_db == b.gt_min_mean_db &&
         a.nf_avg_min_db == b.nf_avg_min_db &&
         a.nf_avg_max_db == b.nf_avg_max_db &&
         a.gt_min_min_db == b.gt_min_min_db &&
         a.gt_min_max_db == b.gt_min_max_db;
}

/// One run_yield of kYieldSamples trials.
amplifier::YieldReport yield_run(const device::Phemt& dev, std::uint64_t seed,
                                 std::size_t threads) {
  amplifier::YieldOptions options;
  options.threads = threads;
  options.sampler = amplifier::YieldSampler::kPseudoRandom;
  numeric::Rng rng(seed);
  return amplifier::run_yield(dev, amplifier::AmplifierConfig{},
                              amplifier::DesignVector{}, yield_goals(),
                              kYieldSamples, rng, options);
}

/// The same, returning its wall time [s].
double timed_yield(const device::Phemt& dev, std::uint64_t seed,
                   std::size_t threads, amplifier::YieldReport* out) {
  const std::uint64_t t0 = now_ns();
  *out = yield_run(dev, seed, threads);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

void run_yield_mc(const RunOptions& opt, Report& report) {
  obs::set_enabled(false);
  obs::set_deterministic(false);
  const std::size_t threads = parallel_threads();

  // Set-up: reference device, first plan build, one trial.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = i == 0 ? opt.process_start_ns : now_ns();
    const device::Phemt dev = device::Phemt::reference_device();
    amplifier::AmplifierConfig config;
    config.resolve();
    amplifier::YieldTrialEvaluator warm(dev, config, amplifier::DesignVector{});
    (void)warm.evaluate(amplifier::pseudo_trial_draw(
                            numeric::Rng(opt.seed), 0, amplifier::DesignVector{},
                            config.substrate, {}),
                        yield_goals());
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  report.metric("setup_s", summarize(setups).p50, "s", setups.size(),
                "median set-up: device, plan build, one trial");

  const device::Phemt dev = device::Phemt::reference_device();
  std::vector<double> serial_ms, serial_ref, par_per_ref, serial_us, par_us,
      pass_rates;
  double par_total_s = 0.0;
  std::size_t runs = 0, failed = 0, mismatches = 0, degenerate = 0;
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double mean_s = i == 0 ? 0.0 : elapsed / static_cast<double>(i);
    if (i >= 3 && elapsed + mean_s > opt.seconds) break;
    const std::uint64_t seed = derive_seed(opt.seed, i);
    runs += 2;
    amplifier::YieldReport one, par;
    double s1 = 0.0, sp = 0.0, ref1 = 0.0, refp = 0.0;
    try {
      {
        const PinToCpu cpu(i);
        const HeapShuffle layout(seed);
        s1 = 1e-3 * time_against_reference(
                        1, RefPace::kSlowest, &ref1,
                        [&] { one = yield_run(dev, seed, 1); });
      }
      // Four shards of 256 trials, one per thread: the slowest thread ends
      // the run.
      const HeapShuffle layout(~seed);
      sp = 1e-3 * time_against_reference(
                      threads, RefPace::kSlowest, &refp,
                      [&] { par = yield_run(dev, seed, threads); });
    } catch (const std::exception&) {
      failed += 2;
      continue;
    }
    if (!same_yield(one, par)) {
      ++mismatches;
      failed += 2;
    }
    if (!(one.pass_rate > 0.0 && one.pass_rate < 1.0)) ++degenerate;
    const double n = static_cast<double>(kYieldSamples);
    serial_ms.push_back(s1 * 1e3);
    serial_ref.push_back(s1 * 1e3 / ref1);
    par_per_ref.push_back(n / (sp * 1e3 / refp));
    serial_us.push_back(s1 * 1e6 / n);
    par_us.push_back(sp * 1e6 / n);
    par_total_s += sp;
    pass_rates.push_back(one.pass_rate);
  }
  report.attempt(runs, failed);
  report.check(mismatches == 0,
               "1-thread and " + std::to_string(threads) +
                   "-thread YieldReports identical field by field");
  report.check(degenerate == 0, "every pass rate strictly between 0 and 1");

  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.metric("op_p50_ref", summarize(serial_ref).p50, "ref",
                serial_ref.size(),
                "median 1-thread yield run in reference-kernel units");
  report.metric("work_per_ref", summarize(par_per_ref).p50, "1/ref",
                par_per_ref.size(),
                "median samples per reference-kernel time at " +
                    std::to_string(threads) + " threads");
  report.timing("op_p50_ms", "op_tail_ms", serial_ms, "ms");
  report.metric("work_per_s",
                static_cast<double>(par_us.size() * kYieldSamples) / par_total_s,
                "1/s", par_us.size(),
                "samples per second at " + std::to_string(threads) + " threads");
  report.metric("yield_us_per_sample", summarize(serial_us).p50, "us",
                serial_us.size(), "median, 1 thread");
  report.metric("yield_par_us_per_sample", summarize(par_us).p50, "us",
                par_us.size(), "median, " + std::to_string(threads) + " threads");
  report.metric("yield_pass_rate", summarize(pass_rates).p50, "ratio",
                pass_rates.size(), "median");
  report.metric("error_rate",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::size_t>(1, report.attempted)),
                "ratio", report.attempted);
}

// --- Traced replica ------------------------------------------------------------

void traced_yield_mc(const RunOptions& opt, Tracer& tracer, Report& report,
                     TracedValues& values) {
  obs::set_enabled(false);
  const device::Phemt dev = device::Phemt::reference_device();
  const std::uint64_t seed = derive_seed(opt.seed, 0);
  const std::size_t threads = parallel_threads();

  amplifier::YieldReport one, par, traced;
  const double s1 = timed_yield(dev, seed, 1, &one);
  const double sp = timed_yield(dev, seed, threads, &par);

  const std::int64_t root = tracer.open("workload.yield_mc");
  {
    Tracer::Scope s(tracer, "amplifier.run_yield");
    (void)timed_yield(dev, seed, 1, &traced);
  }
  tracer.close(root);
  const Tracer::Span& rs = tracer.spans()[static_cast<std::size_t>(root)];
  values.overhead_yield = static_cast<double>(rs.end - rs.start) * 1e-9 / s1;
  values.coverage_yield =
      1.0 - static_cast<double>(tracer.self_of(static_cast<std::size_t>(root))) /
                static_cast<double>(rs.end - rs.start);
  report.attempt(3, 0);
  report.check(same_yield(one, par) && same_yield(one, traced),
               "traced yield_mc: 1-thread, " + std::to_string(threads) +
                   "-thread and traced YieldReports identical");

  // Replay the run's draws serially through one trial evaluator.
  amplifier::AmplifierConfig config;
  config.resolve();
  numeric::Rng rng(seed);
  const numeric::Rng draws = rng.fork();  // run_yield's root stream
  const amplifier::DesignGoals goals = yield_goals();
  std::size_t passes = 0, failed = 0;
  std::vector<double> trial_us;
  trial_us.reserve(kYieldSamples);
  {
    Tracer::Scope s(tracer, "probe.yield_trial_replay");
    amplifier::YieldTrialEvaluator evaluator(dev, config,
                                             amplifier::DesignVector{});
    for (std::size_t i = 0; i < kYieldSamples; ++i) {
      const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
          draws, i, amplifier::DesignVector{}, config.substrate, {});
      const std::int64_t span = tracer.open("amplifier.yield_trial");
      const amplifier::TrialOutcome o = evaluator.evaluate(draw, goals);
      tracer.close(span);
      const Tracer::Span& t = tracer.spans()[static_cast<std::size_t>(span)];
      trial_us.push_back(static_cast<double>(t.end - t.start) * 1e-3);
      passes += o.pass ? 1 : 0;
      failed += o.failed ? 1 : 0;
    }
  }
  report.check(passes == one.passes && failed == one.failed_evals,
               "serial trial replay reproduces the run's pass and failure "
               "counts");
  report.metric("amplifier.yield_trial_us", summarize(trial_us).mean, "us",
                trial_us.size(), "mean over the run's draws");
  report.metric("amplifier.yield_failed_ratio",
                static_cast<double>(failed) / static_cast<double>(kYieldSamples),
                "ratio", kYieldSamples);
  report.metric("numeric.parallel_efficiency",
                s1 / (static_cast<double>(threads) * sp), "ratio", 1,
                "yield_us_per_sample / (P x yield_par_us_per_sample), P = " +
                    std::to_string(threads));
}

}  // namespace e2e
