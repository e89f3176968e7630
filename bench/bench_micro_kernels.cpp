// Micro-benchmarks (google-benchmark) of the kernels every experiment
// leans on: the analytic FET S-parameter evaluation, the MNA assembly +
// LU solve of the full LNA netlist, the spot noise analysis, one
// optimizer objective evaluation, and the full band-evaluation kernel in
// its optimizer shape (one design parameter moves per point, evaluated
// through the batched evaluation plan).  These bound the cost model used to
// budget the optimization runs.
//
// Extra modes on top of the usual google-benchmark flags:
//   --json <path>   also write {name, iterations, ns/op, bytes/op} records
//                   in the bench_util JSON format (BENCH_kernels.json is a
//                   committed snapshot of this output);
//   --perf-smoke <baseline.json>
//                   skip google-benchmark entirely: time the band-
//                   evaluation kernel directly and exit non-zero when its
//                   time relative to both host-speed references (the FET
//                   kernel and the batched solve) is more than 25% above
//                   the committed rows' ratios.
//                   Setting GNSSLNA_SKIP_PERF_SMOKE skips the check (for
//                   sanitizer builds, loaded CI hosts, foreign machines).
#define GNSSLNA_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <ctime>

#include "amplifier/lna.h"
#include "amplifier/objectives.h"
#include "amplifier/yield.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"
#include "device/phemt.h"
#include "microstrip/line.h"
#include "numeric/rng.h"
#include "obs/obs.h"

namespace {

using namespace gnsslna;

bench::JsonRecorder g_json;

/// Wraps the hot loop: runs `fn` under the benchmark state, counts heap
/// bytes across the whole run, and files one JSON record.
template <typename Fn>
void run_counted(benchmark::State& state, const char* name, Fn&& fn) {
  const std::uint64_t bytes0 = bench::alloc_bytes();
  const std::uint64_t count0 = bench::alloc_count();
  const bench::Stopwatch sw;
  for (auto _ : state) {
    fn();
  }
  const double elapsed_ns = sw.seconds() * 1e9;
  const std::uint64_t bytes = bench::alloc_bytes() - bytes0;
  const std::uint64_t allocs = bench::alloc_count() - count0;
  const double iters =
      state.iterations() > 0 ? static_cast<double>(state.iterations()) : 1.0;
  const double per_op = static_cast<double>(bytes) / iters;
  const double allocs_per_op = static_cast<double>(allocs) / iters;
  state.counters["bytes_per_op"] = per_op;
  state.counters["allocs_per_op"] = allocs_per_op;
  if (g_json.enabled()) {
    // google-benchmark calls each bench several times (calibration +
    // measurement); add() replaces by name, keeping the last (longest) run.
    g_json.add(name, static_cast<std::uint64_t>(state.iterations()),
               elapsed_ns / iters, per_op, allocs_per_op);
  }
}

void BM_FetSParams(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  const device::Bias bias{-0.3, 2.0};
  double f = 1.1e9;
  run_counted(state, "BM_FetSParams", [&] {
    benchmark::DoNotOptimize(dev.s_params(bias, f));
    f = f < 1.7e9 ? f + 1e6 : 1.1e9;
  });
}
BENCHMARK(BM_FetSParams);

void BM_LnaNetlistSParams(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  run_counted(state, "BM_LnaNetlistSParams", [&] {
    benchmark::DoNotOptimize(circuit::s_params(nl, 1.575e9));
  });
}
BENCHMARK(BM_LnaNetlistSParams);

void BM_LnaNoiseAnalysis(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  run_counted(state, "BM_LnaNoiseAnalysis", [&] {
    benchmark::DoNotOptimize(circuit::noise_analysis(nl, 0, 1, 1.575e9));
  });
}
BENCHMARK(BM_LnaNoiseAnalysis);

void BM_DesignObjectiveEvaluation(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const optimize::GoalProblem problem =
      amplifier::make_goal_problem(dev, config, amplifier::DesignGoals{});
  std::vector<double> x = amplifier::DesignVector{}.to_vector();
  run_counted(state, "BM_DesignObjectiveEvaluation", [&] {
    benchmark::DoNotOptimize(problem.objectives(x));
    x[2] += 1e-5;  // defeat the report cache
    if (x[2] > 0.039) x[2] = 0.001;
  });
}
BENCHMARK(BM_DesignObjectiveEvaluation);

/// Advances one microstrip length within its bounds: the optimizer-realistic
/// "next design point" step of the band-evaluation bench.
void step_design(amplifier::DesignVector& d) {
  d.l_in_m += 1e-5;
  if (d.l_in_m > 0.039) d.l_in_m = 0.001;
}

void BM_BandEvaluation(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  // Warm up outside the counted loop: the cold build (netlist closures,
  // plan tabulation, workspace arena) is the ONE place the batched path
  // may allocate, and the first stepped evaluation lazily registers the
  // re-tabulation path's obs counters; allocs_per_op then pins the
  // steady state at exactly 0.
  (void)evaluator.evaluate(d);
  step_design(d);
  (void)evaluator.evaluate(d);
  step_design(d);
  run_counted(state, "BM_BandEvaluation", [&] {
    benchmark::DoNotOptimize(evaluator.evaluate(d));
    step_design(d);
  });
}
BENCHMARK(BM_BandEvaluation);

/// The band evaluation in its design-run shape: every step moves all 12
/// design variables (a differential-evolution move around the nominal
/// design, 2% of each box width, as the end-to-end benchmark's
/// de_step_design draws it), so each evaluation re-extracts the bias and
/// re-tabulates the FET, the four lines and every passive.  Informational
/// (not gated by perf_smoke).
void BM_BandEvaluationDeStep(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  const optimize::Bounds box = amplifier::DesignVector::bounds();
  numeric::Rng rng(20261017u);
  // A ring of feasible moves, drawn and warmed up outside the counted
  // loop (the first pass builds the plan and registers the obs counters).
  std::vector<amplifier::DesignVector> ring;
  while (ring.size() < 64) {
    std::vector<double> x = amplifier::DesignVector{}.to_vector();
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += 0.02 * (box.upper[i] - box.lower[i]) * rng.normal();
    }
    const amplifier::DesignVector d =
        amplifier::DesignVector::from_vector(box.clamp(x));
    try {
      (void)evaluator.evaluate(d);
      ring.push_back(d);
    } catch (const std::exception&) {
      // infeasible bias: not a move the optimizer's evaluations reach
    }
  }
  std::size_t step = 0;
  run_counted(state, "BM_BandEvaluationDeStep", [&] {
    benchmark::DoNotOptimize(evaluator.evaluate(ring[step]));
    step = (step + 1) % ring.size();
  });
}
BENCHMARK(BM_BandEvaluationDeStep);

/// The raw batched kernel: assemble + blocked LU + all three solves over
/// the full 16-lane grid, no retabulation and no figure extraction.  The
/// perf gate uses it as a second normalization reference alongside the
/// FET kernel.
void BM_BatchedSolve(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::LnaDesign lna(dev, config, amplifier::DesignVector{});
  const circuit::Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu_grid = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  circuit::BatchedPlan plan(nl, std::move(grid));
  circuit::EvalWorkspace ws;
  plan.factor(ws, 0, plan.size());  // warm up: commits the arena
  run_counted(state, "BM_BatchedSolve", [&] {
    plan.mark_values_dirty();  // forces re-factorization of every lane
    plan.factor(ws, 0, plan.size());
    plan.solve_ports(ws);
    plan.solve_output_transfer(ws, 1);
    benchmark::DoNotOptimize(ws);
  });
}
BENCHMARK(BM_BatchedSolve);

/// One yield trial through the persistent engine: a pseudo-random draw,
/// a re-stamp of every table the draw moved (a draw moves every tolerated
/// parameter, the board included, so this covers the bias line and tee),
/// and one batched evaluate.
/// This is the per-sample cost of a production Monte-Carlo run; the perf
/// gate pins its ratio to BM_BandEvaluation.
void BM_YieldSampleMc(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignVector nominal;
  amplifier::YieldTrialEvaluator evaluator(dev, config, nominal);
  const amplifier::DesignGoals goals;
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  // Warm up as in BM_BandEvaluation: cold build + one trial for the
  // lazily registered obs counters.
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  (void)evaluator.evaluate(
      amplifier::pseudo_trial_draw(root, trial++, nominal, config.substrate,
                                   {}),
      goals);
  run_counted(state, "BM_YieldSampleMc", [&] {
    const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
        root, trial++, nominal, config.substrate, {});
    benchmark::DoNotOptimize(evaluator.evaluate(draw, goals));
  });
}
BENCHMARK(BM_YieldSampleMc);

/// A comparison baseline, not a production path: a full LnaDesign rebuild
/// per trial (netlist + transient batched plan), as yield trials ran
/// before the persistent engine.  The BM_YieldSampleMc /
/// BM_YieldSampleRebuild ratio is the engine's speedup.
void BM_YieldSampleRebuild(benchmark::State& state) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignVector nominal;
  const amplifier::DesignGoals goals;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  run_counted(state, "BM_YieldSampleRebuild", [&] {
    const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
        root, trial++, nominal, config.substrate, {});
    amplifier::AmplifierConfig cfg = config;
    cfg.substrate = draw.substrate;
    benchmark::DoNotOptimize(
        amplifier::LnaDesign(dev, cfg, draw.design).evaluate(band));
  });
}
BENCHMARK(BM_YieldSampleRebuild);

/// The board step of a yield trial: the dispersion tables of the w50 and
/// bias-width traces on one perturbed board over the 16 plan lanes, in
/// one multi-width Line::tabulate pass, cycling through the boards of
/// 1,024 pseudo trial draws (informational, not gated by perf_smoke).
void BM_BoardTables(benchmark::State& state) {
  amplifier::AmplifierConfig config;
  config.resolve();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu_grid = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  const numeric::Rng root(12345);
  std::vector<microstrip::Substrate> boards;
  for (std::uint64_t trial = 0; trial < 1024; ++trial) {
    boards.push_back(amplifier::pseudo_trial_draw(root, trial,
                                                  amplifier::DesignVector{},
                                                  config.substrate, {})
                         .substrate);
  }
  const std::array<double, 2> widths{config.w50_m, config.w_bias_m};
  std::array<microstrip::Line::PropagationRows, 2> rows;
  microstrip::Line::tabulate(boards[0], widths, grid, rows);  // sizes rows
  std::size_t next = 0;
  run_counted(state, "BM_BoardTables", [&] {
    microstrip::Line::tabulate(boards[next], widths, grid, rows);
    next = (next + 1) % boards.size();
    benchmark::DoNotOptimize(rows);
  });
}
BENCHMARK(BM_BoardTables);

/// Thread CPU time [s]: immune to descheduling on loaded hosts (the gate
/// below also normalizes away frequency scaling via a reference kernel).
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// Thread CPU time [ns] per call over `iters` calls of `op`; adds the
/// heap allocations the calls made to *allocs when non-null.
template <typename Op>
double batch_ns(int iters, Op&& op, std::uint64_t* allocs = nullptr) {
  const std::uint64_t count0 = bench::alloc_count();
  const double t0 = thread_cpu_seconds();
  for (int i = 0; i < iters; ++i) {
    op();
  }
  const double ns = (thread_cpu_seconds() - t0) * 1e9 / iters;
  if (allocs != nullptr) *allocs += bench::alloc_count() - count0;
  return ns;
}

/// The band-evaluation kernel (the BM_BandEvaluation workload), one
/// steady-state yield-engine trial (the BM_YieldSampleMc workload: pseudo
/// draw + full re-stamp + batched evaluate) and the band gate's two
/// host-speed references (the BM_FetSParams and BM_BatchedSolve
/// workloads), timed directly (no google-benchmark) in alternating
/// batches, with the steady-state heap allocations per call (exactly 0 on
/// the batched path).
struct BandAndYieldTimes {
  double band_ns = 1e300;      ///< fastest of the first 5 band batches
  double band_allocs_per_op = 0.0;
  double yield_ns = 1e300;     ///< fastest of the first 5 yield batches
  double yield_ratio = 0.0;    ///< median per-alternation yield/band ratio
  double yield_allocs_per_op = 0.0;
  double fet_ratio = 0.0;      ///< median per-alternation band/FET ratio
  double batched_ratio = 0.0;  ///< median per-alternation band/solve ratio
};

/// The median of `v` (odd size).
template <std::size_t N>
double median_of(std::array<double, N> v) {
  std::nth_element(v.begin(), v.begin() + N / 2, v.end());
  return v[N / 2];
}

/// The four kernels' batches alternate, and each ratio gate reads the
/// median over 15 alternations of one batch over the batch beside it: a
/// change of host speed moves both terms of one ratio alike, and the
/// median ignores the few ratios a speed change straddles, where a ratio
/// of two minima (or of batches timed seconds apart) swings with
/// whichever kernel caught the fastest stretch.
BandAndYieldTimes time_band_and_yield() {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  evaluator.evaluate(d);  // warm up: builds netlist + plan
  // One stepped warm-up evaluation: the first pass through the
  // re-tabulation path lazily registers its obs counters
  // (function-local statics), a one-time allocation that is not part of
  // the steady-state zero-alloc contract being measured.
  step_design(d);
  (void)evaluator.evaluate(d);

  amplifier::AmplifierConfig yield_config;
  yield_config.resolve();
  const amplifier::DesignVector nominal;
  amplifier::YieldTrialEvaluator trials(dev, yield_config, nominal);
  const amplifier::DesignGoals goals;
  const numeric::Rng root(12345);
  std::uint64_t trial = 0;
  const auto next_trial = [&] {
    (void)trials.evaluate(
        amplifier::pseudo_trial_draw(root, trial++, nominal,
                                     yield_config.substrate, {}),
        goals);
  };
  next_trial();  // warm up as in BM_YieldSampleMc: cold build + counters
  next_trial();

  // The host-speed references: the analytic FET S-parameter kernel,
  // which the batched plan does not touch, and the raw batched
  // assemble + factor + solve kernel the band path rides on.
  const device::Bias fet_bias{-0.3, 2.0};
  double fet_f = 1.1e9;
  rf::SParams fet_sink{};
  const auto fet_call = [&] {
    fet_sink = dev.s_params(fet_bias, fet_f);
    fet_f = fet_f < 1.7e9 ? fet_f + 1e6 : 1.1e9;
  };
  amplifier::AmplifierConfig solve_config;
  solve_config.resolve();
  const amplifier::LnaDesign lna(dev, solve_config, amplifier::DesignVector{});
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu_grid = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  circuit::BatchedPlan plan(lna.build_netlist(), std::move(grid));
  circuit::EvalWorkspace ws;
  plan.factor(ws, 0, plan.size());  // warm up: commits the arena
  const auto solve_call = [&] {
    plan.mark_values_dirty();
    plan.factor(ws, 0, plan.size());
    plan.solve_ports(ws);
    plan.solve_output_transfer(ws, 1);
  };

  constexpr int kAlternations = 15, kMinBatches = 5;
  constexpr int kBandIters = 400, kYieldIters = 300;
  constexpr int kFetIters = 4000, kSolveIters = 150;
  BandAndYieldTimes t;
  std::array<double, kAlternations> yield_ratios{}, fet_ratios{},
      batched_ratios{};
  std::uint64_t band_allocs = 0, yield_allocs = 0;
  for (int a = 0; a < kAlternations; ++a) {
    const double band_ns = batch_ns(kBandIters, [&] {
      step_design(d);
      (void)evaluator.evaluate(d);
    }, &band_allocs);
    const double yield_ns = batch_ns(kYieldIters, next_trial, &yield_allocs);
    const double fet_ns = batch_ns(kFetIters, fet_call);
    const double solve_ns = batch_ns(kSolveIters, solve_call);
    yield_ratios[a] = yield_ns / band_ns;
    fet_ratios[a] = band_ns / fet_ns;
    batched_ratios[a] = band_ns / solve_ns;
    if (a < kMinBatches) {
      t.band_ns = std::min(t.band_ns, band_ns);
      t.yield_ns = std::min(t.yield_ns, yield_ns);
    }
  }
  // Defeat dead-code elimination of the FET timing loop.
  if (fet_sink.frequency_hz < 0.0) std::printf("impossible\n");
  t.yield_ratio = median_of(yield_ratios);
  t.fet_ratio = median_of(fet_ratios);
  t.batched_ratio = median_of(batched_ratios);
  t.band_allocs_per_op =
      static_cast<double>(band_allocs) / (kAlternations * kBandIters);
  t.yield_allocs_per_op =
      static_cast<double>(yield_allocs) / (kAlternations * kYieldIters);
  return t;
}

/// On a perf_smoke failure: re-run a short instrumented batch of the band
/// kernel and print the per-stage evaluation-path counters, so the report
/// says WHICH stage regressed (LU churn? stamp re-tabulation? cache
/// misses?) instead of just "slower".  Runs after the timing pass so the
/// telemetry cannot perturb the measurement.
void print_band_counter_deltas() {
  if (!obs::compiled_in()) {
    std::fprintf(stderr,
                 "[perf_smoke] (telemetry compiled out; rebuild with "
                 "-DGNSSLNA_OBS=ON for per-stage counters)\n");
    return;
  }
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  amplifier::BandEvaluator evaluator(dev, config);
  amplifier::DesignVector d;
  evaluator.evaluate(d);  // warm up: builds netlist + plan
  const std::vector<obs::CounterValue> before = obs::counter_snapshot();
  constexpr int kIters = 8;
  for (int i = 0; i < kIters; ++i) {
    step_design(d);
    (void)evaluator.evaluate(d);
  }
  const std::vector<obs::CounterValue> after = obs::counter_snapshot();
  obs::set_enabled(was_enabled);
  std::fprintf(stderr,
               "[perf_smoke] evaluation-path counters over %d instrumented "
               "band evaluations:\n",
               kIters);
  for (const obs::CounterValue& c : obs::counter_delta(after, before)) {
    if (c.value == 0) continue;
    std::fprintf(stderr, "  %-40s %8llu  (%.1f per evaluation)\n",
                 c.name.c_str(), static_cast<unsigned long long>(c.value),
                 static_cast<double>(c.value) / kIters);
  }
}

int perf_smoke(const std::string& baseline_path) {
  if (std::getenv("GNSSLNA_SKIP_PERF_SMOKE") != nullptr) {
    std::printf("[perf_smoke] skipped (GNSSLNA_SKIP_PERF_SMOKE set)\n");
    return 0;
  }
  const auto entries = bench::load_bench_json(baseline_path);
  const double baseline_ns =
      bench::bench_json_ns(entries, "BM_BandEvaluation");
  const double baseline_ref_ns =
      bench::bench_json_ns(entries, "BM_FetSParams");
  if (baseline_ns <= 0.0 || baseline_ref_ns <= 0.0) {
    std::fprintf(stderr,
                 "[perf_smoke] missing BM_BandEvaluation/BM_FetSParams "
                 "entries in %s\n",
                 baseline_path.c_str());
    return 1;
  }
  const double baseline_allocs = bench::bench_json_ns(
      bench::load_bench_json_field(baseline_path, "allocs_per_op"),
      "BM_BandEvaluation");
  const BandAndYieldTimes band_and_yield = time_band_and_yield();
  const double now_allocs = band_and_yield.band_allocs_per_op;
  const double now_ns = band_and_yield.band_ns;
  // The band gate compares the band kernel against two in-process
  // references — the analytic FET kernel (untouched by the evaluation
  // plan) and the raw batched solve (the core the band path rides on),
  // each as the median of per-alternation ratios — so a uniformly slower
  // (or faster) host cancels out; only a regression of the band kernel
  // itself moves both ratios, and it fails when both exceed 1.25x their
  // committed ratios.  The absolute time is printed for context only: it
  // carries the host speed of the session that recorded the rows.
  const double ratio = band_and_yield.fet_ratio;
  const double ratio_limit = 1.25 * baseline_ns / baseline_ref_ns;
  const double baseline_batched_ns =
      bench::bench_json_ns(entries, "BM_BatchedSolve");
  const double batched_ratio = band_and_yield.batched_ratio;
  const double batched_ratio_limit =
      baseline_batched_ns > 0.0 ? 1.25 * baseline_ns / baseline_batched_ns
                                : 1e300;
  std::printf("[perf_smoke] band evaluation: %.0f ns/op (committed row "
              "%.0f, not gated)\n",
              now_ns, baseline_ns);
  std::printf("[perf_smoke] band evaluation vs FET reference kernel (median "
              "of 15 alternations): %.0fx (limit %.0fx); vs batched-solve "
              "kernel (median of 15): %.1fx (limit %.1fx)\n",
              ratio, ratio_limit, batched_ratio, batched_ratio_limit);
  const bool time_regressed =
      ratio > ratio_limit && batched_ratio > batched_ratio_limit;
  // Yield-engine per-sample gate: the cost of one yield trial is pinned
  // as a RATIO to the band-evaluation kernel measured in the same
  // process, as the median of per-alternation ratios, so host speed
  // cancels; the baseline ratio comes from the committed BM_YieldSampleMc
  // / BM_BandEvaluation entries.  Skipped (with a note) against baselines
  // that predate the yield engine.
  bool yield_regressed = false;
  const double baseline_yield_ns =
      bench::bench_json_ns(entries, "BM_YieldSampleMc");
  if (baseline_yield_ns > 0.0) {
    const double yield_allocs = band_and_yield.yield_allocs_per_op;
    const double yield_ns = band_and_yield.yield_ns;
    const double yield_ratio = band_and_yield.yield_ratio;
    const double yield_ratio_limit = 1.25 * baseline_yield_ns / baseline_ns;
    const double baseline_yield_allocs = bench::bench_json_ns(
        bench::load_bench_json_field(baseline_path, "allocs_per_op"),
        "BM_YieldSampleMc");
    std::printf("[perf_smoke] yield sample: %.0f ns/op; vs band evaluation "
                "(median of 15 alternations): %.2fx (limit %.2fx); "
                "steady-state allocs/op %.3f "
                "(baseline %.3f)\n",
                yield_ns, yield_ratio, yield_ratio_limit, yield_allocs,
                baseline_yield_allocs);
    yield_regressed = yield_ratio > yield_ratio_limit ||
                      (baseline_yield_allocs >= 0.0 &&
                       yield_allocs > baseline_yield_allocs);
    if (yield_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: yield-engine per-sample cost "
                   "regressed vs the band-evaluation kernel (or its "
                   "steady-state allocations grew)\n");
    }
  } else {
    std::printf(
        "[perf_smoke] (no BM_YieldSampleMc baseline; yield gate skipped)\n");
  }
  // Steady-state allocation regression: the batched path promises exactly
  // zero; any nonzero count against a zero baseline is a hard failure
  // regardless of timing noise.
  const bool allocs_regressed =
      baseline_allocs >= 0.0 && now_allocs > baseline_allocs;
  if (time_regressed || allocs_regressed || yield_regressed) {
    if (time_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: band-evaluation kernel regressed "
                   ">25%% vs committed baseline (both host-normalized "
                   "references)\n");
    }
    if (allocs_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: steady-state heap allocations "
                   "regressed: %.3f allocs/op vs baseline %.3f\n",
                   now_allocs, baseline_allocs);
    }
    std::fprintf(stderr,
                 "[perf_smoke] allocs_per_op: now %.3f, baseline %.3f\n",
                 now_allocs, baseline_allocs);
    print_band_counter_deltas();
    return 1;
  }
  std::printf("[perf_smoke] OK (steady-state allocs/op: %.3f)\n", now_allocs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out our own flags before google-benchmark sees the command line.
  std::vector<char*> args;
  std::string json_path, smoke_baseline;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf-smoke") == 0) {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') smoke_baseline = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke) {
    return perf_smoke(smoke_baseline.empty() ? "BENCH_kernels.json"
                                             : smoke_baseline);
  }
  g_json = bench::JsonRecorder(json_path);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  if (g_json.enabled()) g_json.write();
  return 0;
}
