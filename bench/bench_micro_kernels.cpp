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
//                   time relative to the two host-speed references (the
//                   FET kernel and the batched solve) is on average more
//                   than 15% above the committed gate rows (perf_smoke.*,
//                   recorded by the same estimator), or when the gate
//                   cannot detect its positive control (the band pass
//                   repeated on every third call).
//                   Setting GNSSLNA_SKIP_PERF_SMOKE skips the check (for
//                   sanitizer builds, loaded CI hosts, foreign machines).
//   --perf-smoke --record <out.json>
//                   run the gate's estimator once and write its ratios as
//                   the perf_smoke.* rows (the ratio in ns_per_op); the
//                   committed rows are the median of five recordings.
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
  /// The positive control's band/FET and band/solve ratios (medians).
  double control_fet_ratio = 0.0;
  double control_batched_ratio = 0.0;
  double control_ratio = 0.0;  ///< median per-alternation control/band
};

/// Alternations of the gate's estimator (each ratio is their median).
constexpr int kGateAlternations = 21;

/// The median of `v` (odd size).
template <std::size_t N>
double median_of(std::array<double, N> v) {
  std::nth_element(v.begin(), v.begin() + N / 2, v.end());
  return v[N / 2];
}

/// The five batches (the four kernels and the positive control) alternate,
/// and each ratio gate reads the median over 21 alternations of one batch
/// over the batch beside it: a change of host speed moves both terms of
/// one ratio alike, and the median ignores the few ratios a speed change
/// straddles, where a ratio of two minima (or of batches timed seconds
/// apart) swings with whichever kernel caught the fastest stretch.  The
/// control is the band kernel with one more band pass on every third call
/// (+33% band work): a regression the gate must catch, timed through the
/// same estimator in the same process.
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

  int control_calls = 0;
  const auto control_call = [&] {
    step_design(d);
    (void)evaluator.evaluate(d);
    if (++control_calls % 3 == 0) {
      step_design(d);
      (void)evaluator.evaluate(d);
    }
  };

  constexpr int kAlternations = kGateAlternations, kMinBatches = 5;
  constexpr int kBandIters = 900, kYieldIters = 600;
  constexpr int kFetIters = 10000, kSolveIters = 600;
  BandAndYieldTimes t;
  std::array<double, kAlternations> yield_ratios{}, fet_ratios{},
      batched_ratios{}, control_fet_ratios{}, control_batched_ratios{},
      control_ratios{};
  std::uint64_t band_allocs = 0, yield_allocs = 0;
  for (int a = 0; a < kAlternations; ++a) {
    const double band_ns = batch_ns(kBandIters, [&] {
      step_design(d);
      (void)evaluator.evaluate(d);
    }, &band_allocs);
    const double yield_ns = batch_ns(kYieldIters, next_trial, &yield_allocs);
    const double fet_ns = batch_ns(kFetIters, fet_call);
    const double solve_ns = batch_ns(kSolveIters, solve_call);
    const double control_ns = batch_ns(kBandIters, control_call);
    yield_ratios[a] = yield_ns / band_ns;
    fet_ratios[a] = band_ns / fet_ns;
    batched_ratios[a] = band_ns / solve_ns;
    control_fet_ratios[a] = control_ns / fet_ns;
    control_batched_ratios[a] = control_ns / solve_ns;
    control_ratios[a] = control_ns / band_ns;
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
  t.control_fet_ratio = median_of(control_fet_ratios);
  t.control_batched_ratio = median_of(control_batched_ratios);
  t.control_ratio = median_of(control_ratios);
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

// The gate's reference rows: its own estimator's medians, recorded with
// --perf-smoke --record (the committed rows are the median of five
// recordings), so the gate compares like with like.
constexpr const char* kFetRow = "perf_smoke.band_over_fet";
constexpr const char* kSolveRow = "perf_smoke.band_over_solve";
constexpr const char* kYieldRow = "perf_smoke.yield_over_band";
// The band gate's limit on the mean of its two ratios, each over its
// recorded row: over 30 quiet and loaded runs the unmodified build read
// 0.93-1.06 and the +33% positive control 1.23-1.41, while either ratio
// alone drifted from its row by up to -12% / +5%.
constexpr double kBandLimit = 1.15;
// The yield gate's limit on its ratio over the recorded row.
constexpr double kYieldLimit = 1.25;

int record_gate_rows(const std::string& out_path) {
  const BandAndYieldTimes t = time_band_and_yield();
  std::printf("[perf_smoke] record: band/FET %.3fx, band/solve %.4fx, "
              "yield/band %.4fx; control/band %.3fx\n",
              t.fet_ratio, t.batched_ratio, t.yield_ratio, t.control_ratio);
  bench::JsonRecorder recorder(out_path);
  recorder.add(kFetRow, kGateAlternations, t.fet_ratio);
  recorder.add(kSolveRow, kGateAlternations, t.batched_ratio);
  recorder.add(kYieldRow, kGateAlternations, t.yield_ratio);
  return recorder.write() ? 0 : 1;
}

int perf_smoke(const std::string& baseline_path) {
  if (std::getenv("GNSSLNA_SKIP_PERF_SMOKE") != nullptr) {
    std::printf("[perf_smoke] skipped (GNSSLNA_SKIP_PERF_SMOKE set)\n");
    return 0;
  }
  const auto entries = bench::load_bench_json(baseline_path);
  const double ref_fet = bench::bench_json_ns(entries, kFetRow);
  const double ref_solve = bench::bench_json_ns(entries, kSolveRow);
  const double ref_yield = bench::bench_json_ns(entries, kYieldRow);
  if (ref_fet <= 0.0 || ref_solve <= 0.0 || ref_yield <= 0.0) {
    std::fprintf(stderr,
                 "[perf_smoke] missing %s/%s/%s rows in %s (record them "
                 "with --perf-smoke --record)\n",
                 kFetRow, kSolveRow, kYieldRow, baseline_path.c_str());
    return 1;
  }
  const auto allocs = bench::load_bench_json_field(baseline_path,
                                                   "allocs_per_op");
  const double baseline_allocs =
      bench::bench_json_ns(allocs, "BM_BandEvaluation");
  const double baseline_yield_allocs =
      bench::bench_json_ns(allocs, "BM_YieldSampleMc");
  const BandAndYieldTimes t = time_band_and_yield();
  // The band gate compares the band kernel against two in-process
  // references — the analytic FET kernel (untouched by the evaluation
  // plan) and the raw batched solve (the core the band path rides on),
  // each as the median of per-alternation ratios — so a uniformly slower
  // (or faster) host cancels out; only a regression of the band kernel
  // itself moves both ratios.  It fails when the mean of the two ratios,
  // each over its recorded row, exceeds kBandLimit.  The positive control
  // must fail that same test, or the gate cannot see a regression of its
  // size on this run.  The absolute time is printed for context only.
  const auto band_score = [&](double fet_ratio, double batched_ratio) {
    return 0.5 * (fet_ratio / ref_fet + batched_ratio / ref_solve);
  };
  const double score = band_score(t.fet_ratio, t.batched_ratio);
  const double control_score =
      band_score(t.control_fet_ratio, t.control_batched_ratio);
  std::printf("[perf_smoke] band evaluation: %.0f ns/op (BM_BandEvaluation "
              "row %.0f, not gated)\n",
              t.band_ns, bench::bench_json_ns(entries, "BM_BandEvaluation"));
  std::printf("[perf_smoke] band evaluation vs FET reference kernel (median "
              "of 21 alternations): %.1fx (row %.1fx); vs batched-solve "
              "kernel: %.3fx (row %.3fx); mean over the rows %.3f (limit "
              "%.2f)\n",
              t.fet_ratio, ref_fet, t.batched_ratio, ref_solve, score,
              kBandLimit);
  const bool time_regressed = score > kBandLimit;
  const bool control_detected = control_score > kBandLimit;
  std::printf("[perf_smoke] positive control (band pass repeated on every "
              "third call, %.2fx the band kernel): vs FET %.1fx, vs "
              "batched solve %.3fx, mean over the rows %.3f -> %s\n",
              t.control_ratio, t.control_fet_ratio, t.control_batched_ratio,
              control_score, control_detected ? "detected" : "NOT detected");
  // Yield-engine per-sample gate: the cost of one yield trial as a ratio
  // to the band-evaluation kernel measured in the same process, against
  // its recorded ratio, plus its steady-state allocations.
  const double yield_limit = kYieldLimit * ref_yield;
  std::printf("[perf_smoke] yield sample: %.0f ns/op; vs band evaluation "
              "(median of 21 alternations): %.3fx (limit %.3fx); "
              "steady-state allocs/op %.3f (baseline %.3f)\n",
              t.yield_ns, t.yield_ratio, yield_limit, t.yield_allocs_per_op,
              baseline_yield_allocs);
  const bool yield_regressed =
      t.yield_ratio > yield_limit ||
      (baseline_yield_allocs >= 0.0 &&
       t.yield_allocs_per_op > baseline_yield_allocs);
  // Steady-state allocation regression: the batched path promises exactly
  // zero; any nonzero count against a zero baseline is a hard failure
  // regardless of timing noise.
  const bool allocs_regressed =
      baseline_allocs >= 0.0 && t.band_allocs_per_op > baseline_allocs;
  if (time_regressed || !control_detected || allocs_regressed ||
      yield_regressed) {
    if (time_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: band-evaluation kernel regressed "
                   ">15%% vs its recorded ratios (mean of the two "
                   "host-normalized references)\n");
    }
    if (!control_detected) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: the gate cannot detect its positive "
                   "control (the band pass repeated on every third call) "
                   "on this run, so it could not detect a regression of "
                   "that size either\n");
    }
    if (yield_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: yield-engine per-sample cost "
                   "regressed vs the band-evaluation kernel (or its "
                   "steady-state allocations grew)\n");
    }
    if (allocs_regressed) {
      std::fprintf(stderr,
                   "[perf_smoke] FAIL: steady-state heap allocations "
                   "regressed: %.3f allocs/op vs baseline %.3f\n",
                   t.band_allocs_per_op, baseline_allocs);
    }
    print_band_counter_deltas();
    return 1;
  }
  std::printf("[perf_smoke] OK (steady-state allocs/op: %.3f)\n",
              t.band_allocs_per_op);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out our own flags before google-benchmark sees the command line.
  std::vector<char*> args;
  std::string json_path, smoke_baseline, record_path;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[++i];
    } else if (i + 1 < argc && std::strcmp(argv[i], "--record") == 0) {
      record_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf-smoke") == 0) {
      smoke = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') smoke_baseline = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (smoke && !record_path.empty()) return record_gate_rows(record_path);
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
