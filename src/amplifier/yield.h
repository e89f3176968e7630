// Monte-Carlo / quasi-Monte-Carlo tolerance (yield) analysis of a
// finished design, at production scale.
//
// Components drawn from their tolerance distributions (E24 parts: +-5%
// L/C; board: +-2% eps_r, +-5% height), the design re-evaluated per
// sample, and the pass rate against the design goals reported — the
// "will it survive production" question a paper prototype never answers.
//
// The engine is built to survive 10^6+ samples:
//
//  * Plan reuse.  Each worker thread keeps ONE batched evaluation plan
//    (circuit::BatchedPlan) alive across its shards and applies every
//    trial's perturbations by re-tabulating the perturbed element tables
//    in place (amplifier/plan_writers.h) — a sample costs one re-stamp
//    plus one allocation-free batched evaluate instead of a full
//    netlist + plan rebuild.  Because a tolerance draw also perturbs the
//    SUBSTRATE, the re-stamp covers the bias line and tee parasitics the
//    optimizer path treats as fixed (DesignBindings carries their
//    handles).
//  * Counter-indexed sampling.  Trial i's draw is a pure function of
//    (rng snapshot, i) for both samplers — Rng::split(i) for the
//    pseudo-random stream, the direct Gray-code formula for scrambled
//    Sobol — so any thread can produce any trial and the estimate is
//    bit-identical under every thread count and shard size.
//  * Streaming reductions.  Pass counts, fixed-point sums, exact
//    min/max and fixed-grid histograms (for the p5/p95 estimates) are
//    merged with order-independent integer arithmetic; 10^6 samples
//    never materialize an O(n) vector.
//
// A convergence trace (pass rate +- Wilson CI every 2^k samples) can be
// streamed through the obs trace sinks; obs counters yield.samples /
// yield.resyncs / yield.failed_evals / yield.plan_builds and span timers
// amplifier.yield / yield.shard instrument the run.
#pragma once

#include <cstdint>

#include "amplifier/design_flow.h"
#include "amplifier/lna.h"
#include "numeric/sobol.h"
#include "obs/trace.h"

namespace gnsslna::amplifier {

struct ToleranceModel {
  double lc_relative = 0.05;        ///< chip L/C value tolerance
  double er_relative = 0.02;        ///< substrate permittivity tolerance
  double height_relative = 0.05;    ///< substrate thickness tolerance
  double length_sigma_m = 0.05e-3;  ///< etch length error (1 sigma)
  double vbias_sigma = 0.02;        ///< bias voltage error (1 sigma) [V]
};

enum class YieldSampler {
  kPseudoRandom,  ///< xoshiro256** via Rng::split(trial)
  kSobol,         ///< scrambled Sobol, quantile-transformed Gaussians
};

struct YieldOptions {
  std::size_t threads = 1;  ///< 0 = hardware_concurrency(), 1 = serial
  /// Trials per scheduled shard.  Shard size trades scheduling overhead
  /// against load balance; it NEVER affects the report (the reductions
  /// are order-independent).  0 falls back to the default.
  std::size_t shard = 256;
  YieldSampler sampler = YieldSampler::kPseudoRandom;
  ToleranceModel tolerances = {};
  /// When set, receives one record per power-of-two sample count:
  /// phase "yield_mc"/"yield_qmc", evaluations = samples so far,
  /// best_value = running pass rate, attainment = Wilson-CI width,
  /// front_size = passes, hypervolume = failed evaluations.
  obs::TraceSink trace = {};
  /// Fixed histogram windows for the streaming percentile estimates;
  /// values outside land in under/overflow bins and the estimates are
  /// clamped to the exact observed min/max.
  double nf_hist_lo_db = 0.0;
  double nf_hist_hi_db = 10.0;
  double gt_hist_lo_db = -60.0;
  double gt_hist_hi_db = 40.0;
  std::size_t hist_bins = 4096;
};

struct YieldReport {
  std::size_t samples = 0;
  std::size_t passes = 0;
  /// Trials whose evaluation failed outright (infeasible bias, solver
  /// failure, non-finite figures).  Counted as NOT passing, but excluded
  /// from the distribution statistics below — a failed evaluation has no
  /// NF/gain to contribute (previously sentinel values of 50 / -50 dB
  /// were mixed into the percentiles).
  std::size_t failed_evals = 0;
  double pass_rate = 0.0;  ///< passes / samples
  /// 95% Wilson score interval on the pass rate: honest uncertainty for
  /// small-n runs, never outside [0, 1].
  double pass_rate_ci95_lo = 0.0;
  double pass_rate_ci95_hi = 1.0;
  /// Distribution statistics over the successfully evaluated trials
  /// (histogram-interpolated percentiles, fixed-point means, exact
  /// min/max); all 0 when every evaluation failed.
  double nf_avg_p95_db = 0.0;  ///< 95th percentile of band-average NF
  double gt_min_p5_db = 0.0;   ///< 5th percentile of min gain
  double nf_avg_mean_db = 0.0;
  double gt_min_mean_db = 0.0;
  double nf_avg_min_db = 0.0;
  double nf_avg_max_db = 0.0;
  double gt_min_min_db = 0.0;
  double gt_min_max_db = 0.0;
};

/// One trial's perturbed design and board.
struct TrialDraw {
  DesignVector design;
  microstrip::Substrate substrate;
};

/// Coordinates one trial consumes from the Sobol sequence: 6 uniform
/// component draws, 6 Gaussian etch/bias draws, 2 uniform board draws —
/// the same variates, in the same order, as the pseudo-random stream.
inline constexpr std::size_t kYieldTrialDimensions = 14;

/// Trial `trial`'s draw from the pseudo-random stream: a pure function of
/// (root snapshot, trial) via Rng::split, with the exact distributions
/// and draw order the yield analysis has always used (lab::fabricate
/// replicates it).  The design is clamped to DesignVector::bounds().
TrialDraw pseudo_trial_draw(const numeric::Rng& root, std::uint64_t trial,
                            const DesignVector& nominal,
                            const microstrip::Substrate& substrate,
                            const ToleranceModel& tolerances);

/// Trial `trial`'s draw from a scrambled-Sobol point: coordinate k maps
/// to the k-th variate of the pseudo stream's draw order (uniforms by
/// affine map, Gaussians by the normal-quantile transform).
TrialDraw sobol_trial_draw(const numeric::ScrambledSobol& sequence,
                           std::uint64_t trial, const DesignVector& nominal,
                           const microstrip::Substrate& substrate,
                           const ToleranceModel& tolerances);

struct TrialOutcome {
  double nf_avg_db = 0.0;
  double gt_min_db = 0.0;
  bool pass = false;
  bool failed = false;  ///< evaluation failed; nf/gt are meaningless
};

/// Per-worker persistent trial evaluator: one netlist compile + batched
/// plan at construction, then every trial is one in-place re-stamp of the
/// perturbed tables plus one allocation-free batched evaluate.  The
/// steady state performs ZERO heap allocations per trial (pinned by
/// tests/test_alloc_free.cpp).  Results are bit-identical to rebuilding
/// the trial's netlist and evaluating it through its own batched plan, and
/// within the batched core's written tolerance of the per-call analyses on
/// that netlist (pinned by tests/test_yield.cpp).
///
/// NOT thread-safe: hold one instance per thread (run_yield keeps a pool).
class YieldTrialEvaluator {
 public:
  /// Builds the plan for the nominal design's topology.  Throws like
  /// LnaDesign if the nominal design itself is infeasible.
  YieldTrialEvaluator(const device::Phemt& device, AmplifierConfig config,
                      const DesignVector& nominal,
                      std::vector<double> band_hz = {});

  /// Evaluates one trial.  Evaluation failures are caught and reported
  /// through TrialOutcome::failed; the evaluator stays usable.
  TrialOutcome evaluate(const TrialDraw& draw, const DesignGoals& goals);

  /// Arena high-water mark of the persistent workspace [bytes]; pinned by
  /// the zero-allocation test so silent workspace growth fails CI.
  std::size_t workspace_high_water() const {
    return workspace_.arena_high_water();
  }

 private:
  void retabulate(const TrialDraw& draw, const BiasNetwork& bias);

  device::Phemt device_;
  AmplifierConfig config_;
  std::vector<double> band_hz_;
  DesignBindings bindings_;
  circuit::BatchedPlan bplan_;
  circuit::EvalWorkspace workspace_;
  /// Per-trial dispersion tables of the two line widths on the trial's
  /// board (length-independent; see BandEvaluator::w50_prop_), rewritten
  /// in place each trial because the substrate moves.
  std::vector<microstrip::Line::Propagation> w50_prop_, wbias_prop_;
  std::vector<circuit::NoiseResult> noise_buf_;
  device::NoiseTemperatures nt_adj_;  ///< ambient-scaled FET temperatures
};

/// Runs n yield trials; "pass" means all four goals and the stability
/// margin hold.  Trial i draws its perturbations from the counter-based
/// stream i of a generator forked once from rng (or Sobol point i), so
/// the FULL report is reproducible per seed and bit-identical for any
/// options.threads and options.shard, with either sampler.
YieldReport run_yield(const device::Phemt& device,
                      const AmplifierConfig& config,
                      const DesignVector& design, const DesignGoals& goals,
                      std::size_t n, numeric::Rng& rng,
                      const YieldOptions& options = {});

/// Back-compatible wrapper: pseudo-random sampler, default engine options.
YieldReport monte_carlo_yield(const device::Phemt& device,
                              const AmplifierConfig& config,
                              const DesignVector& design,
                              const DesignGoals& goals, std::size_t n,
                              numeric::Rng& rng,
                              ToleranceModel tolerances = {},
                              std::size_t threads = 1);

}  // namespace gnsslna::amplifier
