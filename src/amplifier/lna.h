// LNA circuit assembly and band evaluation.
//
// LnaDesign turns (device, config, design vector) into a circuit::Netlist
// with every physical effect the paper insists on: dispersive chip
// passives (Q/ESR/SRF), lossy dispersive microstrip lines, the bias-tee
// T-splitter parasitics, the drain/gate bias resistors with their thermal
// noise, and the Pospieszalski device noise — then evaluates S-parameters,
// noise figure, stability, and DC current over the GNSS band.
#pragma once

#include <array>

#include "amplifier/topology.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"

namespace gnsslna::amplifier {

/// Aggregate band figures the optimizer and the benches consume.
struct BandReport {
  double nf_avg_db = 0.0;    ///< band-average noise figure
  double nf_max_db = 0.0;    ///< worst in-band noise figure
  double gt_min_db = 0.0;    ///< worst in-band transducer gain (50-ohm)
  double gt_avg_db = 0.0;
  double s11_worst_db = 0.0; ///< worst (largest) in-band |S11|
  double s22_worst_db = 0.0;
  double mu_min = 0.0;       ///< minimum Edwards-Sinsky mu over the
                             ///< stability grid (in-band + out-of-band)
  double id_a = 0.0;         ///< DC drain current
};

/// Reusable per-lane storage of the band pass: the report lanes' noise
/// results, the S-parameter rows of every plan lane and the mu rows of
/// the stability lanes.  Sized on first use and reused, so a steady-state
/// band pass does not allocate.
struct BandScratch {
  std::vector<circuit::NoiseResult> noise;
  std::vector<double> s;
  std::vector<double> mu;
};

/// Handles to the elements of an LNA netlist that depend on the design
/// vector (or its derived bias network).  Everything else — decoupling,
/// bias line, tee parasitics, blocking caps — is fixed by the config, so a
/// batched plan never needs to re-tabulate it between design points.
///
/// A tolerance trial additionally moves the SUBSTRATE (epsilon_r,
/// height), which reaches elements a design step never moves: the
/// high-impedance bias line and the tee-junction parasitics.  Their
/// handles are carried here too, so BandEvaluator can re-tabulate them in
/// place when the board changes; on a fixed board they are never touched.
struct DesignBindings {
  circuit::ElementRef cin, lshunt, cmid, lsdeg, rfb, coutsh, rdrain;
  circuit::ElementRef tlin1, tlin2, tlout1, tlout2;
  circuit::ElementRef q1;
  // Substrate-dependent fixed elements (see above).  The tee handles are
  // only meaningful when `has_tee` (config.model_tee).
  circuit::ElementRef tlbias;
  circuit::ElementId ltee1, ltee2, ltee3, ctee;
  bool has_tee = false;
};

class LnaDesign {
 public:
  /// The config is resolved (w50 synthesized) on construction.
  LnaDesign(const device::Phemt& device, AmplifierConfig config,
            DesignVector design);

  /// Builds a fresh netlist (cheap; closures only).
  circuit::Netlist build_netlist() const;

  /// Like build_netlist(), also returning handles to the design-dependent
  /// elements, whose tables a BatchedPlan compiled from the netlist can
  /// later rewrite in place (amplifier/plan_writers.h).
  circuit::Netlist build_netlist(DesignBindings* bindings) const;

  /// Two-port S-parameters at a frequency.
  rf::SParams s_params(double frequency_hz) const;

  /// Swept S-parameters.  Frequency points fan out across `threads`
  /// (0 = hardware_concurrency, 1 = serial); bit-identical for any count.
  rf::SweepData s_sweep(const std::vector<double>& frequencies_hz,
                        std::size_t threads = 1) const;

  /// Spot noise figure [dB].
  double noise_figure_db(double frequency_hz) const;

  /// Band evaluation over the given in-band grid; stability is also
  /// checked on an extended grid (0.5-3.5 GHz).  One-shot: builds the
  /// netlist and a transient BatchedPlan, then runs the same band pass as
  /// BandEvaluator.  Loops over many design points should hold a
  /// BandEvaluator instead.
  BandReport evaluate(const std::vector<double>& band_hz) const;

  /// Default 7-point evaluation grid across 1.1-1.7 GHz.
  static std::vector<double> default_band();

  /// Extended 0.5-3.5 GHz grid the mu stability check runs on.
  static std::vector<double> stability_grid();

  const DesignVector& design() const { return design_; }
  const AmplifierConfig& config() const { return config_; }
  const device::Phemt& device() const { return device_; }
  const BiasNetwork& bias() const { return bias_; }

 private:
  device::Phemt device_;
  AmplifierConfig config_;
  DesignVector design_;
  BiasNetwork bias_;
};

/// Reusable band evaluator for optimizer loops and tolerance trials:
/// keeps one batched plan alive across (design, board) points,
/// re-tabulating only the elements that moved — fixed elements (and their
/// dispersion curves) are tabulated once, and every frequency shares a
/// single LU factorization between the S-parameter and noise solves.
/// Changed element values are written straight into the plan's tables (no
/// closures, no Netlist), and after the first call the steady state
/// performs ZERO heap allocations (pinned by tests/test_alloc_free.cpp and
/// the bench allocs_per_op counter).  Reports are bit-identical to
/// LnaDesign::evaluate() on a config whose substrate is the board.
///
/// NOT thread-safe: hold one instance per thread (see
/// objectives.cpp::ReportCache and run_yield's worker pool).
class BandEvaluator {
 public:
  /// Band defaults to LnaDesign::default_band() when empty.  Each of the
  /// (non-empty) `sub_grids` is one more report grid compiled into the
  /// same plan, whose lanes are [band | each sub-grid | stability]: one
  /// pass then yields one report per grid (reports()).  Every lane is
  /// computed independently of the others, so a grid's report has the
  /// bits an evaluator built on that grid alone would return.
  BandEvaluator(const device::Phemt& device, AmplifierConfig config,
                std::vector<double> band_hz = {},
                const std::vector<std::vector<double>>& sub_grids = {});

  /// Evaluates one design point on the config's board and returns the
  /// band's report.  Throws like LnaDesign for infeasible designs (bias
  /// unreachable etc., or a singular lane on any grid); the evaluator
  /// stays usable.
  BandReport evaluate(const DesignVector& design) {
    return evaluate(design, config_.substrate);
  }

  /// Evaluates one design point on `board` (a perturbed substrate; the
  /// trace widths stay those resolved for the config's board).  A board
  /// that differs from the plan's is validated before any table is
  /// written, then its dispersion tables, the four matching lines, the
  /// bias line and the tee parasitics are rewritten.
  BandReport evaluate(const DesignVector& design,
                      const microstrip::Substrate& board);

  /// The reports of the last successful evaluate(), one per grid: the
  /// band's first, then each sub-grid's in constructor order.  Each
  /// reduces its own lanes in grid order and takes mu from the shared
  /// stability lanes.
  const std::vector<BandReport>& reports() const { return reports_; }

  /// Element/noise tables refreshed by the last evaluate() (diagnostics
  /// and cache-invalidation tests): one per value table (stamp, two-port,
  /// or noise CSD) rewritten; 0 for the cold build.
  std::size_t last_retabulated() const { return last_retabulated_; }

  /// Arena high-water mark of the persistent batched workspace [bytes];
  /// pinned by the zero-allocation test so silent workspace growth fails
  /// CI.
  std::size_t workspace_high_water() const {
    return workspace_.arena_high_water();
  }

 private:
  /// The yield engine compiles its plan from the nominal design at
  /// construction, before any trial runs.
  friend class YieldTrialEvaluator;

  /// Cold build: compiles the plan from LnaDesign's netlist of (design,
  /// board).  Members are committed only once everything built, so a
  /// throwing design leaves the evaluator unbuilt and reusable.
  void build(const DesignVector& design, const microstrip::Substrate& board);
  void retabulate(const DesignVector& design,
                  const microstrip::Substrate& board);

  device::Phemt device_;
  AmplifierConfig config_;
  std::vector<double> report_grid_;   ///< band and sub-grids, back to back
  std::vector<std::size_t> grid_ends_;  ///< end lane of each report grid
  std::vector<BandReport> reports_;     ///< one per report grid
  bool built_ = false;
  DesignVector last_;            ///< design the plan is currently bound to
  microstrip::Substrate board_;  ///< board the plan is currently bound to
  std::size_t last_retabulated_ = 0;

  // Values are written through the plan's table views, so no netlist is
  // retained — only the element handles.
  DesignBindings bindings_;
  circuit::BatchedPlan bplan_;
  circuit::EvalWorkspace workspace_;
  /// Dispersion curves of the w50 and bias-width lines on `board_` over
  /// the plan grid, in the structure-of-arrays rows the line lane kernel
  /// reads, tabulated by one multi-width Line::tabulate pass per board:
  /// propagation data depend on (substrate, width, f) only, so every line
  /// length reuses them (the netlist closure computes
  /// Line::y_from(propagation(f), length), the one-lane call of the same
  /// kernels).
  static constexpr std::size_t kW50 = 0, kBiasWidth = 1;
  std::array<double, 2> trace_widths() const {
    return {config_.w50_m, config_.w_bias_m};
  }
  std::array<microstrip::Line::PropagationRows, 2> trace_prop_;
  BandScratch scratch_;
  BiasNetwork bias_;  ///< bias for `last_` (id_a, r_drain)
  bool force_full_retab_ = false;  ///< a write threw mid-retabulation; the
                                   ///< tables may be mixed, rewrite all
};

}  // namespace gnsslna::amplifier
