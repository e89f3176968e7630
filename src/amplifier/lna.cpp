#include "amplifier/lna.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>

#include "amplifier/plan_writers.h"
#include "circuit/noisy_twoport.h"
#include "microstrip/discontinuity.h"
#include "obs/obs.h"
#include "rf/metrics.h"
#include "rf/sweep.h"
#include "rf/units.h"

namespace gnsslna::amplifier {

namespace {

/// Fixed output DC block [F]; its L-band impedance is negligible, so it is
/// not part of the design vector.
constexpr double kOutputBlockF = 33e-12;

/// Fixed DC block in series with the feedback resistor [F].
constexpr double kFeedbackBlockF = 10e-12;

/// Adapter: a dispersive catalog part as a series impedance function.
template <typename Part>
std::function<circuit::Complex(double)> z_of(Part part) {
  return [part = std::move(part)](double f) { return part.impedance(f); };
}

/// Y-block of a microstrip line (copyable by value).
circuit::YBlockFn line_y(microstrip::Line line) {
  return [line = std::move(line)](double f) {
    return microstrip::Line::y_from(line.propagation(f), line.length());
  };
}

/// The device's Pospieszalski noise temperatures at the board's ambient
/// (first-order thermal model: Tg and Td scale with T/290).  The
/// small-signal extraction is temperature-independent, so this is the
/// only place the ambient reaches the FET.
device::NoiseTemperatures ambient_temperatures(const device::Phemt& device,
                                               double t_ambient_k) {
  device::NoiseTemperatures t = device.temperatures();
  const double scale = t_ambient_k / 290.0;
  t.tg_k *= scale;
  t.td_k *= scale;
  return t;
}

/// The linearized-FET element and noise closures.  The bias-dependent
/// small-signal extraction (finite-difference Angelov derivatives) is
/// hoisted out of the per-frequency closures: it is a pure function of the
/// bias, so capturing the result once per design point returns exactly the
/// values Phemt::s_params / Phemt::noise would.
struct FetClosures {
  circuit::YBlockFn y;
  circuit::NoiseParamsFn np;
};

FetClosures fet_closures(const device::Phemt& dev,
                         const device::NoiseTemperatures& nt,
                         const device::Bias& bias) {
  const device::IntrinsicParams ip = dev.small_signal(bias);
  const device::ExtrinsicParams ex = dev.extrinsics();
  return {[ip, ex](double f) { return device::fet_y(ip, ex, f); },
          [ip, ex, nt](double f) {
            return device::pospieszalski_noise(ip, ex, nt, f);
          }};
}

/// The band pass of every evaluation path (LnaDesign::evaluate and
/// BandEvaluator): factors all lanes of `plan` in `ws`, solves the ports
/// and (over the report lanes) the output transfer, and reduces one report
/// per report grid into `reports`, each over its own lanes in grid order.
/// The plan grid must be the report grids back to back — grid g ends at
/// lane grid_ends[g], and each holds >= 1 frequency — followed by
/// LnaDesign::stability_grid(), whose mu every report shares.  `id_a` is
/// the design's drain current and `scratch` reusable per-lane storage
/// (sized on first use).  The S-parameters of every lane come from one
/// lane pass and mu from the mu lane kernel; the min, max and sum walks
/// run serially in grid order.  Agrees with the per-call analyses
/// (circuit::s_params / noise_analysis) reduced in the same order within
/// the written tolerance of the batched core (tests/reference_band.h).
void band_report(const circuit::BatchedPlan& plan, circuit::EvalWorkspace& ws,
                 std::span<const std::size_t> grid_ends, double id_a,
                 BandScratch& scratch, BandReport* reports) {
  const std::size_t nf = plan.size();
  const std::size_t report_lanes = grid_ends.back();
  const std::size_t mu_lanes = nf - report_lanes;
  plan.factor(ws, 0, nf);
  plan.solve_ports(ws);
  plan.solve_output_transfer(ws, 1, 0, report_lanes);
  // Steady state: every resize is a no-op, no allocation.
  scratch.noise.resize(report_lanes);
  scratch.s.resize(2 * 4 * nf);
  scratch.mu.resize(2 * mu_lanes);
  plan.noise_sweep(ws, 0, 1, scratch.noise.data());
  const rf::SRows s{scratch.s.data(), scratch.s.data() + 4 * nf, nf};
  plan.s_params_sweep(ws, 0, nf, s);
  double* const mu_src = scratch.mu.data();
  double* const mu_ld = mu_src + mu_lanes;
  rf::mu_lanes(s.from(report_lanes), mu_lanes, mu_src, mu_ld);
  double mu_min = 1e9;
  for (std::size_t l = 0; l < mu_lanes; ++l) {
    mu_min = std::min(mu_min, std::min(mu_src[l], mu_ld[l]));
  }
  // Serial grid-order walk over each report grid's lanes.
  std::size_t begin = 0;
  for (std::size_t g = 0; g < grid_ends.size(); ++g) {
    const std::size_t end = grid_ends[g];
    BandReport rep;
    rep.id_a = id_a;
    double nf_sum = 0.0, gt_sum = 0.0;
    rep.nf_max_db = -1e9;
    rep.gt_min_db = 1e9;
    rep.s11_worst_db = -1e9;
    rep.s22_worst_db = -1e9;
    for (std::size_t fi = begin; fi < end; ++fi) {
      const double nf_db = scratch.noise[fi].noise_figure_db;
      const double gt = rf::db20(s.at(rf::SRows::kS21, fi));
      nf_sum += nf_db;
      gt_sum += gt;
      rep.nf_max_db = std::max(rep.nf_max_db, nf_db);
      rep.gt_min_db = std::min(rep.gt_min_db, gt);
      rep.s11_worst_db =
          std::max(rep.s11_worst_db, rf::db20(s.at(rf::SRows::kS11, fi)));
      rep.s22_worst_db =
          std::max(rep.s22_worst_db, rf::db20(s.at(rf::SRows::kS22, fi)));
    }
    rep.nf_avg_db = nf_sum / static_cast<double>(end - begin);
    rep.gt_avg_db = gt_sum / static_cast<double>(end - begin);
    rep.mu_min = mu_min;
    reports[g] = rep;
    begin = end;
  }
}

/// The report grids followed by the stability grid: the lanes a band plan
/// is compiled over.
std::vector<double> plan_grid(const std::vector<double>& report_grid) {
  std::vector<double> grid = report_grid;
  const std::vector<double> mu_grid = LnaDesign::stability_grid();
  grid.insert(grid.end(), mu_grid.begin(), mu_grid.end());
  return grid;
}

}  // namespace

LnaDesign::LnaDesign(const device::Phemt& device, AmplifierConfig config,
                     DesignVector design)
    : device_(device), config_(std::move(config)), design_(design) {
  config_.resolve();
  bias_ = design_bias(device_, design_, config_);
}

circuit::Netlist LnaDesign::build_netlist() const {
  return build_netlist(nullptr);
}

circuit::Netlist LnaDesign::build_netlist(DesignBindings* bindings) const {
  using circuit::NodeId;
  DesignBindings b;
  circuit::Netlist nl;

  const NodeId n_in = nl.add_node("in");
  const NodeId n1 = nl.add_node("after_cin");
  const NodeId n_mid = nl.add_node("in_mid");
  const NodeId n2 = nl.add_node("gate");
  const NodeId n_g2 = nl.add_node("gate_bias");
  const NodeId n_s = nl.add_node("source");
  const NodeId n3 = nl.add_node("drain");
  const NodeId n5 = nl.add_node("out_match");
  const NodeId n6 = nl.add_node("out_match2");
  const NodeId n_out = nl.add_node("out");

  // --- Input DC block.
  if (config_.dispersive_passives) {
    b.cin = nl.add_lossy_impedance(
        n_in, n1, z_of(passives::make_capacitor(design_.c_in_f,
                                                config_.package)),
        config_.t_ambient_k, "Cin");
  } else {
    b.cin.element = nl.add_capacitor(n_in, n1, design_.c_in_f, "Cin");
  }

  // --- Input shunt inductor (single-stub element + gate DC return) at the
  // port side of the input line, through its RF-decoupled bias node.  The
  // stub must sit a line-length away from the gate — a shunt element AT
  // the load can never complete a single-stub match.
  if (config_.dispersive_passives) {
    b.lshunt = nl.add_lossy_impedance(
        n1, n_g2, z_of(passives::make_inductor(design_.l_shunt_h,
                                               config_.package)),
        config_.t_ambient_k, "Lshunt");
    nl.add_lossy_impedance(
        n_g2, circuit::kGround,
        z_of(passives::make_capacitor(config_.c_gate_dec_f, config_.package)),
        config_.t_ambient_k, "Cgdec");
  } else {
    b.lshunt.element = nl.add_inductor(n1, n_g2, design_.l_shunt_h, "Lshunt");
    nl.add_capacitor(n_g2, circuit::kGround, config_.c_gate_dec_f, "Cgdec");
  }
  nl.add_resistor(n_g2, circuit::kGround, config_.r_gate_bias,
                  config_.t_ambient_k, "Rgbias");

  // --- Input double-stub match: line 1, shunt C_mid, line 2 to the gate.
  b.tlin1 = circuit::add_passive_twoport(
      nl, n1, n_mid, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_in_m)),
      config_.t_ambient_k, "TLin1");
  if (config_.dispersive_passives) {
    b.cmid = nl.add_lossy_impedance(
        n_mid, circuit::kGround,
        z_of(passives::make_capacitor(design_.c_mid_f, config_.package)),
        config_.t_ambient_k, "Cmid");
  } else {
    b.cmid.element =
        nl.add_capacitor(n_mid, circuit::kGround, design_.c_mid_f, "Cmid");
  }
  b.tlin2 = circuit::add_passive_twoport(
      nl, n_mid, n2, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_in2_m)),
      config_.t_ambient_k, "TLin2");

  // --- The pHEMT with source degeneration.  The bias-dependent
  // small-signal extraction is hoisted into the closures (see
  // fet_closures); the Pospieszalski noise temperatures scale with the
  // ambient (first-order thermal model).
  FetClosures fet =
      fet_closures(device_, ambient_temperatures(device_, config_.t_ambient_k),
                   device::Bias{design_.vgs, design_.vds});
  b.q1 = circuit::add_noisy_three_terminal(nl, n2, n3, n_s, std::move(fet.y),
                                           std::move(fet.np), "Q1");
  if (config_.dispersive_passives) {
    b.lsdeg = nl.add_lossy_impedance(
        n_s, circuit::kGround,
        z_of(passives::make_inductor(design_.l_sdeg_h, config_.package)),
        config_.t_ambient_k, "Lsdeg");
  } else {
    b.lsdeg.element =
        nl.add_inductor(n_s, circuit::kGround, design_.l_sdeg_h, "Lsdeg");
  }

  // --- Resistive shunt feedback drain -> gate (with its DC block).
  {
    const NodeId n_fb = nl.add_node("fb");
    b.rfb = nl.add_resistor(n3, n_fb, design_.r_fb_ohm, config_.t_ambient_k,
                            "Rfb");
    if (config_.dispersive_passives) {
      nl.add_lossy_impedance(
          n_fb, n2,
          z_of(passives::make_capacitor(kFeedbackBlockF, config_.package)),
          config_.t_ambient_k, "Cfb");
    } else {
      nl.add_capacitor(n_fb, n2, kFeedbackBlockF, "Cfb");
    }
  }

  // --- Drain bias tap: T-splitter, high-impedance line, decoupling, Rd.
  NodeId n4;  // drain-side node the output network continues from
  NodeId n_b; // branch node the bias line starts from
  if (config_.model_tee) {
    const microstrip::TeeJunction tee(config_.substrate, config_.w50_m,
                                      config_.w_bias_m);
    const NodeId nj = nl.add_node("tee");
    n4 = nl.add_node("after_tee");
    n_b = nl.add_node("bias_tap");
    b.ltee1 = nl.add_inductor(n3, nj, tee.arm_inductance_main(), "Ltee1");
    b.ltee2 = nl.add_inductor(nj, n4, tee.arm_inductance_main(), "Ltee2");
    b.ltee3 = nl.add_inductor(nj, n_b, tee.arm_inductance_branch(), "Ltee3");
    b.ctee = nl.add_capacitor(nj, circuit::kGround, tee.junction_capacitance(),
                              "Ctee");
    b.has_tee = true;
  } else {
    n4 = n3;
    n_b = n3;
  }
  const NodeId n_b2 = nl.add_node("bias_dec");
  b.tlbias = circuit::add_passive_twoport(
      nl, n_b, n_b2, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w_bias_m,
                              config_.l_bias_m)),
      config_.t_ambient_k, "TLbias");
  if (config_.dispersive_passives) {
    nl.add_lossy_impedance(
        n_b2, circuit::kGround,
        z_of(passives::make_capacitor(config_.c_dec_f, config_.package,
                                      passives::CapDielectric::kX7R)),
        config_.t_ambient_k, "Cdec");
  } else {
    nl.add_capacitor(n_b2, circuit::kGround, config_.c_dec_f, "Cdec");
  }
  // Vdd is RF ground: the drain resistor appears from the decoupled node
  // to ground and contributes its full thermal noise.
  b.rdrain = nl.add_resistor(n_b2, circuit::kGround, bias_.r_drain,
                             config_.t_ambient_k, "Rdrain");

  // --- Output match: line 1, shunt C, line 2, DC block.
  b.tlout1 = circuit::add_passive_twoport(
      nl, n4, n5, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_out_m)),
      config_.t_ambient_k, "TLout1");
  if (config_.dispersive_passives) {
    b.coutsh = nl.add_lossy_impedance(
        n5, circuit::kGround,
        z_of(passives::make_capacitor(design_.c_out_sh_f, config_.package)),
        config_.t_ambient_k, "Coutsh");
  } else {
    b.coutsh.element =
        nl.add_capacitor(n5, circuit::kGround, design_.c_out_sh_f, "Coutsh");
  }
  b.tlout2 = circuit::add_passive_twoport(
      nl, n5, n6, circuit::kGround,
      line_y(microstrip::Line(config_.substrate, config_.w50_m,
                              design_.l_out2_m)),
      config_.t_ambient_k, "TLout2");
  if (config_.dispersive_passives) {
    nl.add_lossy_impedance(
        n6, n_out, z_of(passives::make_capacitor(kOutputBlockF,
                                                 config_.package)),
        config_.t_ambient_k, "Cblk");
  } else {
    nl.add_capacitor(n6, n_out, kOutputBlockF, "Cblk");
  }

  nl.add_port(n_in, rf::kZ0, "RFin");
  nl.add_port(n_out, rf::kZ0, "RFout");
  if (bindings) *bindings = b;
  return nl;
}

rf::SParams LnaDesign::s_params(double frequency_hz) const {
  return circuit::s_params(build_netlist(), frequency_hz);
}

rf::SweepData LnaDesign::s_sweep(const std::vector<double>& frequencies_hz,
                                 std::size_t threads) const {
  return circuit::s_sweep(build_netlist(), frequencies_hz, threads);
}

double LnaDesign::noise_figure_db(double frequency_hz) const {
  return circuit::noise_analysis(build_netlist(), 0, 1, frequency_hz)
      .noise_figure_db;
}

std::vector<double> LnaDesign::default_band() {
  return rf::linear_grid(rf::kGnssBandLowHz, rf::kGnssBandHighHz, 7);
}

std::vector<double> LnaDesign::stability_grid() {
  return rf::linear_grid(0.5e9, 3.5e9, 9);
}

BandReport LnaDesign::evaluate(const std::vector<double>& band_hz) const {
  GNSSLNA_OBS_SPAN("amplifier.lna_evaluate");
  GNSSLNA_OBS_COUNT("amplifier.band_evaluations");
  const circuit::BatchedPlan plan(build_netlist(), plan_grid(band_hz));
  circuit::EvalWorkspace ws;
  BandScratch scratch;
  const std::size_t band_end = band_hz.size();
  BandReport rep;
  band_report(plan, ws, {&band_end, 1}, bias_.id_a, scratch, &rep);
  return rep;
}

BandEvaluator::BandEvaluator(
    const device::Phemt& device, AmplifierConfig config,
    std::vector<double> band_hz,
    const std::vector<std::vector<double>>& sub_grids)
    : device_(device),
      config_(std::move(config)),
      report_grid_(band_hz.empty() ? LnaDesign::default_band()
                                   : std::move(band_hz)) {
  config_.resolve();
  grid_ends_.push_back(report_grid_.size());
  for (const std::vector<double>& grid : sub_grids) {
    report_grid_.insert(report_grid_.end(), grid.begin(), grid.end());
    grid_ends_.push_back(report_grid_.size());
  }
  reports_.resize(grid_ends_.size());
}

BandReport BandEvaluator::evaluate(const DesignVector& design,
                                   const microstrip::Substrate& board) {
  GNSSLNA_OBS_SPAN("amplifier.band_evaluate");
  GNSSLNA_OBS_COUNT("amplifier.band_evaluations");
  if (built_) {
    retabulate(design, board);
  } else {
    build(design, board);
  }
  band_report(bplan_, workspace_, grid_ends_, bias_.id_a, scratch_,
              reports_.data());
  return reports_.front();
}

void BandEvaluator::build(const DesignVector& design,
                          const microstrip::Substrate& board) {
  // Cold build: closures, tabulation, and workspace blocks allocate
  // freely here; every subsequent call is allocation-free.  The trace
  // widths stay those resolved for the config's board (the mask is etched
  // once); LnaDesign's resolve() validates `board`.
  AmplifierConfig config = config_;
  config.substrate = board;
  const LnaDesign lna(device_, config, design);
  DesignBindings bindings;
  const circuit::Netlist nl = lna.build_netlist(&bindings);
  circuit::BatchedPlan plan(nl, plan_grid(report_grid_));
  // Length-independent dispersion tables of the two trace widths (the
  // length is applied per element in write_line); sized here, so a board
  // step rewrites them without allocating.
  std::array<microstrip::Line::PropagationRows, 2> trace_prop;
  microstrip::Line::tabulate(board, trace_widths(), plan.grid(), trace_prop);
  // Commit to the members only once everything built, so a throwing
  // design leaves the evaluator reusable.
  bplan_ = std::move(plan);
  trace_prop_ = std::move(trace_prop);
  bindings_ = bindings;
  bias_ = lna.bias();
  last_ = design;
  board_ = board;
  built_ = true;
  last_retabulated_ = 0;
}

void BandEvaluator::retabulate(const DesignVector& design,
                               const microstrip::Substrate& board) {
  const bool all = force_full_retab_;
  // An element whose governing parameters did not move already holds
  // exactly the values this point would tabulate (the writers are pure
  // functions of their parameters), so its tables are left untouched.
  const auto changed = [&](double DesignVector::* m) {
    return all || last_.*m != design.*m;
  };
  // A new board moves every line's dispersion and the tee parasitics.
  // Validate it first, then the bias: both reject BEFORE any table is
  // touched, in the order an LnaDesign for the same point would (resolve()
  // validates the board, then its constructor sizes the bias), leaving
  // the evaluator reusable.  A full rewrite after a throw covers the
  // board-dependent tables too.
  const bool rewrite_board = all || board != board_;
  if (rewrite_board) board.validate();
  const bool bias_changed =
      changed(&DesignVector::vgs) || changed(&DesignVector::vds);
  BiasNetwork bias = bias_;
  if (bias_changed) bias = design_bias(device_, design, config_);
  const auto line_changed = [&](double DesignVector::* m) {
    return rewrite_board || changed(m);
  };

  const bool any =
      rewrite_board || bias_changed || changed(&DesignVector::c_in_f) ||
      changed(&DesignVector::l_shunt_h) || changed(&DesignVector::c_mid_f) ||
      changed(&DesignVector::l_sdeg_h) || changed(&DesignVector::c_out_sh_f) ||
      changed(&DesignVector::r_fb_ohm) || changed(&DesignVector::l_in_m) ||
      changed(&DesignVector::l_in2_m) || changed(&DesignVector::l_out_m) ||
      changed(&DesignVector::l_out2_m);
  if (!any) {
    last_retabulated_ = 0;
    return;  // tables and cached factorization both still valid
  }

  // Every bound element contributes to the admittance matrix, so any
  // rewrite below invalidates cached factorizations.  Dirty first — and
  // force a full rewrite (board-dependent elements and dispersion tables
  // included) on the next call if anything throws halfway, since the
  // tables may then mix two points.
  bplan_.mark_values_dirty();
  force_full_retab_ = true;
  std::size_t retabulated = 0;
  const double t = config_.t_ambient_k;
  // Noise is only read on the report lanes (the transfer solve and the
  // noise sweep stop there), so the stability lanes' CSDs are left as
  // they are.
  const std::size_t nb = report_grid_.size();
  if (rewrite_board) {
    microstrip::Line::tabulate(board, trace_widths(), bplan_.grid(),
                               trace_prop_);
  }
  if (config_.dispersive_passives) {
    if (changed(&DesignVector::c_in_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.cin,
          passives::make_capacitor(design.c_in_f, config_.package), t, nb);
    }
    if (changed(&DesignVector::l_shunt_h)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.lshunt,
          passives::make_inductor(design.l_shunt_h, config_.package), t, nb);
    }
    if (changed(&DesignVector::c_mid_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.cmid,
          passives::make_capacitor(design.c_mid_f, config_.package), t, nb);
    }
    if (changed(&DesignVector::l_sdeg_h)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.lsdeg,
          passives::make_inductor(design.l_sdeg_h, config_.package), t, nb);
    }
    if (changed(&DesignVector::c_out_sh_f)) {
      retabulated += planw::write_lossy(
          bplan_, bindings_.coutsh,
          passives::make_capacitor(design.c_out_sh_f, config_.package), t, nb);
    }
  } else {
    if (changed(&DesignVector::c_in_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.cin.element,
                                     design.c_in_f);
    }
    if (changed(&DesignVector::l_shunt_h)) {
      retabulated += planw::write_inductor(bplan_, bindings_.lshunt.element,
                                    design.l_shunt_h);
    }
    if (changed(&DesignVector::c_mid_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.cmid.element,
                                     design.c_mid_f);
    }
    if (changed(&DesignVector::l_sdeg_h)) {
      retabulated += planw::write_inductor(bplan_, bindings_.lsdeg.element,
                                    design.l_sdeg_h);
    }
    if (changed(&DesignVector::c_out_sh_f)) {
      retabulated += planw::write_capacitor(bplan_, bindings_.coutsh.element,
                                     design.c_out_sh_f);
    }
  }
  if (changed(&DesignVector::r_fb_ohm)) {
    retabulated += planw::write_resistor(bplan_, bindings_.rfb, design.r_fb_ohm,
                                         t, nb);
  }
  if (bias_changed) {
    retabulated += planw::write_resistor(bplan_, bindings_.rdrain, bias.r_drain,
                                         t, nb);
  }
  if (line_changed(&DesignVector::l_in_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlin1, design.l_in_m,
                                     trace_prop_[kW50], t, nb);
  }
  if (line_changed(&DesignVector::l_in2_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlin2, design.l_in2_m,
                                     trace_prop_[kW50], t, nb);
  }
  if (line_changed(&DesignVector::l_out_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlout1, design.l_out_m,
                                     trace_prop_[kW50], t, nb);
  }
  if (line_changed(&DesignVector::l_out2_m)) {
    retabulated += planw::write_line(bplan_, bindings_.tlout2, design.l_out2_m,
                                     trace_prop_[kW50], t, nb);
  }
  if (rewrite_board) {
    // The config-fixed elements a board step reaches: the bias line and
    // the tee parasitics.
    retabulated += planw::write_line(bplan_, bindings_.tlbias,
                                     config_.l_bias_m,
                                     trace_prop_[kBiasWidth], t, nb);
    if (bindings_.has_tee) {
      const microstrip::TeeJunction tee(board, config_.w50_m,
                                        config_.w_bias_m);
      retabulated += planw::write_inductor(bplan_, bindings_.ltee1,
                                           tee.arm_inductance_main());
      retabulated += planw::write_inductor(bplan_, bindings_.ltee2,
                                           tee.arm_inductance_main());
      retabulated += planw::write_inductor(bplan_, bindings_.ltee3,
                                           tee.arm_inductance_branch());
      retabulated += planw::write_capacitor(bplan_, bindings_.ctee,
                                            tee.junction_capacitance());
    }
  }
  if (bias_changed) {
    // Same hoisting as fet_closures: the small-signal extraction is a
    // pure function of the bias.
    const device::IntrinsicParams ip =
        device_.small_signal(device::Bias{design.vgs, design.vds});
    retabulated += planw::write_fet(
        bplan_, bindings_.q1, ip, device_.extrinsics(),
        ambient_temperatures(device_, config_.t_ambient_k), nb);
  }
  force_full_retab_ = false;
  bias_ = bias;
  last_ = design;
  board_ = board;
  last_retabulated_ = retabulated;
}

}  // namespace gnsslna::amplifier
