// BatchedPlan equivalence and EvalWorkspace property tests.
//
// The frequency-batched evaluation core eliminates in a static diagonal
// order, so against the per-call analyses (circuit::s_params /
// noise_analysis, the reference oracle) it is held to the written
// tolerance of reference_band.h, not to bit-identity; a lane it re-solves
// on its dense path must equal the oracle exactly.  Every comparison of
// the core with itself — across chunkings of the grid over workspaces,
// thread counts, workspace reuse, sub-range solves and rebuilt plans — is
// an exact == on doubles.  The golden pin at the bottom guards absolute
// values across toolchains.
#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <numbers>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "amplifier/lna.h"
#include "amplifier/plan_writers.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"
#include "circuit/netlist.h"
#include "circuit/noisy_twoport.h"
#include "device/phemt.h"
#include "microstrip/substrate.h"
#include "numeric/rng.h"
#include "obs/obs.h"
#include "reference_band.h"
#include "rf/sweep.h"
#include "rf/units.h"

namespace gnsslna::circuit {
namespace {

void expect_bitwise_eq(const Complex& a, const Complex& b) {
  EXPECT_EQ(a.real(), b.real());
  EXPECT_EQ(a.imag(), b.imag());
}

void expect_bitwise_eq(const rf::SParams& a, const rf::SParams& b) {
  expect_bitwise_eq(a.s11, b.s11);
  expect_bitwise_eq(a.s12, b.s12);
  expect_bitwise_eq(a.s21, b.s21);
  expect_bitwise_eq(a.s22, b.s22);
}

void expect_bitwise_eq(const NoiseResult& a, const NoiseResult& b) {
  EXPECT_EQ(a.source_noise_psd, b.source_noise_psd);
  EXPECT_EQ(a.noise_factor, b.noise_factor);
  EXPECT_EQ(a.noise_figure_db, b.noise_figure_db);
  EXPECT_EQ(a.output_noise_psd, b.output_noise_psd);
}

void expect_report_eq(const amplifier::BandReport& a,
                      const amplifier::BandReport& b) {
  EXPECT_EQ(a.nf_avg_db, b.nf_avg_db);
  EXPECT_EQ(a.nf_max_db, b.nf_max_db);
  EXPECT_EQ(a.gt_min_db, b.gt_min_db);
  EXPECT_EQ(a.gt_avg_db, b.gt_avg_db);
  EXPECT_EQ(a.s11_worst_db, b.s11_worst_db);
  EXPECT_EQ(a.s22_worst_db, b.s22_worst_db);
  EXPECT_EQ(a.mu_min, b.mu_min);
  EXPECT_EQ(a.id_a, b.id_a);
}

/// Random two-port ladder drawing from every element kind the netlist
/// supports: 2..4 sections drawn from `rng`, or exactly `sections` when
/// given (a ladder of s sections has s + 1 unknowns).
Netlist random_netlist(std::mt19937& rng, int sections = 0) {
  std::uniform_real_distribution<double> ur(0.0, 1.0);
  const auto r_val = [&] { return 10.0 + 290.0 * ur(rng); };
  const auto l_val = [&] { return 1e-9 + 20e-9 * ur(rng); };
  const auto c_val = [&] { return 0.2e-12 + 10e-12 * ur(rng); };

  Netlist nl;
  if (sections <= 0) sections = 2 + static_cast<int>(ur(rng) * 3.0);  // 2..4
  NodeId prev = nl.add_node();
  const NodeId first = prev;
  for (int s = 0; s < sections; ++s) {
    const NodeId next = nl.add_node();
    switch (static_cast<int>(ur(rng) * 5.0)) {
      case 0:
        nl.add_resistor(prev, next, r_val());
        break;
      case 1:
        nl.add_capacitor(prev, next, c_val());
        break;
      case 2: {
        const double r = r_val(), l = l_val();
        nl.add_lossy_impedance(prev, next, [r, l](double f) {
          return Complex{r, 2.0 * std::numbers::pi * f * l};
        });
        break;
      }
      case 3: {
        const double r = r_val(), l = l_val();
        add_passive_twoport(nl, prev, next, kGround, [r, l](double f) {
          const Complex y = 1.0 / Complex{r, 2.0 * std::numbers::pi * f * l};
          rf::YParams yp;
          yp.frequency_hz = f;
          yp.y11 = y;
          yp.y12 = -y;
          yp.y21 = -y;
          yp.y22 = y;
          return yp;
        });
        break;
      }
      default: {
        const double gm = 0.01 + 0.05 * ur(rng);
        add_noisy_three_terminal(
            nl, prev, next, kGround,
            [gm](double f) {
              rf::YParams yp;
              yp.frequency_hz = f;
              yp.y11 = Complex{1e-3, 2.0 * std::numbers::pi * f * 0.4e-12};
              yp.y12 = Complex{-1e-4, 0.0};
              yp.y21 = Complex{gm, -1e-3};
              yp.y22 = Complex{2e-3, 2.0 * std::numbers::pi * f * 0.2e-12};
              return yp;
            },
            [](double f) {
              rf::NoiseParams np;
              np.frequency_hz = f;
              np.f_min = 1.2;
              np.r_n = 12.0;
              np.gamma_opt = Complex{0.3, 0.2};
              return np;
            });
        break;
      }
    }
    if (ur(rng) < 0.7) {
      nl.add_resistor(next, kGround, 5.0 * r_val());
    } else {
      nl.add_inductor(next, kGround, l_val());
    }
    prev = next;
  }
  nl.add_port(first);
  nl.add_port(prev);
  return nl;
}

struct LaneResult {
  rf::SParams s;
  NoiseResult noise;
  bool repivoted;
};

/// Every lane of `grid` through the batched plan split into `nchunks`
/// contiguous workspace chunks; also checks noise_sweep against
/// lane-by-lane noise_at, bit for bit.
std::vector<LaneResult> run_chunked(const BatchedPlan& plan,
                                    std::size_t nchunks) {
  const std::size_t nf = plan.size();
  nchunks = std::min(nchunks, nf);
  std::vector<LaneResult> out(nf);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const ChunkRange r = chunk_range(c, nchunks, nf);
    EvalWorkspace ws;
    plan.factor(ws, r.begin, r.end);
    plan.solve_ports(ws);
    plan.solve_output_transfer(ws, 1);
    std::vector<NoiseResult> sweep(r.end - r.begin);
    plan.noise_sweep(ws, 0, 1, sweep.data());
    for (std::size_t fi = r.begin; fi < r.end; ++fi) {
      out[fi] = {plan.s_params_at(ws, fi), plan.noise_at(ws, fi, 0, 1),
                 ws.repivoted(fi)};
      expect_bitwise_eq(sweep[fi - r.begin], out[fi].noise);
    }
  }
  return out;
}

/// Runs the batched plan over `grid` at every chunking: each chunking
/// reproduces the single-chunk bits, every lane is within the written
/// tolerance of the per-call analyses, and a dense-path lane equals them
/// exactly.  Returns the number of dense-path lanes.
std::size_t expect_batched_matches(const Netlist& nl,
                                   const std::vector<double>& grid) {
  const BatchedPlan bplan(nl, grid);
  const std::vector<LaneResult> whole = run_chunked(bplan, 1);
  std::size_t repivoted = 0;
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    SCOPED_TRACE("lane " + std::to_string(fi));
    const rf::SParams s = s_params(nl, grid[fi]);
    const NoiseResult n = noise_analysis(nl, 0, 1, grid[fi]);
    reference::expect_near_oracle(whole[fi].s, s);
    reference::expect_near_oracle(whole[fi].noise, n);
    if (whole[fi].repivoted) {
      ++repivoted;
      expect_bitwise_eq(whole[fi].s, s);
      expect_bitwise_eq(whole[fi].noise, n);
    }
  }
  for (const std::size_t nchunks : {2u, 4u, 8u}) {
    const std::vector<LaneResult> split = run_chunked(bplan, nchunks);
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      SCOPED_TRACE("lane " + std::to_string(fi) + " at " +
                   std::to_string(nchunks) + " chunks");
      expect_bitwise_eq(split[fi].s, whole[fi].s);
      expect_bitwise_eq(split[fi].noise, whole[fi].noise);
      EXPECT_EQ(split[fi].repivoted, whole[fi].repivoted);
    }
  }
  return repivoted;
}

/// Fig. 3 band + stability grid (16 lanes).
std::vector<double> lna_grid() {
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  return grid;
}

/// Fig. 3 design draws: `uniform` over the whole design box, else the
/// differential-evolution-shaped moves of all 12 variables around the
/// nominal design that the design run's traffic consists of.  Calls
/// f(netlist) for `count` buildable designs (infeasible bias draws are not
/// evaluations the core ever sees) and returns the number of draws made.
template <typename F>
int for_each_design(const amplifier::AmplifierConfig& config, bool uniform,
                    int count, std::uint64_t seed, F&& f) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::Bounds box = amplifier::DesignVector::bounds();
  numeric::Rng rng(seed);
  int designs = 0, draw = 0;
  for (; designs < count && draw < 20 * count; ++draw) {
    std::vector<double> x = amplifier::DesignVector{}.to_vector();
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double span = box.upper[i] - box.lower[i];
      x[i] = uniform ? box.lower[i] + span * rng.uniform()
                     : x[i] + 0.02 * span * rng.normal();
    }
    const amplifier::DesignVector d =
        amplifier::DesignVector::from_vector(box.clamp(x));
    Netlist nl;
    try {
      nl = amplifier::LnaDesign(dev, config, d).build_netlist();
    } catch (const std::exception&) {
      continue;
    }
    SCOPED_TRACE("design draw #" + std::to_string(draw));
    ++designs;
    f(nl);
  }
  EXPECT_EQ(designs, count);
  return draw;
}

// ---------------------------------------------------------------------------
// Equivalence on the fig. 3 preamplifier netlist, every chunking

TEST(BatchedPlan, MatchesOracleOnPreamplifier) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  EXPECT_EQ(expect_batched_matches(lna.build_netlist(), lna_grid()), 0u);
}

// ---------------------------------------------------------------------------
// Equivalence on a randomized corpus: >= 200 netlist perturbations, each
// checked at every thread-chunk count, plus long ladders (64, 65 and 130
// unknowns)

TEST(BatchedPlan, MatchesOracleOnRandomCorpus) {
  std::mt19937 rng(20260807u);
  const std::vector<double> grid = rf::linear_grid(0.8e9, 2.4e9, 5);
  for (int k = 0; k < 200; ++k) {
    SCOPED_TRACE("random netlist #" + std::to_string(k));
    (void)expect_batched_matches(random_netlist(rng), grid);
  }
  for (const int sections : {63, 64, 129}) {
    SCOPED_TRACE("ladder of " + std::to_string(sections) + " sections");
    const Netlist nl = random_netlist(rng, sections);
    ASSERT_EQ(nl.node_count() - 1, static_cast<std::size_t>(sections) + 1);
    (void)expect_batched_matches(nl, grid);
  }
}

// ---------------------------------------------------------------------------
// Equivalence on the design run's traffic, and the tolerance corpus

TEST(BatchedPlan, MatchesOracleOnPivotDivergentDesigns) {
  // Differential-evolution-shaped moves of all 12 design variables around
  // the nominal fig. 3 design, on the 16-lane band + stability grid.  The
  // oracle's partial pivoting picks different pivot rows across these
  // lanes; the static diagonal order serves every one of them, none
  // needing the dense path.
  amplifier::AmplifierConfig config;
  config.resolve();
  const std::vector<double> grid = lna_grid();

  // One workspace reused across every design's plan: its arena hands the
  // next factorization the previous one's memory, so a fill-in position
  // assembly did not zero would read a stale value.  (The plans stay
  // alive: a workspace recognizes its plan by address.)
  std::deque<BatchedPlan> plans;
  EvalWorkspace reused;
  std::size_t repivoted = 0;
  for_each_design(config, false, 100, 20261017u, [&](const Netlist& nl) {
    repivoted += expect_batched_matches(nl, grid);
    const BatchedPlan& plan = plans.emplace_back(nl, grid);
    plan.factor(reused, 0, grid.size());
    plan.solve_ports(reused);
    plan.solve_output_transfer(reused, 1);
    EvalWorkspace fresh;
    plan.factor(fresh, 0, grid.size());
    plan.solve_ports(fresh);
    plan.solve_output_transfer(fresh, 1);
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      SCOPED_TRACE("reused workspace, lane " + std::to_string(fi));
      expect_bitwise_eq(plan.s_params_at(reused, fi),
                        plan.s_params_at(fresh, fi));
      expect_bitwise_eq(plan.noise_at(reused, fi, 0, 1),
                        plan.noise_at(fresh, fi, 0, 1));
    }
  });
  EXPECT_EQ(repivoted, 0u);
}

TEST(BatchedPlan, OracleToleranceHoldsOnCorpus) {
  // The corpus that pins reference::kOracleTolerance: DE-step and
  // uniform-box fig. 3 designs on both catalog substrates (random netlists
  // and the long ladders are MatchesOracleOnRandomCorpus).  Uniform-box
  // designs reach the rare lanes whose diagonal pivot is small (about 1 in
  // 100 lanes); those must take the dense path and equal the oracle.
  const std::vector<double> grid = lna_grid();
  for (const microstrip::Substrate& substrate :
       {microstrip::Substrate::fr4(), microstrip::Substrate::ro4350b()}) {
    SCOPED_TRACE("substrate eps_r " + std::to_string(substrate.epsilon_r));
    amplifier::AmplifierConfig config;
    config.substrate = substrate;
    config.resolve();
    std::size_t de_repivoted = 0, box_repivoted = 0;
    for_each_design(config, false, 40, 7u, [&](const Netlist& nl) {
      de_repivoted += expect_batched_matches(nl, grid);
    });
    for_each_design(config, true, 120, 11u, [&](const Netlist& nl) {
      box_repivoted += expect_batched_matches(nl, grid);
    });
    EXPECT_EQ(de_repivoted, 0u);
    EXPECT_GT(box_repivoted, 0u);
  }
}

// ---------------------------------------------------------------------------
// The dense path

TEST(BatchedPlan, CollapsedPivotLaneTakesTheDensePath) {
  // One grid lane sits on the resonance that zeroes the first diagonal
  // pivot: exactly that lane is flagged, counted once per factor and
  // equals the oracle bit for bit; the others stay on the static program.
  const double f0 = 1.5e9;
  const Netlist nl = reference::collapsing_pivot_netlist(f0);
  const std::vector<double> grid = {0.9e9, 1.1e9, 1.3e9, f0,
                                    1.7e9, 1.9e9, 2.1e9};
  BatchedPlan plan(nl, grid);
  EXPECT_EQ(expect_batched_matches(nl, grid), 1u);

  const auto repivots = [] {
    for (const obs::CounterValue& c : obs::counter_snapshot()) {
      if (c.name == "circuit.batch.repivots") return c.value;
    }
    return std::uint64_t{0};
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t before = repivots();
  EvalWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    plan.factor(ws, 0, grid.size());
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      EXPECT_EQ(ws.repivoted(fi), fi == 3) << "lane " << fi;
    }
    plan.mark_values_dirty();
  }
  obs::set_enabled(was_enabled);
  if (obs::compiled_in()) {
    EXPECT_EQ(repivots() - before, 3u);
  }
}

TEST(BatchedPlan, DenseLaneIsChunkingInvariantAtEveryPosition) {
  // The flagged lane at each position of an 8-lane grid, under chunkings
  // 1, 2, 4 and 8 (expect_batched_matches compares them bit for bit):
  // which lanes share its chunk never changes a bit of any lane.
  const double f0 = 1.5e9;
  const Netlist nl = reference::collapsing_pivot_netlist(f0);
  for (std::size_t at = 0; at < 8; ++at) {
    SCOPED_TRACE("resonant lane at " + std::to_string(at));
    std::vector<double> grid;
    for (std::size_t i = 0; i < 8; ++i) {
      grid.push_back(i == at ? f0
                             : f0 * (i < at ? 0.5 + 0.05 * double(i)
                                            : 1.2 + 0.1 * double(i)));
    }
    EXPECT_EQ(expect_batched_matches(nl, grid), 1u);
  }
}

TEST(BatchedPlan, NearShortLossyElementThrowsInClosureAndWriter) {
  // add_lossy_impedance's 1e-12 ohm near-short guard and its direct-write
  // twin (planw::write_lossy): an impedance just under the limit, with
  // both components below it so that the magnitude itself decides, throws
  // on both paths; one exactly at the limit does not.
  struct FixedImpedance {
    Complex z;
    Complex impedance(double) const { return z; }
  };
  const Complex near_short{0.7e-12, -0.7e-12};  // |z| = 0.99e-12 ohm
  const Complex at_limit{1e-12, 0.0};
  const std::vector<double> grid = {1.0e9, 2.0e9};
  const auto netlist_with = [](Complex z, ElementRef* ref) {
    Netlist nl;
    const NodeId a = nl.add_node();
    const NodeId b = nl.add_node();
    nl.add_resistor(a, kGround, 50.0);
    *ref = nl.add_lossy_impedance(a, b, [z](double) { return z; }, 290.0);
    nl.add_resistor(b, kGround, 50.0);
    nl.add_port(a);
    nl.add_port(b);
    return nl;
  };
  ElementRef ref;
  EXPECT_THROW((void)s_params(netlist_with(near_short, &ref), grid[0]),
               std::domain_error);
  EXPECT_THROW(BatchedPlan(netlist_with(near_short, &ref), grid),
               std::domain_error);
  BatchedPlan plan(netlist_with(at_limit, &ref), grid);
  EXPECT_THROW(amplifier::planw::write_lossy(plan, ref,
                                             FixedImpedance{near_short}, 290.0),
               std::domain_error);
  EXPECT_NO_THROW(amplifier::planw::write_lossy(
      plan, ref, FixedImpedance{at_limit}, 290.0));
}

TEST(BatchedPlan, StructurallySingularSystemThrows) {
  // A node no element touches leaves an all-zero row and column, so its
  // diagonal is structurally zero: every lane takes the dense path, which
  // reports the system as singular, like the oracle.
  Netlist nl;
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  (void)nl.add_node();  // isolated
  nl.add_resistor(a, b, 50.0);
  nl.add_capacitor(b, kGround, 1e-12);
  nl.add_port(a);
  nl.add_port(b);
  const std::vector<double> grid = rf::linear_grid(1.0e9, 2.0e9, 4);
  const BatchedPlan plan(nl, grid);
  EvalWorkspace ws;
  EXPECT_THROW(plan.factor(ws, 0, grid.size()), std::domain_error);
  EXPECT_FALSE(ws.factored());
  EXPECT_THROW((void)s_params(nl, grid[0]), std::domain_error);
}

// ---------------------------------------------------------------------------
// Sub-range transfer solves

TEST(BatchedPlan, TransferSubRangeMatchesFullRange) {
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  const std::size_t band = amplifier::LnaDesign::default_band().size();

  const BatchedPlan plan(nl, grid);
  EvalWorkspace full, sub;
  plan.factor(full, 0, grid.size());
  plan.solve_output_transfer(full, 1);
  plan.factor(sub, 0, grid.size());
  plan.solve_output_transfer(sub, 1, 0, band);  // band lanes only
  std::vector<NoiseResult> nf(grid.size()), ns(band);
  plan.noise_sweep(full, 0, 1, nf.data());  // whole range...
  plan.noise_sweep(sub, 0, 1, ns.data());
  for (std::size_t fi = 0; fi < band; ++fi) {
    SCOPED_TRACE("band lane " + std::to_string(fi));
    expect_bitwise_eq(plan.noise_at(sub, fi, 0, 1),
                      plan.noise_at(full, fi, 0, 1));
    expect_bitwise_eq(ns[fi], nf[fi]);  // ...agrees on the shared prefix
  }
  // Lanes outside the solved transfer range refuse to answer.
  EXPECT_THROW(plan.noise_at(sub, band, 0, 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// BandReport identity with the per-call oracle along a design walk

TEST(BatchedPlan, BandReportIdenticalAcrossPathsAndThreads) {
  // A walk through design space, evaluated by one persistent BandEvaluator
  // (incremental re-tabulation through the plan views) and by one-shot
  // LnaDesign::evaluate, which must agree bit for bit, and compared with
  // the per-call reference loop within the written tolerance, with
  // dispersive and with ideal chip passives.  Even steps move all 12
  // design variables at once (a differential-evolution step: bias
  // re-extraction plus FET, line and passive re-tabulation); odd steps
  // move one field and pin exactly which value tables the evaluator
  // rewrote.
  const device::Phemt dev = device::Phemt::reference_device();
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const optimize::Bounds box = amplifier::DesignVector::bounds();

  struct SingleStep {
    const char* field;
    double amplifier::DesignVector::* member;
    double lo, hi;
    bool chip_passive;
  };
  const SingleStep steps[] = {
      {"c_mid_f", &amplifier::DesignVector::c_mid_f, 0.5e-12, 5e-12, true},
      {"l_in_m", &amplifier::DesignVector::l_in_m, 2e-3, 30e-3, false},
      {"vgs", &amplifier::DesignVector::vgs, -0.55, -0.25, false},
      {"r_fb_ohm", &amplifier::DesignVector::r_fb_ohm, 300.0, 1200.0, false},
      {"l_sdeg_h", &amplifier::DesignVector::l_sdeg_h, 0.2e-9, 2e-9, true},
      {"l_out2_m", &amplifier::DesignVector::l_out2_m, 2e-3, 30e-3, false},
      {"vds", &amplifier::DesignVector::vds, 1.5, 3.5, false},
  };
  // Tables one move rewrites: a dispersive chip passive its stamp plus
  // its thermal-noise CSD, an ideal (noiseless) L/C its stamp alone; a
  // microstrip section its Y-block plus Twiss CSD, R_fb its stamp plus
  // CSD; a bias move re-sizes R_drain (stamp + CSD) and re-extracts the
  // FET (Y-block + CSD).
  const auto tables = [](const SingleStep& st, bool dispersive) {
    if (st.chip_passive) return dispersive ? 2u : 1u;
    const bool bias = st.member == &amplifier::DesignVector::vgs ||
                      st.member == &amplifier::DesignVector::vds;
    return bias ? 4u : 2u;
  };

  for (const bool dispersive : {true, false}) {
    SCOPED_TRACE(dispersive ? "dispersive passives" : "ideal passives");
    amplifier::AmplifierConfig config;
    config.dispersive_passives = dispersive;
    amplifier::BandEvaluator evaluator(dev, config);
    std::mt19937 rng(7u);
    std::uniform_real_distribution<double> ur(0.0, 1.0);
    amplifier::DesignVector d;
    std::size_t single = 0;
    for (int step = 0; step < 16; ++step) {
      SCOPED_TRACE("design step " + std::to_string(step));
      std::size_t expected_tables = 0;  // cold build
      if (step % 2 == 1) {
        const SingleStep& st = steps[single++ % std::size(steps)];
        SCOPED_TRACE(std::string("single-field step on ") + st.field);
        d.*st.member = st.lo + (st.hi - st.lo) * ur(rng);
        expected_tables = tables(st, dispersive);
      } else if (step > 0) {
        // DE-shaped step: every variable moves, inside the feasible part
        // of the box (bias kept where the drain current stays reachable).
        std::vector<double> x(amplifier::DesignVector::kDimension);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = box.lower[i] + (box.upper[i] - box.lower[i]) * ur(rng);
        }
        x[0] = -0.55 + 0.3 * ur(rng);  // vgs
        x[1] = 1.5 + 2.0 * ur(rng);    // vds
        d = amplifier::DesignVector::from_vector(x);
        // Five chip passives, four lines, R_fb, R_drain and the FET.
        expected_tables = (dispersive ? 10u : 5u) + 8u + 2u + 2u + 2u;
      }
      const amplifier::LnaDesign lna(dev, config, d);
      const amplifier::BandReport rebuilt = lna.evaluate(band);
      expect_report_eq(evaluator.evaluate(d), rebuilt);
      EXPECT_EQ(evaluator.last_retabulated(), expected_tables);
      reference::expect_near_oracle(
          rebuilt, reference::reference_band_report(lna, band));
    }
    // Re-evaluating the current point rewrites nothing.
    const amplifier::BandReport again = evaluator.evaluate(d);
    EXPECT_EQ(evaluator.last_retabulated(), 0u);
    expect_report_eq(again,
                     amplifier::LnaDesign(dev, config, d).evaluate(band));
  }
}

// ---------------------------------------------------------------------------
// EvalWorkspace properties

TEST(EvalWorkspace, RebindsAcrossPlansOfDifferentShape) {
  // One workspace cycled between two plans of different unknown/element
  // counts answers exactly like a fresh workspace each time, and its
  // arena only ever grows to the larger footprint (reuse, not realloc).
  std::mt19937 rng(99u);
  const std::vector<double> grid = rf::linear_grid(0.9e9, 2.1e9, 6);
  const Netlist small = random_netlist(rng);
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist big = lna.build_netlist();
  const BatchedPlan ps(small, grid);
  const BatchedPlan pb(big, grid);

  EvalWorkspace shared;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const BatchedPlan* plan : {&ps, &pb}) {
      plan->factor(shared, 0, grid.size());
      plan->solve_ports(shared);
      EvalWorkspace fresh;
      plan->factor(fresh, 0, grid.size());
      plan->solve_ports(fresh);
      for (std::size_t fi = 0; fi < grid.size(); ++fi) {
        expect_bitwise_eq(plan->s_params_at(shared, fi),
                          plan->s_params_at(fresh, fi));
      }
    }
  }
  const std::size_t hwm = shared.arena_high_water();
  EXPECT_GT(hwm, 0u);
  // Another full cycle must not move the high-water mark by a byte.
  pb.factor(shared, 0, grid.size());
  ps.factor(shared, 0, grid.size());
  EXPECT_EQ(shared.arena_high_water(), hwm);
}

TEST(EvalWorkspace, PartialRangeRebindKeepsLaneIdentity) {
  // Rebinding the same workspace to different lane sub-ranges of one plan
  // never changes what a lane answers.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  const std::vector<double> grid = amplifier::LnaDesign::stability_grid();
  const BatchedPlan plan(nl, grid);

  EvalWorkspace ref;
  plan.factor(ref, 0, grid.size());
  plan.solve_ports(ref);

  EvalWorkspace ws;
  for (const auto& [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 3}, {3, grid.size()}, {1, 4}, {0, grid.size()}}) {
    SCOPED_TRACE("range [" + std::to_string(b) + ", " + std::to_string(e) +
                 ")");
    plan.factor(ws, b, e);
    EXPECT_EQ(ws.f_begin(), b);
    EXPECT_EQ(ws.f_end(), e);
    plan.solve_ports(ws);
    for (std::size_t fi = b; fi < e; ++fi) {
      expect_bitwise_eq(plan.s_params_at(ws, fi), plan.s_params_at(ref, fi));
    }
    // Lanes outside the bound range are refused, not misread.
    if (b > 0) {
      EXPECT_THROW(plan.s_params_at(ws, b - 1), std::logic_error);
    }
    if (e < grid.size()) {
      EXPECT_THROW(plan.s_params_at(ws, e), std::logic_error);
    }
  }
}

TEST(EvalWorkspace, RevisionBumpInvalidatesFactorization) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  amplifier::DesignVector d;
  const amplifier::LnaDesign lna(dev, config, d);
  amplifier::DesignBindings b;
  const Netlist nl = lna.build_netlist(&b);
  const std::vector<double> grid = amplifier::LnaDesign::default_band();

  BatchedPlan plan(nl, grid);
  EvalWorkspace ws;
  plan.factor(ws, 0, grid.size());
  plan.solve_ports(ws);
  EXPECT_TRUE(ws.factored());

  // Writing a matrix-side table through a plan view and marking the values
  // dirty bumps the plan revision: the old factorization must refuse to
  // serve solves...
  d.c_mid_f = 0.9e-12;
  const std::uint64_t before = plan.revision();
  plan.mark_values_dirty();
  amplifier::planw::write_lossy(
      plan, b.cmid, passives::make_capacitor(d.c_mid_f, config.package),
      config.t_ambient_k);
  EXPECT_GT(plan.revision(), before);
  EXPECT_THROW(plan.solve_ports(ws), std::logic_error);
  EXPECT_THROW(plan.s_params_at(ws, 0), std::logic_error);

  // ...and a re-factor answers exactly like a plan compiled fresh from the
  // netlist of the moved design.
  plan.factor(ws, 0, grid.size());
  plan.solve_ports(ws);
  const BatchedPlan fresh_plan(
      amplifier::LnaDesign(dev, config, d).build_netlist(), grid);
  EvalWorkspace fresh_ws;
  fresh_plan.factor(fresh_ws, 0, grid.size());
  fresh_plan.solve_ports(fresh_ws);
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    expect_bitwise_eq(plan.s_params_at(ws, fi),
                      fresh_plan.s_params_at(fresh_ws, fi));
  }

  // Factoring again without a new write keeps the factorization valid.
  plan.factor(ws, 0, grid.size());
  EXPECT_TRUE(ws.factored());
  expect_bitwise_eq(plan.s_params_at(ws, 0),
                    fresh_plan.s_params_at(fresh_ws, 0));
}

TEST(EvalWorkspace, PlanRebuiltAtADestroyedPlansAddressIsRefactored) {
  // A workspace recognizes its plan by address and revision.  Rebuilding a
  // plan in the storage of a destroyed one (a loop-local plan, here made
  // certain by std::optional::emplace) must not let a reused workspace
  // serve the old plan's factorization: series R, shunt 1 pF at 1 GHz
  // gives |S21| = 0.6525 for 50 ohm and 0.8960 for 10 ohm.
  const std::vector<double> grid = {1.0e9};
  EvalWorkspace ws;
  std::optional<BatchedPlan> plan;
  const BatchedPlan* first_address = nullptr;
  for (const double ohms : {50.0, 10.0}) {
    SCOPED_TRACE("R = " + std::to_string(ohms));
    Netlist nl;
    const NodeId in = nl.add_node();
    const NodeId out = nl.add_node();
    nl.add_resistor(in, out, ohms);
    nl.add_capacitor(out, kGround, 1e-12);
    nl.add_port(in);
    nl.add_port(out);
    plan.emplace(nl, grid);
    if (first_address == nullptr) first_address = &*plan;
    EXPECT_EQ(&*plan, first_address);
    plan->factor(ws, 0, grid.size());
    plan->solve_ports(ws);
    const rf::SParams oracle = s_params(nl, grid[0]);
    expect_bitwise_eq(plan->s_params_at(ws, 0), oracle);
    EXPECT_NEAR(std::abs(oracle.s21), ohms == 50.0 ? 0.6525 : 0.8960, 1e-4);
  }
}

TEST(EvalWorkspace, TwoThreadsWithDistinctWorkspacesAgreeWithSerial) {
  // One shared (const) plan, one workspace per thread: the TSan job runs
  // this to prove the factor/solve/read path is data-race-free, and the
  // results must equal the serial single-chunk evaluation bit for bit.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  grid.insert(grid.end(), mu.begin(), mu.end());
  const BatchedPlan plan(nl, grid);

  EvalWorkspace serial;
  plan.factor(serial, 0, grid.size());
  plan.solve_ports(serial);

  std::vector<rf::SParams> threaded(grid.size());
  const std::size_t mid = grid.size() / 2;
  const auto run = [&](std::size_t begin, std::size_t end) {
    EvalWorkspace ws;
    plan.factor(ws, begin, end);
    plan.solve_ports(ws);
    for (std::size_t fi = begin; fi < end; ++fi) {
      threaded[fi] = plan.s_params_at(ws, fi);
    }
  };
  std::thread t1(run, 0, mid);
  std::thread t2(run, mid, grid.size());
  t1.join();
  t2.join();
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    expect_bitwise_eq(threaded[fi], plan.s_params_at(serial, fi));
  }
}

// ---------------------------------------------------------------------------
// Swept analyses route through the batched core

TEST(BatchedPlan, SweepsMatchPerCallAnalyses) {
  std::mt19937 rng(123u);
  const std::vector<double> grid = rf::linear_grid(0.8e9, 2.4e9, 9);
  for (int k = 0; k < 5; ++k) {
    SCOPED_TRACE("random netlist #" + std::to_string(k));
    const Netlist nl = random_netlist(rng);
    const rf::SweepData serial = s_sweep(nl, grid, 1);
    const rf::SweepData fanned = s_sweep(nl, grid, 4);
    const std::vector<double> nf = noise_figure_sweep(nl, 0, 1, grid);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(nf.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      reference::expect_near_oracle(serial[i], s_params(nl, grid[i]));
      expect_bitwise_eq(fanned[i], serial[i]);
      EXPECT_NEAR(nf[i], noise_analysis(nl, 0, 1, grid[i]).noise_figure_db,
                  reference::kOracleTolerance);
    }
  }
}

// ---------------------------------------------------------------------------
// Fig. 3 golden pin: absolute band figures of the default design

TEST(BatchedPlan, Fig3DefaultDesignGoldenReport) {
  // Guards the physics end to end (element models -> assembly -> batched
  // solve -> reduction) against silent drift.  Tolerances are loose
  // enough for libm differences across toolchains, tight enough that any
  // modelling or kernel regression trips them.
  amplifier::BandEvaluator ev(device::Phemt::reference_device(),
                              amplifier::AmplifierConfig{});
  const amplifier::BandReport r = ev.evaluate(amplifier::DesignVector{});
  EXPECT_NEAR(r.nf_avg_db, 0.680293477717, 1e-6);
  EXPECT_NEAR(r.nf_max_db, 0.807885110992, 1e-6);
  EXPECT_NEAR(r.gt_min_db, 12.1852387924, 1e-5);
  EXPECT_NEAR(r.gt_avg_db, 14.5619521333, 1e-5);
  EXPECT_NEAR(r.s11_worst_db, -2.56393544639, 1e-5);
  EXPECT_NEAR(r.s22_worst_db, -1.96303213864, 1e-5);
  EXPECT_NEAR(r.mu_min, 1.09509396899, 1e-6);
  EXPECT_NEAR(r.id_a, 0.0404973351933, 1e-9);
}

}  // namespace
}  // namespace gnsslna::circuit
