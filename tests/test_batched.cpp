// BatchedPlan equivalence and EvalWorkspace property tests.
//
// The frequency-batched evaluation core eliminates in a static
// minimum-degree order, so against the per-call analyses (circuit::s_params /
// noise_analysis, the reference oracle) it is held to the written
// tolerance of reference_band.h, not to bit-identity; a lane it re-solves
// on its dense path must equal the oracle exactly.  Every comparison of
// the core with itself — across chunkings of the grid over workspaces,
// thread counts, workspace reuse, sub-range solves and rebuilt plans — is
// an exact == on doubles.  The golden pin at the bottom guards absolute
// values across toolchains.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <numbers>
#include <optional>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "amplifier/lna.h"
#include "amplifier/plan_writers.h"
#include "amplifier/yield.h"
#include "circuit/analysis.h"
#include "circuit/batched.h"
#include "circuit/netlist.h"
#include "circuit/noisy_twoport.h"
#include "device/phemt.h"
#include "microstrip/substrate.h"
#include "mission/objective.h"
#include "mission/scenario.h"
#include "numeric/rng.h"
#include "obs/obs.h"
#include "reference_band.h"
#include "rf/metrics.h"
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
/// contiguous workspace chunks; also checks noise_sweep against the
/// lane-by-lane replay reference::noise_at, bit for bit.
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
      out[fi] = {plan.s_params_at(ws, fi),
                 reference::noise_at(plan, ws, fi, 0, 1), ws.repivoted(fi)};
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
  // lanes; the static order serves every one of them, none needing the
  // dense path.
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
      expect_bitwise_eq(reference::noise_at(plan, reused, fi, 0, 1),
                        reference::noise_at(plan, fresh, fi, 0, 1));
    }
  });
  EXPECT_EQ(repivoted, 0u);
}

TEST(BatchedPlan, OracleToleranceHoldsOnCorpus) {
  // The corpus that pins reference::kOracleTolerance: DE-step and
  // uniform-box fig. 3 designs on both catalog substrates (random netlists
  // and the long ladders are MatchesOracleOnRandomCorpus).  Uniform-box
  // designs reach the rare lanes whose static-order pivot is small; those
  // must take the dense path and equal the oracle.
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
  // One grid lane sits on the resonance that zeroes the first pivot of
  // the static order: exactly that lane is flagged, counted once per
  // factor and equals the oracle bit for bit; the others stay on the
  // static program.
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

/// Bit equality, with any two NaNs equal (a NaN's payload is not a result).
bool same_value_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(BatchedPlan, HealthCheckOnSpecialLanesKeepsTheRepivotedSet) {
  // One extra admittance in the fig. 3 netlist whose value is special on
  // most of the 16 plan lanes: NaN in either part, +-inf, -0, subnormal,
  // tiny and huge values, and parts whose one-norm overflows.  Placed on
  // a diagonal, between two nodes and as a VCCS (and as the VCCS of a
  // two-node stage), it gives each case the set of dense-path lanes
  // pinned below (recorded with the column-maxima rule
  // (m > c || isnan(m)) ? m : c); every dense-path lane's
  // S-parameters equal the oracle's bit for bit (NaN results compare as
  // NaN).  An infinite shunt at the gate cuts the signal path, so the
  // noise analysis of such a lane throws on both paths and is not run.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> grid = lna_grid();
  const std::vector<Complex> special = {
      {1e-3, 2e-3}, {nan, 1e-3}, {1e-3, nan}, {inf, 0.0},
      {-inf, 1e-3}, {-0.0, -0.0}, {sub, -sub}, {1e300, -1e300},
      {1.5e308, 1.5e308}, {1e-300, 0.0}, {0.0, inf}, {-1e-3, 0.0},
      {2e-2, -3e-2}, {nan, nan}, {-0.0, 1e-3}, {1e154, 1e154}};
  ASSERT_EQ(special.size(), grid.size());
  const auto value = [grid, special](double f) {
    for (std::size_t k = 0; k < grid.size(); ++k) {
      if (grid[k] == f) return special[k];
    }
    return Complex{0.0, 0.0};
  };
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  struct Case {
    const char* where;
    std::uint32_t pinned;  // bit k: lane k takes the dense path
  };
  // The fourth case is a two-node VCCS stage whose only off-diagonal
  // entry (output row, input column) lies in a column whose pivot row has
  // nothing right of the diagonal: the elimination never reads it, so
  // only its column's maximum can flag a NaN there.
  const Case cases[] = {{"diagonal (gate to ground)", 0x251eu},
                        {"between gate and drain", 0x251eu},
                        {"VCCS drain <- gate", 0xa59eu},
                        {"VCCS stage, entry below an empty U row", 0x2006u}};
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE(cases[c].where);
    Netlist nl;
    if (c < 3) {
      nl = lna.build_netlist();
      const NodeId gate = nl.find_node("gate");
      const NodeId drain = nl.find_node("drain");
      if (c == 0) {
        nl.add_admittance(gate, kGround, value);
      } else if (c == 1) {
        nl.add_admittance(gate, drain, value);
      } else {
        nl.add_vccs(drain, kGround, gate, kGround, value);
      }
    } else {
      // Without the infinite and huge lanes, which make this stage's
      // matrix singular for the oracle's pivoting as well.
      const auto bounded = [value](double f) {
        const Complex v = value(f);
        return std::abs(v.real()) >= 1e100 || std::abs(v.imag()) >= 1e100
                   ? Complex{1e-3, 2e-3}
                   : v;
      };
      const NodeId in = nl.add_node();
      const NodeId out = nl.add_node();
      nl.add_resistor(in, kGround, 100.0);
      nl.add_resistor(out, kGround, 100.0);
      nl.add_vccs(out, kGround, in, kGround, bounded);
      nl.add_port(in);
      nl.add_port(out);
    }
    const BatchedPlan plan(nl, grid);
    EvalWorkspace ws;
    plan.factor(ws, 0, grid.size());
    plan.solve_ports(ws);
    std::uint32_t mask = 0;
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      if (!ws.repivoted(fi)) continue;
      mask |= std::uint32_t{1} << fi;
      SCOPED_TRACE("dense lane " + std::to_string(fi));
      const rf::SParams got = plan.s_params_at(ws, fi);
      const rf::SParams want = s_params(nl, grid[fi]);
      for (const auto& [g, w] :
           {std::pair{got.s11, want.s11}, std::pair{got.s12, want.s12},
            std::pair{got.s21, want.s21}, std::pair{got.s22, want.s22}}) {
        EXPECT_TRUE(same_value_bits(g.real(), w.real()) &&
                    same_value_bits(g.imag(), w.imag()));
      }
    }
    EXPECT_EQ(mask, cases[c].pinned) << std::hex << mask;
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
    void impedance(std::span<const double> f, double* re, double* im) const {
      for (std::size_t k = 0; k < f.size(); ++k) {
        re[k] = z.real();
        im[k] = z.imag();
      }
    }
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
// The elimination order

/// The assembled pattern of `nl` plus the diagonal, row-major over the
/// unknowns: the entries of assemble_terminated that are nonzero at any
/// frequency of `grid`.
std::vector<bool> assembled_pattern(const Netlist& nl,
                                    const std::vector<double>& grid) {
  const std::size_t n = nl.node_count() - 1;
  std::vector<bool> pattern(n * n, false);
  for (const double f : grid) {
    const numeric::ComplexMatrix a = nl.assemble_terminated(f);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (r == c || a(r, c) != Complex{0.0, 0.0}) pattern[r * n + c] = true;
      }
    }
  }
  return pattern;
}

/// Positions a symbolic elimination of `pattern` in diagonal (node) order
/// stores: step k fills (i, j) wherever (i, k) and (k, j) are filled
/// below and right of the pivot.
std::size_t diagonal_order_positions(std::vector<bool> pattern) {
  const auto n = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(pattern.size()))));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!pattern[i * n + k]) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (pattern[k * n + j]) pattern[i * n + j] = true;
      }
    }
  }
  return static_cast<std::size_t>(
      std::count(pattern.begin(), pattern.end(), true));
}

TEST(BatchedPlan, Fig3ProgramStoresNoFill) {
  // DESIGN.md's figures: fig. 3 has 47 structural entries (the diagonal
  // included), which diagonal order fills to 67; the compiled order
  // stores the 47 alone.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::LnaDesign lna(dev, amplifier::AmplifierConfig{},
                                 amplifier::DesignVector{});
  const Netlist nl = lna.build_netlist();
  const std::vector<double> grid = lna_grid();
  const std::vector<bool> pattern = assembled_pattern(nl, grid);
  ASSERT_EQ(nl.node_count() - 1, 15u);
  EXPECT_EQ(std::count(pattern.begin(), pattern.end(), true), 47);
  EXPECT_EQ(diagonal_order_positions(pattern), 67u);
  EXPECT_EQ(BatchedPlan(nl, grid).positions(), 47u);
}

TEST(BatchedPlan, OrderNeverStoresMoreThanDiagonalOrder) {
  // Every netlist the suite evaluates: the random ladders (the long ones
  // included), the scenario plan with the catalog's sub-band grids and the
  // collapsing-pivot fixture.
  const auto check = [](const Netlist& nl, const std::vector<double>& grid) {
    const std::vector<bool> pattern = assembled_pattern(nl, grid);
    const BatchedPlan plan(nl, grid);
    EXPECT_GE(plan.positions(),
              static_cast<std::size_t>(
                  std::count(pattern.begin(), pattern.end(), true)));
    EXPECT_LE(plan.positions(), diagonal_order_positions(pattern));
  };
  std::mt19937 rng(20260807u);
  const std::vector<double> ladder_grid = rf::linear_grid(0.8e9, 2.4e9, 5);
  for (int k = 0; k < 200; ++k) {
    SCOPED_TRACE("random netlist #" + std::to_string(k));
    check(random_netlist(rng), ladder_grid);
  }
  for (const int sections : {63, 64, 129}) {
    SCOPED_TRACE("ladder of " + std::to_string(sections) + " sections");
    check(random_netlist(rng, sections), ladder_grid);
  }
  std::vector<double> scenario_grid = amplifier::LnaDesign::default_band();
  for (const mission::Scenario& s : mission::scenario_catalog()) {
    for (const mission::WalkerShell& shell : s.shells) {
      const std::vector<double> g = mission::sub_band_grid(shell.carrier_hz);
      scenario_grid.insert(scenario_grid.end(), g.begin(), g.end());
    }
  }
  const std::vector<double> mu = amplifier::LnaDesign::stability_grid();
  scenario_grid.insert(scenario_grid.end(), mu.begin(), mu.end());
  amplifier::AmplifierConfig config;
  config.resolve();
  for_each_design(config, false, 20, 5u, [&](const Netlist& nl) {
    check(nl, scenario_grid);
  });
  check(reference::collapsing_pivot_netlist(1.5e9),
        {0.9e9, 1.1e9, 1.3e9, 1.5e9, 1.7e9});
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
    expect_bitwise_eq(reference::noise_at(plan, sub, fi, 0, 1),
                      reference::noise_at(plan, full, fi, 0, 1));
    expect_bitwise_eq(ns[fi], nf[fi]);  // ...agrees on the shared prefix
  }
  // Lanes outside the solved transfer range refuse to answer.
  EXPECT_THROW(reference::noise_at(plan, sub, band, 0, 1), std::logic_error);
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
  // rewrote.  The walk ends with board steps (a tolerance trial's
  // substrate), alone and combined with design steps, compared with
  // LnaDesign on a config whose substrate is the board.
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

    // Board steps: eps_r +-2% and height +-5%, the yield engine's board
    // tolerances.  The trace widths stay those resolved for the nominal
    // board (the mask is etched once), so the rebuild runs on a resolved
    // config whose substrate is the board.
    amplifier::AmplifierConfig resolved = config;
    resolved.resolve();
    const microstrip::Substrate nominal_board = resolved.substrate;
    const auto board_step = [&](const microstrip::Substrate& board,
                                std::size_t expected_tables) {
      amplifier::AmplifierConfig on_board = resolved;
      on_board.substrate = board;
      const amplifier::LnaDesign lna(dev, on_board, d);
      const amplifier::BandReport rebuilt = lna.evaluate(band);
      expect_report_eq(evaluator.evaluate(d, board), rebuilt);
      EXPECT_EQ(evaluator.last_retabulated(), expected_tables);
      reference::expect_near_oracle(
          rebuilt, reference::reference_band_report(lna, band));
    };
    // A new board rewrites the four matching lines and the bias line
    // (Y-block + CSD each) and the four tee stamps.
    const std::size_t board_tables = 5u * 2u + 4u;
    const std::size_t c_mid_tables = dispersive ? 2u : 1u;
    microstrip::Substrate board = nominal_board;
    board.epsilon_r = nominal_board.epsilon_r * 1.02;
    {
      SCOPED_TRACE("board step: eps_r +2%");
      board_step(board, board_tables);
    }
    board.epsilon_r = nominal_board.epsilon_r;
    board.height_m = nominal_board.height_m * 0.95;
    {
      SCOPED_TRACE("board step: height -5%");
      board_step(board, board_tables);
    }
    board.epsilon_r = nominal_board.epsilon_r * 0.98;
    d.c_mid_f = 2.2e-12;
    {
      SCOPED_TRACE("board step: eps_r -2% with a chip-passive step");
      board_step(board, board_tables + c_mid_tables);
    }
    board.height_m = nominal_board.height_m * 1.05;
    d.l_in_m = 9e-3;
    {
      SCOPED_TRACE("board step: height +5% with a line step");
      board_step(board, board_tables);  // the moved line is written once
    }
    board.epsilon_r = nominal_board.epsilon_r * 1.02;
    d.vgs = -0.42;
    d.l_out_m = 14e-3;
    {
      SCOPED_TRACE("board step: eps_r +2% with a bias and line step");
      board_step(board, board_tables + 4u);  // + R_drain and the FET
    }
    // A non-physical board is rejected before any table is written: the
    // next call on the previous point rewrites nothing and still matches.
    microstrip::Substrate bad = board;
    bad.height_m = -nominal_board.height_m;
    EXPECT_THROW(evaluator.evaluate(d, bad), std::invalid_argument);
    {
      SCOPED_TRACE("valid call after a rejected board");
      board_step(board, 0u);
    }
    // A writer that throws halfway through a board step (non-positive
    // line length) leaves mixed tables; the next call rewrites every
    // table, the dispersion tables and board-dependent elements included,
    // even though its board equals the one the plan held before.
    amplifier::DesignVector broken = d;
    broken.l_out2_m = -1e-3;
    microstrip::Substrate other = board;
    other.height_m = nominal_board.height_m * 0.95;
    EXPECT_THROW(evaluator.evaluate(broken, other), std::invalid_argument);
    {
      SCOPED_TRACE("valid call after a throw mid-retabulation");
      // Five chip passives, R_fb, R_drain, the FET and every board table.
      board_step(board, (dispersive ? 10u : 5u) + 2u + 2u + 2u + board_tables);
    }
    // Back to the config's board through the one-argument overload.
    const amplifier::BandReport home = evaluator.evaluate(d);
    EXPECT_EQ(evaluator.last_retabulated(), board_tables);
    expect_report_eq(home, amplifier::LnaDesign(dev, config, d).evaluate(band));
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

TEST(BatchedPlan, PassiveTwoPortCsdEqualsItsClosureBitForBit) {
  // The plan computes a passive two-port's Twiss CSD from its tabulated
  // Y-block; the netlist's csd closure (the per-call analyses' route)
  // evaluates the Y-block again.  Both run passive_twoport_csd_lanes on
  // the same Y values, so every lane must carry the closure's bits: the
  // amplifier's five lines on FR-4 and RO4350B over the plan lanes.
  const device::Phemt dev = device::Phemt::reference_device();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  for (const double f : amplifier::LnaDesign::stability_grid()) {
    grid.push_back(f);
  }
  for (const microstrip::Substrate& sub :
       {microstrip::Substrate::fr4(), microstrip::Substrate::ro4350b()}) {
    amplifier::AmplifierConfig config;
    config.substrate = sub;
    config.resolve();
    const Netlist nl =
        amplifier::LnaDesign(dev, config, amplifier::DesignVector{})
            .build_netlist();
    BatchedPlan plan(nl, grid);
    int compared = 0;
    for (std::size_t gi = 0; gi < nl.noise_groups().size(); ++gi) {
      const NoiseGroup& g = nl.noise_groups()[gi];
      if (g.passive_twoport == static_cast<std::size_t>(-1)) continue;
      ++compared;
      const BatchedPlan::NoiseView nv = plan.noise_view(gi);
      ASSERT_EQ(nv.csd.order, 2u);
      for (std::size_t fi = 0; fi < grid.size(); ++fi) {
        const numeric::ComplexMatrix m = g.csd(grid[fi]);
        for (std::size_t e = 0; e < 4; ++e) {
          const Complex want = m(e / 2, e % 2);
          const Complex got = nv.csd.at(e / 2, e % 2, fi);
          EXPECT_TRUE(std::bit_cast<std::uint64_t>(got.real()) ==
                          std::bit_cast<std::uint64_t>(want.real()) &&
                      std::bit_cast<std::uint64_t>(got.imag()) ==
                          std::bit_cast<std::uint64_t>(want.imag()))
              << g.label << " lane " << fi << " entry " << e;
        }
      }
    }
    EXPECT_EQ(compared, 5) << "eps_r " << sub.epsilon_r;
  }
}

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
// The lane reduction: S-parameter sweep and mu lanes

TEST(BatchedPlan, LaneSAndMuEqualTheScalarForms) {
  // The S-parameter lane pass over sub-ranges of the fig. 3 grid equals
  // s_params_at lane by lane, and the mu lane kernel equals rf::mu_source
  // and rf::mu_load bit for bit on those lanes and on special S lanes:
  // zero blocks (the denominator guard), NaN and infinite parts, and
  // magnitudes whose |z|^2 overflows or falls subnormal (outside
  // norm_is_accurate), at two lane offsets and across the kernel's
  // 64-lane blocks.
  const std::vector<double> grid = lna_grid();
  const device::Phemt dev = device::Phemt::reference_device();
  std::vector<rf::SParams> lanes;
  for (const double vgs : {-0.45, -0.3}) {
    amplifier::DesignVector d;
    d.vgs = vgs;
    const BatchedPlan plan(
        amplifier::LnaDesign(dev, amplifier::AmplifierConfig{}, d)
            .build_netlist(),
        grid);
    EvalWorkspace ws;
    plan.factor(ws, 0, grid.size());
    plan.solve_ports(ws);
    for (const auto& [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
             {0, grid.size()}, {3, 11}, {7, 8}}) {
      std::vector<double> re(4 * (e - b)), im(re.size());
      const rf::SRows rows{re.data(), im.data(), e - b};
      plan.s_params_sweep(ws, b, e, rows);
      for (std::size_t fi = b; fi < e; ++fi) {
        const rf::SParams one = plan.s_params_at(ws, fi);
        const Complex got[4] = {rows.at(0, fi - b), rows.at(1, fi - b),
                                rows.at(2, fi - b), rows.at(3, fi - b)};
        const Complex want[4] = {one.s11, one.s12, one.s21, one.s22};
        for (int t = 0; t < 4; ++t) {
          EXPECT_TRUE(same_value_bits(got[t].real(), want[t].real()) &&
                      same_value_bits(got[t].imag(), want[t].imag()))
              << "lane " << fi << " of [" << b << ", " << e << ") term " << t;
        }
      }
    }
    EXPECT_THROW(plan.s_params_sweep(ws, 0, grid.size() + 1,
                                     {nullptr, nullptr, 0}),
                 std::logic_error);
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      lanes.push_back(plan.s_params_at(ws, fi));
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Complex specials[] = {{0.0, 0.0},    {-0.0, 0.0}, {nan, 0.3},
                              {0.2, inf},    {1e160, -2e159}, {1e-160, 3e-161},
                              {0.5, -0.25},  {1.0, 0.0},  {-1e154, 1e154}};
  std::mt19937 rng(5u);
  for (std::size_t k = 0; lanes.size() < 150; ++k) {
    rf::SParams s = lanes[k % 32];
    Complex* const entries[4] = {&s.s11, &s.s12, &s.s21, &s.s22};
    *entries[rng() % 4] = specials[rng() % std::size(specials)];
    if (k % 5 == 0) *entries[rng() % 4] = specials[rng() % std::size(specials)];
    if (k % 17 == 0) s.s11 = s.s12 = s.s21 = s.s22 = Complex{0.0, 0.0};
    lanes.push_back(s);
  }
  std::vector<double> re(4 * lanes.size()), im(re.size());
  const rf::SRows rows{re.data(), im.data(), lanes.size()};
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const Complex s[4] = {lanes[k].s11, lanes[k].s12, lanes[k].s21,
                          lanes[k].s22};
    for (std::size_t t = 0; t < 4; ++t) {
      re[t * lanes.size() + k] = s[t].real();
      im[t * lanes.size() + k] = s[t].imag();
    }
  }
  int outside = 0;
  for (const std::size_t offset : {0u, 5u}) {
    const std::size_t n = lanes.size() - offset;
    std::vector<double> mu_src(n), mu_ld(n);
    rf::mu_lanes(rows.from(offset), n, mu_src.data(), mu_ld.data());
    for (std::size_t k = 0; k < n; ++k) {
      const rf::SParams& s = lanes[offset + k];
      EXPECT_TRUE(same_value_bits(mu_src[k], rf::mu_source(s)) &&
                  same_value_bits(mu_ld[k], rf::mu_load(s)))
          << "lane " << offset + k << " at offset " << offset;
      const Complex delta = s.s11 * s.s22 - s.s12 * s.s21;
      outside += !rf::norm_is_accurate(std::norm(s.s12 * s.s21)) ||
                 !rf::norm_is_accurate(
                     std::norm(s.s22 - std::conj(s.s11) * delta));
    }
  }
  EXPECT_GT(outside, 20);
}

// ---------------------------------------------------------------------------
// Digest pin of every report byte

/// FNV-1a over the bytes of every report: what the band pass produces on
/// the pinned corpora, down to the last bit of every field.
struct ReportDigest {
  std::uint64_t h = 1469598103934665603ull;
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void add(const amplifier::BandReport& r) {
    for (const double v : {r.nf_avg_db, r.nf_max_db, r.gt_min_db, r.gt_avg_db,
                           r.s11_worst_db, r.s22_worst_db, r.mu_min, r.id_a}) {
      add_bytes(&v, sizeof v);
    }
  }
  void add_marker(unsigned char m) { add_bytes(&m, 1); }
};

TEST(BatchedPlan, BandReportBytesArePinned) {
  // Three corpora through BandEvaluator: the 64-design DE-step ring of
  // BM_BandEvaluationDeStep (infeasible draws hashed as a marker), 64
  // pseudo yield draws (design and board), and the ring again on an
  // evaluator whose plan holds the scenario catalog's sub-band grids,
  // every grid's report.  The digests hold the reports of the
  // minimum-degree static program (re-pinned when the elimination order
  // moved the last bits, after a 7,200-report corpus matched the
  // diagonal-order reports within reference::kOracleTolerance); any moved
  // bit of any report field fails here.
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  const optimize::Bounds box = amplifier::DesignVector::bounds();
  std::vector<amplifier::DesignVector> ring;
  ReportDigest de;
  {
    amplifier::BandEvaluator evaluator(dev, config);
    numeric::Rng rng(20261017u);
    while (ring.size() < 64) {
      std::vector<double> x = amplifier::DesignVector{}.to_vector();
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] += 0.02 * (box.upper[i] - box.lower[i]) * rng.normal();
      }
      const amplifier::DesignVector d =
          amplifier::DesignVector::from_vector(box.clamp(x));
      try {
        de.add(evaluator.evaluate(d));
        ring.push_back(d);
      } catch (const std::exception&) {
        de.add_marker(1);
      }
    }
  }
  ReportDigest yield;
  {
    amplifier::AmplifierConfig resolved = config;
    resolved.resolve();
    amplifier::BandEvaluator evaluator(dev, resolved);
    const numeric::Rng root(12345);
    for (std::uint64_t trial = 0; trial < 64; ++trial) {
      const amplifier::TrialDraw draw = amplifier::pseudo_trial_draw(
          root, trial, amplifier::DesignVector{}, resolved.substrate, {});
      try {
        yield.add(evaluator.evaluate(draw.design, draw.substrate));
      } catch (const std::exception&) {
        yield.add_marker(1);
      }
    }
  }
  ReportDigest scenario;
  {
    std::vector<std::vector<double>> sub_grids;
    for (const mission::Scenario& s : mission::scenario_catalog()) {
      for (const mission::WalkerShell& shell : s.shells) {
        const std::vector<double> g = mission::sub_band_grid(shell.carrier_hz);
        if (std::find(sub_grids.begin(), sub_grids.end(), g) ==
            sub_grids.end()) {
          sub_grids.push_back(g);
        }
      }
    }
    ASSERT_GT(sub_grids.size(), 1u);
    amplifier::BandEvaluator evaluator(dev, config, {}, sub_grids);
    for (const amplifier::DesignVector& d : ring) {
      (void)evaluator.evaluate(d);
      for (const amplifier::BandReport& r : evaluator.reports()) scenario.add(r);
    }
  }
  EXPECT_EQ(de.h, 0xebbe287db923695cu) << std::hex << de.h;
  EXPECT_EQ(yield.h, 0x9c4c260d5571a07au) << std::hex << yield.h;
  EXPECT_EQ(scenario.h, 0x7c6438545ed914cfu) << std::hex << scenario.h;
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
