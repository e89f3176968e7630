// Cross-cutting property tests: invariants that must hold for whole
// families of inputs, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numbers>

#include "circuit/analysis.h"
#include "device/models.h"
#include "microstrip/line.h"
#include "numeric/rng.h"
#include "optimize/nsga2.h"
#include "rf/metrics.h"
#include "rf/noise.h"
#include "rf/units.h"

namespace gnsslna {
namespace {

// ---------------------------------------------------------------------------
// All FET models: default conductances() must agree with the
// finite-difference fallback at every bias of a grid (catches analytic
// derivative bugs whenever a model overrides the default).

class ModelDerivativeSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelDerivativeSweep, ConductancesMatchFiniteDifferences) {
  const auto m = device::make_model(GetParam());
  for (double vgs = -0.5; vgs <= -0.1; vgs += 0.2) {
    for (double vds = 1.0; vds <= 3.0; vds += 1.0) {
      const device::Conductances a = m->conductances(vgs, vds);
      const device::Conductances fd =
          device::finite_difference_conductances(*m, vgs, vds);
      EXPECT_NEAR(a.gm, fd.gm, 1e-4 * std::abs(fd.gm) + 1e-7)
          << GetParam() << " @ " << vgs << "," << vds;
      EXPECT_NEAR(a.gds, fd.gds, 1e-3 * std::abs(fd.gds) + 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ModelDerivativeSweep,
                         ::testing::Values("curtice2", "curtice3", "statz",
                                           "tom", "materka", "angelov"));

// ---------------------------------------------------------------------------
// Microstrip synthesis: round trip over a target-impedance sweep.

class WidthSynthesisSweep : public ::testing::TestWithParam<double> {};

TEST_P(WidthSynthesisSweep, AnalysisReproducesTarget) {
  const double z0_target = GetParam();
  for (const microstrip::Substrate& sub :
       {microstrip::Substrate::fr4(), microstrip::Substrate::ro4350b()}) {
    const double w = microstrip::synthesize_width(sub, z0_target, 1.4e9);
    const microstrip::Line line(sub, w, 5e-3);
    EXPECT_NEAR(line.z0(1.4e9), z0_target, 0.05)
        << "er " << sub.epsilon_r;
  }
}

INSTANTIATE_TEST_SUITE_P(Impedances, WidthSynthesisSweep,
                         ::testing::Values(25.0, 35.0, 50.0, 65.0, 80.0,
                                           95.0, 110.0));

// ---------------------------------------------------------------------------
// Random passive RLC networks: the extracted S-matrix must be reciprocal
// and passive (|S21| <= 1), and the noise figure of the lossy network
// must be >= its insertion loss can explain (F >= 1 always; F == 1 only
// when lossless).

class RandomPassiveNetwork : public ::testing::TestWithParam<int> {};

TEST_P(RandomPassiveNetwork, ReciprocalPassiveAndNoisy) {
  numeric::Rng rng(3000 + GetParam());
  circuit::Netlist nl;
  const circuit::NodeId a = nl.add_node();
  const circuit::NodeId b = nl.add_node();
  std::vector<circuit::NodeId> nodes{a, b};
  // Two internal nodes with random R/L/C between random node pairs.
  for (int i = 0; i < 2; ++i) nodes.push_back(nl.add_node());
  nodes.push_back(circuit::kGround);

  bool lossy = false;
  for (int e = 0; e < 7; ++e) {
    const circuit::NodeId p =
        nodes[rng.uniform_index(nodes.size())];
    circuit::NodeId q = p;
    while (q == p) q = nodes[rng.uniform_index(nodes.size())];
    switch (rng.uniform_index(3)) {
      case 0:
        nl.add_resistor(p, q, rng.uniform(10.0, 300.0));
        lossy = true;
        break;
      case 1:
        nl.add_inductor(p, q, rng.uniform(1e-9, 20e-9));
        break;
      default:
        nl.add_capacitor(p, q, rng.uniform(0.5e-12, 20e-12));
        break;
    }
  }
  // Guarantee a through path so the network is not an open circuit, and
  // tie every internal node weakly to ground so no random draw leaves a
  // floating (singular) node.
  nl.add_resistor(a, b, 150.0);
  for (std::size_t i = 2; i + 1 < nodes.size(); ++i) {
    nl.add_resistor(nodes[i], circuit::kGround, 1e7);  // at T0: stays Bosma-exact
  }
  nl.add_port(a);
  nl.add_port(b);

  for (const double f : {0.8e9, 1.575e9, 2.4e9}) {
    const rf::SParams s = circuit::s_params(nl, f);
    EXPECT_NEAR(std::abs(s.s21 - s.s12), 0.0, 1e-10) << f;  // reciprocity
    EXPECT_LE(std::abs(s.s21), 1.0 + 1e-9) << f;            // passivity
    EXPECT_LE(std::abs(s.s11), 1.0 + 1e-9) << f;
    const double nf =
        circuit::noise_analysis(nl, 0, 1, f).noise_figure_db;
    EXPECT_GE(nf, -1e-9) << f;
    if (lossy) {
      EXPECT_GT(nf, 0.0) << f;
    }
    // Bosma's theorem: a passive network at T0 has F = 1 / G_available
    // EXACTLY, for any mismatch.  This pins the whole noise-correlation
    // machinery against an independent closed form.
    const double ga = rf::available_gain(s, {0.0, 0.0});
    EXPECT_NEAR(nf, -rf::db_from_ratio(ga), 1e-6) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPassiveNetwork, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Noise-parameter physics: for any valid parameter set, F(gamma) >= Fmin
// with equality only at gamma_opt.

class NoiseParamsSweep : public ::testing::TestWithParam<int> {};

TEST_P(NoiseParamsSweep, SourcePullNeverBeatsFmin) {
  numeric::Rng rng(4000 + GetParam());
  rf::NoiseParams np;
  np.frequency_hz = 1.5e9;
  np.f_min = 1.0 + rng.uniform(0.01, 0.8);
  np.r_n = rng.uniform(2.0, 30.0);
  np.gamma_opt = rf::from_mag_deg(rng.uniform(0.05, 0.8),
                                  rng.uniform(-180.0, 180.0));
  for (int k = 0; k < 30; ++k) {
    const rf::Complex gs = rf::from_mag_deg(rng.uniform(0.0, 0.95),
                                            rng.uniform(-180.0, 180.0));
    EXPECT_GE(rf::noise_factor(np, gs), np.f_min - 1e-12);
  }
  EXPECT_NEAR(rf::noise_factor(np, np.gamma_opt), np.f_min, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoiseParamsSweep, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Non-dominated sorting invariants on random objective clouds: the rank
// labels must be exactly consistent with the Pareto dominance relation.

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly = true;
  }
  return strictly;
}

std::vector<std::vector<double>> random_cloud(numeric::Rng& rng,
                                              std::size_t n,
                                              std::size_t objectives) {
  std::vector<std::vector<double>> pts(n);
  for (auto& p : pts) {
    p.resize(objectives);
    for (double& v : p) v = rng.uniform(-1.0, 1.0);
  }
  return pts;
}

class DominanceSortSweep : public ::testing::TestWithParam<int> {};

TEST_P(DominanceSortSweep, RanksAgreeWithPairwiseDominance) {
  numeric::Rng rng(5000 + GetParam());
  const std::size_t objectives = 2 + rng.uniform_index(3);  // 2..4
  const std::vector<std::vector<double>> pts =
      random_cloud(rng, 40, objectives);
  const std::vector<std::size_t> rank = optimize::non_dominated_rank(pts);
  ASSERT_EQ(rank.size(), pts.size());

  std::size_t max_rank = 0;
  for (const std::size_t r : rank) max_rank = std::max(max_rank, r);

  for (std::size_t i = 0; i < pts.size(); ++i) {
    // (a) Dominance strictly lowers rank: if i dominates j then
    // rank[i] < rank[j]; same-front members never dominate each other.
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (dominates(pts[i], pts[j])) {
        EXPECT_LT(rank[i], rank[j]) << i << " dominates " << j;
      }
    }
    // (b) Fronts are tight: every point of rank r > 0 is dominated by at
    // least one point of rank r - 1 (else it would belong to r - 1).
    if (rank[i] > 0) {
      bool covered = false;
      for (std::size_t j = 0; j < pts.size() && !covered; ++j) {
        covered = rank[j] == rank[i] - 1 && dominates(pts[j], pts[i]);
      }
      EXPECT_TRUE(covered) << "point " << i << " rank " << rank[i];
    }
  }
  // (c) Every front level up to the maximum is populated.
  for (std::size_t r = 0; r <= max_rank; ++r) {
    EXPECT_NE(std::count(rank.begin(), rank.end(), r), 0) << "front " << r;
  }
}

TEST_P(DominanceSortSweep, CrowdingDistanceInvariants) {
  numeric::Rng rng(6000 + GetParam());
  const std::size_t objectives = 2 + rng.uniform_index(2);  // 2..3
  std::vector<std::vector<double>> pts = random_cloud(rng, 25, objectives);
  const std::vector<double> d = optimize::crowding_distance(pts);
  ASSERT_EQ(d.size(), pts.size());

  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < objectives; ++k) {
    // The extreme point of every objective must be a boundary point.
    std::size_t lo = 0, hi = 0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (pts[i][k] < pts[lo][k]) lo = i;
      if (pts[i][k] > pts[hi][k]) hi = i;
    }
    EXPECT_EQ(d[lo], inf) << "objective " << k;
    EXPECT_EQ(d[hi], inf) << "objective " << k;
  }
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(d[i], 0.0) << i;  // distances are sums of non-negative spans
  }

  // Tiny fronts are all boundary.
  const std::vector<std::vector<double>> pair = {pts[0], pts[1]};
  for (const double v : optimize::crowding_distance(pair)) {
    EXPECT_EQ(v, inf);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceSortSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace gnsslna
