// Mission-scenario library: Walker geometry, DOP, sky brightness,
// scenario analysis, and the constellation-weighted objectives.
//
// The geometry/weight goldens pin the deterministic reduction: any change
// to the constellation presets, the observer grids, the quadrature, or
// the weighting formula shows up as an exact-value failure here, not as a
// silent drift of every scenario-optimal design downstream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "mission/constellation.h"
#include "mission/objective.h"
#include "mission/scenario.h"
#include "mission/sky.h"
#include "numeric/rng.h"
#include "optimize/goal_attainment.h"

namespace gnsslna {
namespace {

// --- Walker constellation geometry -----------------------------------------

TEST(Constellation, GpsSlotZeroStartsOnTheEquatorAtEpoch) {
  // raan0 = anomaly0 = 0: plane 0 / slot 0 sits at (r, 0, 0) in ECEF.
  const mission::WalkerShell gps = mission::gps_shell();
  const mission::EcefVec p = mission::satellite_position(gps, 0, 0, 0.0);
  const double r = mission::kEarthRadiusM + gps.altitude_m;
  EXPECT_NEAR(p.x, r, 1e-6);
  EXPECT_NEAR(p.y, 0.0, 1e-6);
  EXPECT_NEAR(p.z, 0.0, 1e-6);
}

TEST(Constellation, OrbitRadiusIsConserved) {
  const mission::WalkerShell gal = mission::galileo_shell();
  const double r = mission::kEarthRadiusM + gal.altitude_m;
  for (const double t : {0.0, 1234.5, 86400.0}) {
    const mission::EcefVec p = mission::satellite_position(gal, 2, 5, t);
    EXPECT_NEAR(std::sqrt(p.x * p.x + p.y * p.y + p.z * p.z), r, 1e-3) << t;
  }
}

TEST(Constellation, InclinationBoundsLatitude) {
  // |z| <= r sin(i): a satellite never climbs above its inclination.
  const mission::WalkerShell gps = mission::gps_shell();
  const double r = mission::kEarthRadiusM + gps.altitude_m;
  const double z_max = r * std::sin(55.0 * std::numbers::pi / 180.0);
  for (std::size_t s = 0; s < 4; ++s) {
    for (const double t : {0.0, 3600.0, 7200.0, 40000.0}) {
      const mission::EcefVec p = mission::satellite_position(gps, 1, s, t);
      EXPECT_LE(std::abs(p.z), z_max + 1e-3);
    }
  }
}

TEST(Constellation, GoldenVisibilityAndLookAngles) {
  // Pinned mid-latitude snapshot: 8 GPS satellites over (45 N, 180 E) at
  // the epoch, listed in (plane, slot) order.
  const mission::WalkerShell gps = mission::gps_shell();
  const mission::Observer obs{45.0, 180.0};
  const std::vector<mission::VisibleSat> vis =
      mission::visible_satellites(gps, obs, 0.0);
  ASSERT_EQ(vis.size(), 8u);
  EXPECT_EQ(vis[0].plane, 0u);
  EXPECT_EQ(vis[0].slot, 1u);
  EXPECT_NEAR(vis[0].elevation_deg, 22.597242803, 1e-6);
  EXPECT_NEAR(vis[0].azimuth_deg, 315.280885608, 1e-6);
  EXPECT_NEAR(vis[0].range_m, 23443228.935, 1e-2);
  EXPECT_NEAR(vis[1].elevation_deg, 33.450936531, 1e-6);
  EXPECT_NEAR(vis[1].azimuth_deg, 180.0, 1e-6);  // due south by symmetry
  for (const mission::VisibleSat& v : vis) {
    EXPECT_GE(v.elevation_deg, gps.elevation_mask_deg);
  }
}

TEST(Constellation, GoldenDop) {
  const std::vector<mission::VisibleSat> vis = mission::visible_satellites(
      mission::gps_shell(), mission::Observer{45.0, 180.0}, 0.0);
  const mission::Dop dop = mission::dop_from(vis);
  EXPECT_NEAR(dop.gdop, 1.891530583, 1e-8);
  EXPECT_NEAR(dop.pdop, 1.701078336, 1e-8);
  EXPECT_NEAR(dop.hdop, 1.010561588, 1e-8);
  EXPECT_NEAR(dop.vdop, 1.368368657, 1e-8);
  EXPECT_NEAR(dop.tdop, 0.827176185, 1e-8);
  // Pythagorean identities of the covariance decomposition.
  EXPECT_NEAR(dop.gdop * dop.gdop, dop.pdop * dop.pdop + dop.tdop * dop.tdop,
              1e-9);
  EXPECT_NEAR(dop.pdop * dop.pdop, dop.hdop * dop.hdop + dop.vdop * dop.vdop,
              1e-9);
}

TEST(Constellation, DopUnavailableBelowFourSatellites) {
  std::vector<mission::VisibleSat> vis = mission::visible_satellites(
      mission::gps_shell(), mission::Observer{45.0, 180.0}, 0.0);
  vis.resize(3);
  const mission::Dop dop = mission::dop_from(vis);
  EXPECT_EQ(dop.gdop, mission::kDopUnavailable);
  EXPECT_EQ(dop.pdop, mission::kDopUnavailable);
  EXPECT_EQ(dop.visible, 3u);
}

TEST(Constellation, ExtraMaskOnlyRemovesSatellites) {
  const mission::WalkerShell gps = mission::gps_shell();
  const mission::Observer obs{25.0, 60.0};
  for (const double t : {0.0, 5400.0, 10800.0}) {
    const auto open = mission::visible_satellites(gps, obs, t);
    const auto masked = mission::visible_satellites(gps, obs, t, 25.0);
    EXPECT_LE(masked.size(), open.size());
    for (const mission::VisibleSat& v : masked) {
      EXPECT_GE(v.elevation_deg, 25.0);
    }
  }
}

TEST(Constellation, GeometryIsBitIdenticalAcrossCalls) {
  const mission::WalkerShell glo = mission::glonass_shell();
  const mission::Observer obs{66.0, 0.0};
  const auto a = mission::visible_satellites(glo, obs, 5400.0);
  const auto b = mission::visible_satellites(glo, obs, 5400.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].elevation_deg, b[i].elevation_deg);
    EXPECT_EQ(a[i].azimuth_deg, b[i].azimuth_deg);
    EXPECT_EQ(a[i].range_m, b[i].range_m);
  }
  const mission::Dop da = mission::dop_from(a);
  const mission::Dop db = mission::dop_from(b);
  EXPECT_EQ(da.gdop, db.gdop);
  EXPECT_EQ(da.pdop, db.pdop);
}

// --- sky brightness and antenna temperature --------------------------------

TEST(Sky, GoldenBrightness) {
  const mission::SkyModel sky;
  EXPECT_NEAR(mission::sky_temperature_k(sky, 90.0), 4.058101916, 1e-6);
  EXPECT_NEAR(mission::sky_temperature_k(sky, 5.0), 17.881817456, 1e-6);
}

TEST(Sky, BrightnessFallsWithElevation) {
  const mission::SkyModel sky;
  double prev = 1e9;
  for (const double el : {3.0, 10.0, 30.0, 60.0, 90.0}) {
    const double t = mission::sky_temperature_k(sky, el);
    EXPECT_LT(t, prev) << el;
    EXPECT_GT(t, sky.t_cosmic_k);
    prev = t;
  }
}

TEST(Sky, PatternInterpolatesAndValidates) {
  const mission::AntennaPattern pattern;
  EXPECT_NEAR(mission::pattern_gain_dbi(pattern, 90.0), 5.0, 1e-12);
  EXPECT_NEAR(mission::pattern_gain_dbi(pattern, 0.0), -4.0, 1e-12);
  EXPECT_NEAR(mission::pattern_gain_dbi(pattern, -30.0), -14.0, 1e-12);
  EXPECT_THROW(mission::pattern_gain_dbi(pattern, 90.5),
               std::invalid_argument);
  EXPECT_THROW(mission::pattern_gain_dbi(pattern, -91.0),
               std::invalid_argument);
}

TEST(Sky, GoldenAntennaTemperature) {
  EXPECT_NEAR(mission::antenna_temperature_k(mission::SkyModel{},
                                             mission::AntennaPattern{}),
              83.156937875943, 1e-8);
  // A lossless aperture sees only the beam-weighted sky + ground.
  mission::AntennaPattern lossless;
  lossless.radiation_efficiency = 1.0;
  EXPECT_NEAR(
      mission::antenna_temperature_k(mission::SkyModel{}, lossless),
      14.209250501, 1e-6);
}

TEST(Sky, BlockedHorizonWarmsTheAntenna) {
  mission::SkyModel canyon;
  canyon.horizon_elevation_deg = 30.0;
  EXPECT_GT(
      mission::antenna_temperature_k(canyon, mission::AntennaPattern{}),
      mission::antenna_temperature_k(mission::SkyModel{},
                                     mission::AntennaPattern{}));
}

TEST(Sky, AntennaTemperatureValidates) {
  mission::AntennaPattern bad;
  bad.radiation_efficiency = 0.0;
  EXPECT_THROW(mission::antenna_temperature_k(mission::SkyModel{}, bad),
               std::invalid_argument);
  EXPECT_THROW(mission::antenna_temperature_k(mission::SkyModel{},
                                              mission::AntennaPattern{}, 1),
               std::invalid_argument);
}

// --- scenario catalog and analysis -----------------------------------------

TEST(Scenario, CatalogIsStable) {
  const std::vector<mission::Scenario>& catalog = mission::scenario_catalog();
  ASSERT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog[0].name, "open_sky");
  EXPECT_EQ(catalog[1].name, "urban_canyon");
  EXPECT_EQ(catalog[2].name, "high_latitude");
  EXPECT_EQ(catalog[3].name, "jammed");
  EXPECT_EQ(mission::find_scenario("open_sky"), &catalog[0]);
  EXPECT_EQ(mission::find_scenario("nonesuch"), nullptr);
  for (const mission::Scenario& s : catalog) {
    EXPECT_EQ(s.shells.size(), 4u) << s.name;
    EXPECT_FALSE(s.observers.empty()) << s.name;
    EXPECT_FALSE(s.epochs_s.empty()) << s.name;
  }
}

TEST(Scenario, GoldenOpenSkyAnalysis) {
  const mission::ScenarioAnalysis a =
      mission::analyze_scenario(*mission::find_scenario("open_sky"));
  EXPECT_NEAR(a.t_ant_k, 83.156937875943, 1e-8);
  EXPECT_NEAR(a.nf_goal_db, 0.874868606923, 1e-9);
  ASSERT_EQ(a.sub_bands.size(), 4u);
  EXPECT_EQ(a.sub_bands[0].constellation, "GPS");
  EXPECT_NEAR(a.sub_bands[0].weight, 0.256650755543, 1e-10);
  EXPECT_NEAR(a.sub_bands[0].mean_visible, 8.125, 1e-12);
  EXPECT_NEAR(a.sub_bands[0].mean_pdop, 1.855128212575, 1e-9);
  EXPECT_NEAR(a.sub_bands[0].mean_signal_dbw, -155.162650731326, 1e-8);
  EXPECT_EQ(a.sub_bands[1].constellation, "GLONASS");
  EXPECT_NEAR(a.sub_bands[1].weight, 0.236506434615, 1e-10);
  EXPECT_EQ(a.sub_bands[3].constellation, "BeiDou");
  EXPECT_NEAR(a.sub_bands[3].weight, 0.254464751658, 1e-10);
}

TEST(Scenario, WeightsArePositiveAndNormalized) {
  for (const mission::Scenario& s : mission::scenario_catalog()) {
    const mission::ScenarioAnalysis a = mission::analyze_scenario(s);
    double sum = 0.0;
    for (const mission::SubBand& b : a.sub_bands) {
      EXPECT_GT(b.weight, 0.0) << s.name << " " << b.constellation;
      sum += b.weight;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << s.name;
    EXPECT_GT(a.t_ant_k, 2.7) << s.name;
    EXPECT_GT(a.nf_goal_db, 0.0) << s.name;
  }
}

TEST(Scenario, UrbanCanyonIsWarmerAndGeometryStarved) {
  const mission::ScenarioAnalysis open =
      mission::analyze_scenario(*mission::find_scenario("open_sky"));
  const mission::ScenarioAnalysis urban =
      mission::analyze_scenario(*mission::find_scenario("urban_canyon"));
  EXPECT_NEAR(urban.t_ant_k, 137.578139977617, 1e-8);
  EXPECT_GT(urban.t_ant_k, open.t_ant_k);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_LT(urban.sub_bands[k].mean_visible, open.sub_bands[k].mean_visible);
    EXPECT_GT(urban.sub_bands[k].mean_pdop, open.sub_bands[k].mean_pdop);
  }
  // The 25-degree mask leaves BeiDou's geometry the most usable; the
  // weighting concentrates there.
  EXPECT_NEAR(urban.sub_bands[3].weight, 0.601059035352, 1e-9);
}

TEST(Scenario, AnalysisIsBitIdenticalAcrossRuns) {
  const mission::Scenario& s = *mission::find_scenario("high_latitude");
  const mission::ScenarioAnalysis a = mission::analyze_scenario(s);
  const mission::ScenarioAnalysis b = mission::analyze_scenario(s);
  EXPECT_EQ(a.t_ant_k, b.t_ant_k);
  EXPECT_EQ(a.nf_goal_db, b.nf_goal_db);
  for (std::size_t k = 0; k < a.sub_bands.size(); ++k) {
    EXPECT_EQ(a.sub_bands[k].weight, b.sub_bands[k].weight);
    EXPECT_EQ(a.sub_bands[k].mean_pdop, b.sub_bands[k].mean_pdop);
    EXPECT_EQ(a.sub_bands[k].mean_signal_dbw, b.sub_bands[k].mean_signal_dbw);
  }
}

TEST(Scenario, AnalyzeValidates) {
  mission::Scenario empty = *mission::find_scenario("open_sky");
  empty.shells.clear();
  EXPECT_THROW(mission::analyze_scenario(empty), std::invalid_argument);
  mission::Scenario unobserved = *mission::find_scenario("open_sky");
  unobserved.observers.clear();
  EXPECT_THROW(mission::analyze_scenario(unobserved), std::invalid_argument);
}

TEST(Scenario, GoldenCn0) {
  const mission::Scenario& s = *mission::find_scenario("open_sky");
  const mission::ScenarioAnalysis a = mission::analyze_scenario(s);
  const double cn0 =
      mission::sub_band_cn0_dbhz(a, a.sub_bands[0], s.link, 15.0, 0.9);
  EXPECT_NEAR(cn0, 46.396276184862, 1e-8);
  // A noisier preamp can only lose C/N0.
  EXPECT_LT(mission::sub_band_cn0_dbhz(a, a.sub_bands[0], s.link, 15.0, 3.0),
            cn0);
}

TEST(Scenario, BlockerOptionsMapOntoTheExtension) {
  // No blocker declared -> the nonlinear extension's GSM-900 defaults,
  // unchanged (the no-scenario behavior of PR-6 is preserved).
  const nonlinear::BlockerOptions plain =
      mission::blocker_options(*mission::find_scenario("open_sky"));
  const nonlinear::BlockerOptions defaults;
  EXPECT_EQ(plain.f_signal_hz, defaults.f_signal_hz);
  EXPECT_EQ(plain.f_blocker_hz, defaults.f_blocker_hz);
  EXPECT_EQ(plain.p_signal_dbm, defaults.p_signal_dbm);
  EXPECT_EQ(plain.samples, defaults.samples);

  const mission::Scenario& jammed = *mission::find_scenario("jammed");
  ASSERT_TRUE(jammed.blocker.has_value());
  const nonlinear::BlockerOptions opts = mission::blocker_options(jammed);
  EXPECT_EQ(opts.f_blocker_hz, 1030.0e6);
  EXPECT_EQ(opts.f_signal_hz, defaults.f_signal_hz);
}

// --- scenario-weighted objectives ------------------------------------------

TEST(ScenarioObjective, SubBandGridBracketsTheCarrier) {
  const std::vector<double> grid = mission::sub_band_grid(1575.42e6);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_LT(grid[0], grid[1]);
  EXPECT_LT(grid[1], grid[2]);
  EXPECT_EQ(grid[1], 1575.42e6);
}

TEST(ScenarioObjective, GoldenWeightedFiguresAtDefaultDesign) {
  const mission::ScenarioObjective objective(
      device::Phemt::reference_device(), amplifier::AmplifierConfig{},
      *mission::find_scenario("open_sky"));
  const mission::ScenarioObjective::Figures f =
      objective.figures(amplifier::DesignVector{});
  EXPECT_NEAR(f.nf_weighted_db, 0.749012382220, 1e-9);
  EXPECT_NEAR(f.gt_weighted_db, 12.971300539709, 1e-9);
  ASSERT_EQ(f.sub_bands.size(), 4u);
  // The weighted figure is exactly the weight-dotted per-sub-band report.
  double nf = 0.0;
  const mission::ScenarioAnalysis& a = objective.analysis();
  for (std::size_t k = 0; k < f.sub_bands.size(); ++k) {
    nf += a.sub_bands[k].weight * f.sub_bands[k].nf_avg_db;
  }
  EXPECT_EQ(nf, f.nf_weighted_db);
  // Full-band constraint report matches the plain evaluator's view.
  EXPECT_NEAR(f.full.nf_avg_db, 0.680293477717, 1e-9);
}

TEST(ScenarioObjective, GoalsInheritTheDerivedNfGoal) {
  amplifier::DesignGoals goals;
  goals.gain_goal_db = 15.0;
  const mission::ScenarioObjective objective(
      device::Phemt::reference_device(), amplifier::AmplifierConfig{},
      *mission::find_scenario("urban_canyon"), goals);
  EXPECT_EQ(objective.goals().nf_goal_db, objective.analysis().nf_goal_db);
  EXPECT_EQ(objective.goals().gain_goal_db, 15.0);
  const optimize::GoalProblem problem = objective.goal_problem();
  ASSERT_EQ(problem.goals.size(), 2u);
  EXPECT_EQ(problem.goals[0], objective.analysis().nf_goal_db);
  EXPECT_EQ(problem.goals[1], -15.0);
  EXPECT_EQ(problem.constraints.size(), 4u);
}

TEST(ScenarioObjective, ObjectivesAndConstraintsAreFinite) {
  const mission::ScenarioObjective objective(
      device::Phemt::reference_device(), amplifier::AmplifierConfig{},
      *mission::find_scenario("jammed"));
  const optimize::GoalProblem problem = objective.goal_problem();
  const std::vector<double> x = amplifier::DesignVector{}.to_vector();
  const std::vector<double> f = problem.objectives(x);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(std::isfinite(f[0]));
  EXPECT_TRUE(std::isfinite(f[1]));
  for (const optimize::ConstraintFn& c : problem.constraints) {
    EXPECT_TRUE(std::isfinite(c(x)));
  }
}

TEST(ScenarioObjective, SharedPlanReportsEqualOneEvaluatorPerGridBitForBit) {
  // One BandEvaluator over the band and the catalog's distinct sub-band
  // grids against one evaluator per grid, both persistent across a walk
  // of DE-step designs, uniform box draws, a box corner and an infeasible
  // point: every lane is computed independently of the lanes sharing its
  // plan, so each report keeps its bits, and a point fails on both sides
  // or on none.  About 1 in 40 box draws has its lowest mu inside a
  // sub-band, which a mu that strays onto the sub-band lanes would take.
  const device::Phemt dev = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  std::vector<std::vector<double>> grids;
  for (const mission::Scenario& scenario : mission::scenario_catalog()) {
    for (const mission::WalkerShell& shell : scenario.shells) {
      const std::vector<double> grid = mission::sub_band_grid(shell.carrier_hz);
      if (std::find(grids.begin(), grids.end(), grid) == grids.end()) {
        grids.push_back(grid);
      }
    }
  }
  ASSERT_EQ(grids.size(), 3u);
  amplifier::BandEvaluator shared(dev, config, {}, grids);
  std::vector<amplifier::BandEvaluator> alone;
  alone.emplace_back(dev, config);
  for (const std::vector<double>& grid : grids) {
    alone.emplace_back(dev, config, grid);
  }

  const optimize::Bounds box = amplifier::DesignVector::bounds();
  std::vector<amplifier::DesignVector> walk;
  numeric::Rng rng(20261018u);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> x = amplifier::DesignVector{}.to_vector();
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] += 0.02 * (box.upper[j] - box.lower[j]) * rng.normal();
    }
    walk.push_back(amplifier::DesignVector::from_vector(box.clamp(x)));
  }
  for (int i = 0; i < 240; ++i) {
    std::vector<double> x(box.dimension());
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = box.lower[j] + (box.upper[j] - box.lower[j]) * rng.uniform();
    }
    walk.push_back(amplifier::DesignVector::from_vector(x));
  }
  walk.push_back(amplifier::DesignVector::from_vector(box.upper));
  amplifier::DesignVector infeasible;
  infeasible.vds = config.vdd;
  walk.push_back(infeasible);
  walk.push_back(amplifier::DesignVector{});

  std::size_t failed = 0;
  for (std::size_t p = 0; p < walk.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    bool shared_threw = false;
    try {
      (void)shared.evaluate(walk[p]);
    } catch (const std::exception&) {
      shared_threw = true;
    }
    ASSERT_EQ(shared.reports().size(), alone.size());
    for (std::size_t g = 0; g < alone.size(); ++g) {
      SCOPED_TRACE("grid " + std::to_string(g));
      amplifier::BandReport expected;
      bool alone_threw = false;
      try {
        expected = alone[g].evaluate(walk[p]);
      } catch (const std::exception&) {
        alone_threw = true;
      }
      ASSERT_EQ(shared_threw, alone_threw);
      if (!shared_threw) {
        EXPECT_EQ(std::memcmp(&shared.reports()[g], &expected,
                              sizeof(expected)),
                  0);
      }
    }
    failed += shared_threw ? 1 : 0;
  }
  // The vds = vdd point cannot be biased; the walk's other points can.
  EXPECT_GE(failed, 1u);
  EXPECT_LT(failed, walk.size() / 2);
}

mission::ScenarioDesignOptions tiny_scenario_options(std::size_t threads) {
  mission::ScenarioDesignOptions options;
  options.optimizer.threads = threads;
  options.optimizer.de_generations = 2;
  options.optimizer.de_population = 8;
  options.optimizer.polish_evaluations = 40;
  return options;
}

TEST(ScenarioObjective, DesignFlowBitIdenticalAcrossThreadCounts) {
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  const mission::Scenario& scenario = *mission::find_scenario("open_sky");

  numeric::Rng rng1(11);
  const mission::ScenarioDesignOutcome serial = mission::run_scenario_design(
      device, config, scenario, rng1, tiny_scenario_options(1));
  for (const std::size_t threads : {2u, 4u}) {
    numeric::Rng rng(11);
    const mission::ScenarioDesignOutcome parallel =
        mission::run_scenario_design(device, config, scenario, rng,
                                     tiny_scenario_options(threads));
    EXPECT_EQ(serial.optimization.x, parallel.optimization.x) << threads;
    EXPECT_EQ(serial.optimization.attainment,
              parallel.optimization.attainment)
        << threads;
    EXPECT_EQ(serial.snapped_figures.nf_weighted_db,
              parallel.snapped_figures.nf_weighted_db)
        << threads;
    EXPECT_EQ(serial.snapped_figures.gt_weighted_db,
              parallel.snapped_figures.gt_weighted_db)
        << threads;
    EXPECT_EQ(serial.snapped_figures.full.mu_min,
              parallel.snapped_figures.full.mu_min)
        << threads;
  }
}

TEST(ScenarioObjective, SnappedDesignStaysInsideTheBox) {
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  numeric::Rng rng(3);
  const mission::ScenarioDesignOutcome out = mission::run_scenario_design(
      device, config, *mission::find_scenario("urban_canyon"), rng,
      tiny_scenario_options(1));
  const optimize::Bounds box = amplifier::DesignVector::bounds();
  const std::vector<double> x = out.continuous.to_vector();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x[i], box.lower[i]) << i;
    EXPECT_LE(x[i], box.upper[i]) << i;
  }
  EXPECT_GT(out.optimization.evaluations, 0u);
}

}  // namespace
}  // namespace gnsslna
