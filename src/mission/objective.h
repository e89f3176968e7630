// Constellation-aware design objectives.
//
// mission::ScenarioObjective turns the paper's 2-objective band average
// into scenario-weighted objectives: each active constellation
// contributes a small sub-band grid around its carrier, evaluated in the
// same amplifier::BandEvaluator pass as the full band (one plan over the
// full band, every distinct sub-band grid and the stability lanes), and
// the per-sub-band noise figure / transducer gain are combined with the
// DOP/visibility weights of analyze_scenario():
//
//   f1 =  sum_k w_k NF_avg(sub-band k)      [dB, minimized]
//   f2 = -sum_k w_k GT_min(sub-band k)      [so "gain >= G" is f2 <= -G]
//
// The match/stability/current constraints still run on the full design
// band, so a scenario-optimal design is a legal design of the original
// problem — the scenario only moves where the noise/gain budget is
// spent.  The NF goal is the scenario's physically derived one (from
// T_ant and the SNR-degradation budget).  Evaluation uses the same
// per-thread memo idiom as amplifier/objectives.cpp, so results are
// bit-identical for any optimizer thread count.
#pragma once

#include <memory>

#include "amplifier/design_flow.h"
#include "amplifier/objectives.h"
#include "mission/scenario.h"
#include "optimize/goal_attainment.h"

namespace gnsslna::mission {

/// Half-width of the 3-point sub-band grid laid around each carrier
/// (covers the wideband civil signals on every shell).
inline constexpr double kSubBandHalfWidthHz = 12.0e6;

/// The 3-point evaluation grid of one sub-band.
std::vector<double> sub_band_grid(double carrier_hz);

class ScenarioObjective {
 public:
  /// Analyzes the scenario once; `goals` supplies the gain goal, weights,
  /// and hard-constraint levels, while the NF goal is replaced by the
  /// scenario's derived one.
  ScenarioObjective(const device::Phemt& device,
                    amplifier::AmplifierConfig config, Scenario scenario,
                    amplifier::DesignGoals goals = {});

  const Scenario& scenario() const { return scenario_; }
  const ScenarioAnalysis& analysis() const { return analysis_; }
  /// Effective goals: `goals` with nf_goal_db := analysis().nf_goal_db.
  const amplifier::DesignGoals& goals() const { return goals_; }

  /// Weighted figures of one design point (infeasible designs return the
  /// same finite sentinel the band-average objectives use).
  struct Figures {
    double nf_weighted_db = 0.0;   ///< sum_k w_k NF_avg(k)
    double gt_weighted_db = 0.0;   ///< sum_k w_k GT_min(k)
    amplifier::BandReport full;    ///< full-band constraint report
    std::vector<amplifier::BandReport> sub_bands;  ///< per shell, in order
  };
  Figures figures(const amplifier::DesignVector& design) const;

  /// The weighted bi-objective goal-attainment problem (drives
  /// optimize::improved_goal_attainment / pareto_sweep), with
  /// amplifier::band_constraints on the full-band report.
  optimize::GoalProblem goal_problem() const;

 private:
  class Cache;
  Scenario scenario_;
  ScenarioAnalysis analysis_;
  amplifier::DesignGoals goals_;
  std::shared_ptr<Cache> cache_;
};

/// Scenario analogue of amplifier::run_design_flow: improved goal
/// attainment on the weighted problem, snap to E-series, re-verify both
/// points under the scenario.  Deterministic per rng seed.
struct ScenarioDesignOptions {
  amplifier::DesignGoals goals = {};
  optimize::ImprovedGoalOptions optimizer = {};
  passives::ESeries series = passives::ESeries::kE24;
};

struct ScenarioDesignOutcome {
  ScenarioAnalysis analysis;  ///< the objective's analysis of the scenario
  optimize::GoalResult optimization;
  amplifier::DesignVector continuous;
  ScenarioObjective::Figures continuous_figures;
  amplifier::DesignVector snapped;
  ScenarioObjective::Figures snapped_figures;
};

ScenarioDesignOutcome run_scenario_design(const device::Phemt& device,
                                          amplifier::AmplifierConfig config,
                                          const Scenario& scenario,
                                          numeric::Rng& rng,
                                          ScenarioDesignOptions options = {});

}  // namespace gnsslna::mission
