// The LNA design problem as a goal-attainment problem.
//
// Objectives (all minimized, all in dB):
//   f1 = band-average noise figure
//   f2 = -min transducer gain      (so "gain >= G" becomes f2 <= -G)
//   f3 = worst in-band |S11|
//   f4 = worst in-band |S22|
// Hard constraints:
//   mu_min >= mu_margin  (unconditional stability, extended grid)
//   Id <= id_max         (supply budget of an antenna-mounted preamp)
//
// Objective and constraint closures share one memoized BandReport per
// design point, so the expensive netlist analyses run once per point.
#pragma once

#include <functional>
#include <memory>

#include "amplifier/lna.h"
#include "optimize/goal_attainment.h"

namespace gnsslna::amplifier {

struct DesignGoals {
  double nf_goal_db = 0.8;
  double gain_goal_db = 14.0;   ///< minimum in-band GT
  double s11_goal_db = -10.0;
  double s22_goal_db = -10.0;
  // Relative over-attainment weights (bigger = softer goal).
  double nf_weight = 1.0;
  double gain_weight = 1.0;
  double s11_weight = 2.0;
  double s22_weight = 2.0;

  double mu_margin = 1.02;      ///< required stability margin
  double id_max_a = 0.040;      ///< current budget [A]
};

/// Sentinel report for design points that cannot be built (bias
/// unreachable etc.): terrible but finite, so optimizers move away
/// smoothly instead of crashing.  Shared by every objective built on
/// BandReport (the band-average problems and mission::ScenarioObjective).
BandReport infeasible_report();

/// The hard constraints of the problems that keep the match goals hard
/// (make_nf_gain_problem, mission::ScenarioObjective::goal_problem), in
/// order: mu margin, S11, S22, and the current budget scaled to O(1) per
/// 10 mA of overrun.  `at` returns the report of a design point.
std::vector<optimize::ConstraintFn> band_constraints(
    std::function<const BandReport&(const std::vector<double>&)> at,
    const DesignGoals& goals);

/// Builds the full goal-attainment problem over DesignVector::bounds().
///
/// `shared_evaluator` is an optional externally owned evaluation engine
/// (e.g. a service::PlanCache lease): when non-null the problem's closures
/// evaluate through IT instead of building per-thread evaluators, so
/// concurrent jobs on the same topology reuse one set of compiled stamps.
/// The lease must have been built for the SAME (device, resolved config,
/// band) — reports are then bit-identical to the per-thread path — and,
/// because BandEvaluator is not thread-safe, the caller must evaluate the
/// problem serially (optimizer threads == 1).
optimize::GoalProblem make_goal_problem(
    const device::Phemt& device, AmplifierConfig config, DesignGoals goals,
    std::vector<double> band_hz = {},
    std::shared_ptr<BandEvaluator> shared_evaluator = nullptr);

/// Reduced bi-objective (NF, -GT) problem for the Pareto sweep (Fig. 2);
/// match goals become hard constraints.  `shared_evaluator` as above.
optimize::GoalProblem make_nf_gain_problem(
    const device::Phemt& device, AmplifierConfig config, DesignGoals goals,
    std::vector<double> band_hz = {},
    std::shared_ptr<BandEvaluator> shared_evaluator = nullptr);

}  // namespace gnsslna::amplifier
