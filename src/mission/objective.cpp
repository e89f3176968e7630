#include "mission/objective.h"

#include <cmath>

#include "numeric/parallel.h"
#include "obs/obs.h"

namespace gnsslna::mission {

std::vector<double> sub_band_grid(double carrier_hz) {
  return {carrier_hz - kSubBandHalfWidthHz, carrier_hz,
          carrier_hz + kSubBandHalfWidthHz};
}

/// Memoizes the Figures of the most recent design point, with one
/// persistent BandEvaluator whose plan holds the full band and every
/// distinct sub-band grid.  Slots are per thread
/// (numeric::PerThreadSlots), exactly like
/// amplifier/objectives.cpp::ReportCache: closures may be evaluated
/// concurrently by parallel_map, recomputation is pure, so reports are
/// bit-identical for any thread count.  The cache owns its slots, so
/// destroying the objective frees every thread's evaluator.
class ScenarioObjective::Cache {
 public:
  Cache(device::Phemt device, amplifier::AmplifierConfig config,
        const ScenarioAnalysis& analysis)
      : device_(std::move(device)), config_(std::move(config)) {
    config_.resolve();
    // Distinct sub-band grids (GPS and Galileo share 1575.42 MHz; one
    // grid serves both).  The evaluator's report 0 is the full band, so
    // grid g is its report g + 1.
    for (const SubBand& band : analysis.sub_bands) {
      const std::vector<double> grid = sub_band_grid(band.carrier_hz);
      std::size_t g = 0;
      while (g < sub_grids_.size() && sub_grids_[g] != grid) ++g;
      if (g == sub_grids_.size()) sub_grids_.push_back(grid);
      report_of_band_.push_back(g + 1);
      weights_.push_back(band.weight);
    }
  }

  const Figures& at(const std::vector<double>& x) const {
    Slot& slot = slots_.local();
    if (slot.valid && x == slot.x) return slot.figures;
    GNSSLNA_OBS_COUNT("mission.objective.evaluations");
    slot.valid = true;
    slot.x = x;
    if (slot.evaluator == nullptr) {
      slot.evaluator = std::make_unique<amplifier::BandEvaluator>(
          device_, config_, amplifier::LnaDesign::default_band(), sub_grids_);
    }

    Figures& f = slot.figures;
    f.sub_bands.assign(report_of_band_.size(), amplifier::BandReport{});
    try {
      f.full = slot.evaluator->evaluate(amplifier::DesignVector::from_vector(x));
      const std::vector<amplifier::BandReport>& reports =
          slot.evaluator->reports();
      f.nf_weighted_db = 0.0;
      f.gt_weighted_db = 0.0;
      for (std::size_t k = 0; k < report_of_band_.size(); ++k) {
        f.sub_bands[k] = reports[report_of_band_[k]];
        f.nf_weighted_db += weights_[k] * f.sub_bands[k].nf_avg_db;
        f.gt_weighted_db += weights_[k] * f.sub_bands[k].gt_min_db;
      }
    } catch (const std::exception&) {
      GNSSLNA_OBS_COUNT("mission.objective.infeasible");
      const amplifier::BandReport bad = amplifier::infeasible_report();
      f.full = bad;
      for (auto& rep : f.sub_bands) rep = bad;
      f.nf_weighted_db = bad.nf_avg_db;
      f.gt_weighted_db = bad.gt_min_db;
    }
    return f;
  }

 private:
  struct Slot {
    bool valid = false;
    std::vector<double> x;
    Figures figures;
    std::unique_ptr<amplifier::BandEvaluator> evaluator;
  };

  device::Phemt device_;
  amplifier::AmplifierConfig config_;
  std::vector<std::vector<double>> sub_grids_;  ///< distinct sub-band grids
  std::vector<std::size_t> report_of_band_;  ///< sub-band -> report index
  std::vector<double> weights_;
  numeric::PerThreadSlots<Slot> slots_;
};

ScenarioObjective::ScenarioObjective(const device::Phemt& device,
                                     amplifier::AmplifierConfig config,
                                     Scenario scenario,
                                     amplifier::DesignGoals goals)
    : scenario_(std::move(scenario)),
      analysis_(analyze_scenario(scenario_)),
      goals_(goals) {
  goals_.nf_goal_db = analysis_.nf_goal_db;
  cache_ = std::make_shared<Cache>(device, std::move(config), analysis_);
}

ScenarioObjective::Figures ScenarioObjective::figures(
    const amplifier::DesignVector& design) const {
  return cache_->at(design.to_vector());
}

optimize::GoalProblem ScenarioObjective::goal_problem() const {
  const std::shared_ptr<Cache> cache = cache_;

  optimize::GoalProblem problem;
  problem.objectives = [cache](const std::vector<double>& x) {
    const Figures& f = cache->at(x);
    return std::vector<double>{f.nf_weighted_db, -f.gt_weighted_db};
  };
  problem.goals = {goals_.nf_goal_db, -goals_.gain_goal_db};
  problem.weights = {goals_.nf_weight, goals_.gain_weight};
  problem.bounds = amplifier::DesignVector::bounds();
  problem.constraints = amplifier::band_constraints(
      [cache](const std::vector<double>& x) -> const amplifier::BandReport& {
        return cache->at(x).full;
      },
      goals_);
  return problem;
}

ScenarioDesignOutcome run_scenario_design(const device::Phemt& device,
                                          amplifier::AmplifierConfig config,
                                          const Scenario& scenario,
                                          numeric::Rng& rng,
                                          ScenarioDesignOptions options) {
  GNSSLNA_OBS_SPAN("mission.scenario_design");
  config.resolve();
  const ScenarioObjective objective(device, config, scenario, options.goals);
  const optimize::GoalProblem problem = objective.goal_problem();

  ScenarioDesignOutcome out;
  out.analysis = objective.analysis();
  out.optimization =
      optimize::improved_goal_attainment(problem, rng, options.optimizer);
  out.continuous = amplifier::DesignVector::from_vector(out.optimization.x);
  out.continuous_figures = objective.figures(out.continuous);
  out.snapped = amplifier::snap_design(out.continuous, options.series);
  out.snapped_figures = objective.figures(out.snapped);
  return out;
}

}  // namespace gnsslna::mission
