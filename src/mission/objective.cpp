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
/// persistent BandEvaluator per distinct evaluation grid.  Slots are per
/// thread (numeric::PerThreadSlots), exactly like
/// amplifier/objectives.cpp::ReportCache: closures may be evaluated
/// concurrently by parallel_map, recomputation is pure, so reports are
/// bit-identical for any thread count.  The cache owns its slots, so
/// destroying the objective frees every thread's evaluators.
class ScenarioObjective::Cache {
 public:
  Cache(device::Phemt device, amplifier::AmplifierConfig config,
        const ScenarioAnalysis& analysis)
      : device_(std::move(device)), config_(std::move(config)) {
    config_.resolve();
    // Distinct sub-band grids (GPS and Galileo share 1575.42 MHz; one
    // evaluator serves both).
    for (const SubBand& band : analysis.sub_bands) {
      std::size_t g = 0;
      for (; g < carriers_.size(); ++g) {
        if (carriers_[g] == band.carrier_hz) break;
      }
      if (g == carriers_.size()) carriers_.push_back(band.carrier_hz);
      grid_of_band_.push_back(g);
      weights_.push_back(band.weight);
    }
  }

  const Figures& at(const std::vector<double>& x) const {
    Slot& slot = slots_.local();
    if (slot.valid && x == slot.x) return slot.figures;
    GNSSLNA_OBS_COUNT("mission.objective.evaluations");
    slot.valid = true;
    slot.x = x;
    if (slot.full == nullptr) {
      slot.full = std::make_unique<amplifier::BandEvaluator>(
          device_, config_, amplifier::LnaDesign::default_band());
      for (const double carrier : carriers_) {
        slot.sub.push_back(std::make_unique<amplifier::BandEvaluator>(
            device_, config_, sub_band_grid(carrier)));
      }
    }

    Figures& f = slot.figures;
    f.sub_bands.assign(grid_of_band_.size(), amplifier::BandReport{});
    try {
      const amplifier::DesignVector d = amplifier::DesignVector::from_vector(x);
      f.full = slot.full->evaluate(d);
      std::vector<amplifier::BandReport> per_grid(carriers_.size());
      for (std::size_t g = 0; g < carriers_.size(); ++g) {
        per_grid[g] = slot.sub[g]->evaluate(d);
      }
      f.nf_weighted_db = 0.0;
      f.gt_weighted_db = 0.0;
      for (std::size_t k = 0; k < grid_of_band_.size(); ++k) {
        f.sub_bands[k] = per_grid[grid_of_band_[k]];
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
    std::unique_ptr<amplifier::BandEvaluator> full;
    std::vector<std::unique_ptr<amplifier::BandEvaluator>> sub;
  };

  device::Phemt device_;
  amplifier::AmplifierConfig config_;
  std::vector<double> carriers_;        ///< distinct sub-band carriers
  std::vector<std::size_t> grid_of_band_;  ///< sub-band -> carrier index
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

const std::vector<std::string>& ScenarioObjective::objective_names() {
  static const std::vector<std::string> kNames = {"NF_w [dB]", "-GT_w [dB]"};
  return kNames;
}

ScenarioObjective::Figures ScenarioObjective::figures(
    const amplifier::DesignVector& design) const {
  return cache_->at(design.to_vector());
}

optimize::GoalProblem ScenarioObjective::goal_problem() const {
  const std::shared_ptr<Cache> cache = cache_;
  const amplifier::DesignGoals goals = goals_;

  optimize::GoalProblem problem;
  problem.objectives = [cache](const std::vector<double>& x) {
    const Figures& f = cache->at(x);
    return std::vector<double>{f.nf_weighted_db, -f.gt_weighted_db};
  };
  problem.goals = {goals.nf_goal_db, -goals.gain_goal_db};
  problem.weights = {goals.nf_weight, goals.gain_weight};
  problem.bounds = amplifier::DesignVector::bounds();
  problem.constraints = constraints();
  return problem;
}

optimize::VectorObjectiveFn ScenarioObjective::objectives() const {
  const std::shared_ptr<Cache> cache = cache_;
  return [cache](const std::vector<double>& x) {
    const Figures& f = cache->at(x);
    return std::vector<double>{f.nf_weighted_db, -f.gt_weighted_db};
  };
}

std::vector<optimize::ConstraintFn> ScenarioObjective::constraints() const {
  const std::shared_ptr<Cache> cache = cache_;
  const amplifier::DesignGoals goals = goals_;
  return {
      [cache, goals](const std::vector<double>& x) {
        return goals.mu_margin - cache->at(x).full.mu_min;
      },
      [cache, goals](const std::vector<double>& x) {
        return cache->at(x).full.s11_worst_db - goals.s11_goal_db;
      },
      [cache, goals](const std::vector<double>& x) {
        return cache->at(x).full.s22_worst_db - goals.s22_goal_db;
      },
      [cache, goals](const std::vector<double>& x) {
        // Scaled to O(1) per 10 mA of overrun, as in the band-average problem.
        return (cache->at(x).full.id_a - goals.id_max_a) * 100.0;
      },
  };
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
  out.optimization =
      optimize::improved_goal_attainment(problem, rng, options.optimizer);
  out.continuous = amplifier::DesignVector::from_vector(out.optimization.x);
  out.continuous_figures = objective.figures(out.continuous);
  out.snapped = amplifier::snap_design(out.continuous, options.series);
  out.snapped_figures = objective.figures(out.snapped);
  return out;
}

}  // namespace gnsslna::mission
