#include "amplifier/objectives.h"

#include <memory>

#include "numeric/parallel.h"
#include "obs/obs.h"

namespace gnsslna::amplifier {

namespace {

/// Memoizes the BandReport of the most recent design point so the
/// objective and every constraint share one evaluation.
///
/// The memo slot is per thread (numeric::PerThreadSlots): the closures
/// holding one cache may be evaluated concurrently by parallel_map, and a
/// slot shared across threads would race — one thread could read the
/// report computed for another thread's design point.  Recomputation is
/// pure, so per-thread slots keep results bit-identical for any thread
/// count while preserving the objective-then-constraints memo hit.  The
/// cache owns its slots, so destroying the problem frees the evaluator
/// every thread built for it.
class ReportCache {
 public:
  /// `borrowed` (optional) is an externally owned evaluator built for the
  /// same (device, resolved config, band): when set, at() evaluates
  /// through it from a single dedicated slot instead of the per-thread
  /// ones — the hook behind the service layer's process-wide plan-cache
  /// tier.  Borrowed mode is serial-only: the caller must not evaluate
  /// the closures concurrently (BandEvaluator is not thread-safe).
  ReportCache(device::Phemt device, AmplifierConfig config,
              std::vector<double> band,
              std::shared_ptr<BandEvaluator> borrowed = nullptr)
      : device_(std::move(device)),
        config_(std::move(config)),
        band_(std::move(band)),
        borrowed_(std::move(borrowed)) {
    config_.resolve();
  }

  const BandReport& at(const std::vector<double>& x) const {
    Slot& slot = borrowed_ ? borrowed_slot_ : slots_.local();
    if (!slot.valid || x != slot.x) {
      GNSSLNA_OBS_COUNT("amplifier.report_cache.misses");
      slot.valid = true;
      slot.x = x;
      try {
        // Borrowed: reports are bit-identical whatever design the lease
        // last touched (re-tabulation only decides WHICH tables are
        // rewritten, never what they hold).  Per thread: the persistent
        // evaluator keeps its plan and workspace across design points, so
        // only the design-dependent elements re-stamp.
        BandEvaluator* evaluator = borrowed_.get();
        if (evaluator == nullptr) {
          if (!slot.evaluator) {
            slot.evaluator =
                std::make_unique<BandEvaluator>(device_, config_, band_);
          }
          evaluator = slot.evaluator.get();
        }
        slot.report = evaluator->evaluate(DesignVector::from_vector(x));
      } catch (const std::exception&) {
        GNSSLNA_OBS_COUNT("amplifier.report_cache.infeasible");
        slot.report = infeasible_report();
      }
    } else {
      GNSSLNA_OBS_COUNT("amplifier.report_cache.hits");
    }
    return slot.report;
  }

 private:
  struct Slot {
    bool valid = false;
    std::vector<double> x;
    BandReport report;
    std::unique_ptr<BandEvaluator> evaluator;
  };

  device::Phemt device_;
  AmplifierConfig config_;
  std::vector<double> band_;
  std::shared_ptr<BandEvaluator> borrowed_;
  mutable Slot borrowed_slot_;  ///< single slot of the serial borrowed mode
  numeric::PerThreadSlots<Slot> slots_;
};

std::vector<double> band_or_default(std::vector<double> band_hz) {
  return band_hz.empty() ? LnaDesign::default_band() : std::move(band_hz);
}

}  // namespace

BandReport infeasible_report() {
  BandReport r;
  r.nf_avg_db = 50.0;
  r.nf_max_db = 50.0;
  r.gt_min_db = -50.0;
  r.gt_avg_db = -50.0;
  r.s11_worst_db = 0.0;
  r.s22_worst_db = 0.0;
  r.mu_min = 0.0;
  r.id_a = 1.0;
  return r;
}

std::vector<optimize::ConstraintFn> band_constraints(
    std::function<const BandReport&(const std::vector<double>&)> at,
    const DesignGoals& goals) {
  return {
      [at, goals](const std::vector<double>& x) {
        return goals.mu_margin - at(x).mu_min;
      },
      [at, goals](const std::vector<double>& x) {
        return at(x).s11_worst_db - goals.s11_goal_db;
      },
      [at, goals](const std::vector<double>& x) {
        return at(x).s22_worst_db - goals.s22_goal_db;
      },
      [at, goals](const std::vector<double>& x) {
        return (at(x).id_a - goals.id_max_a) * 100.0;
      },
  };
}

optimize::GoalProblem make_goal_problem(
    const device::Phemt& device, AmplifierConfig config, DesignGoals goals,
    std::vector<double> band_hz,
    std::shared_ptr<BandEvaluator> shared_evaluator) {
  auto cache = std::make_shared<ReportCache>(
      device, std::move(config), band_or_default(std::move(band_hz)),
      std::move(shared_evaluator));

  optimize::GoalProblem problem;
  problem.objectives = [cache](const std::vector<double>& x) {
    const BandReport& r = cache->at(x);
    return std::vector<double>{r.nf_avg_db, -r.gt_min_db, r.s11_worst_db,
                               r.s22_worst_db};
  };
  problem.goals = {goals.nf_goal_db, -goals.gain_goal_db, goals.s11_goal_db,
                   goals.s22_goal_db};
  problem.weights = {goals.nf_weight, goals.gain_weight, goals.s11_weight,
                     goals.s22_weight};
  problem.bounds = DesignVector::bounds();
  problem.constraints = {
      [cache, goals](const std::vector<double>& x) {
        return goals.mu_margin - cache->at(x).mu_min;
      },
      [cache, goals](const std::vector<double>& x) {
        // Scaled to O(1) per 10 mA of overrun.
        return (cache->at(x).id_a - goals.id_max_a) * 100.0;
      },
  };
  return problem;
}

optimize::GoalProblem make_nf_gain_problem(
    const device::Phemt& device, AmplifierConfig config, DesignGoals goals,
    std::vector<double> band_hz,
    std::shared_ptr<BandEvaluator> shared_evaluator) {
  auto cache = std::make_shared<ReportCache>(
      device, std::move(config), band_or_default(std::move(band_hz)),
      std::move(shared_evaluator));

  optimize::GoalProblem problem;
  problem.objectives = [cache](const std::vector<double>& x) {
    const BandReport& r = cache->at(x);
    return std::vector<double>{r.nf_avg_db, -r.gt_min_db};
  };
  problem.goals = {goals.nf_goal_db, -goals.gain_goal_db};
  problem.weights = {goals.nf_weight, goals.gain_weight};
  problem.bounds = DesignVector::bounds();
  problem.constraints = band_constraints(
      [cache](const std::vector<double>& x) -> const BandReport& {
        return cache->at(x);
      },
      goals);
  return problem;
}

}  // namespace gnsslna::amplifier
