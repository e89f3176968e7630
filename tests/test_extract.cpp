#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "device/models.h"
#include "extract/measurement.h"
#include "extract/objective.h"
#include "extract/three_step.h"
#include "numeric/parallel.h"
#include "rf/sweep.h"

namespace gnsslna::extract {
namespace {

/// Small, fast measurement plan for unit tests.
MeasurementPlan small_plan() {
  MeasurementPlan plan = MeasurementPlan::standard_plan(8);
  plan.dc_vgs = rf::linear_grid(-0.9, 0.1, 6);
  plan.dc_vds = rf::linear_grid(0.0, 4.0, 5);
  plan.rf_biases = {{-0.4, 2.0}, {-0.2, 2.0}};
  return plan;
}

/// Fast three-step budget for unit tests (benches use the full budget).
ThreeStepOptions fast_options() {
  ThreeStepOptions opt;
  opt.de_generations = 40;
  opt.de_population = 40;
  opt.irls_iterations = 2;
  return opt;
}

TEST(Measurement, PlanShapesMatch) {
  const MeasurementPlan plan = MeasurementPlan::standard_plan(10);
  numeric::Rng rng(1);
  const MeasurementSet set = synthesize_measurements(
      device::Phemt::reference_device(), plan, {}, rng);
  EXPECT_EQ(set.dc.size(), plan.dc_vgs.size() * plan.dc_vds.size());
  EXPECT_EQ(set.rf.size(), plan.rf_biases.size() * 10);
  EXPECT_EQ(set.residual_count(), set.dc.size() + 8 * set.rf.size());
}

TEST(Measurement, NoiselessMeasurementMatchesDevice) {
  const device::Phemt truth = device::Phemt::reference_device();
  MeasurementNoise noise;
  noise.dc_relative_sigma = 0.0;
  noise.dc_floor_a = 0.0;
  noise.s_sigma = 0.0;
  numeric::Rng rng(2);
  const MeasurementSet set =
      synthesize_measurements(truth, small_plan(), noise, rng);
  for (const DcPoint& p : set.dc) {
    EXPECT_DOUBLE_EQ(p.ids, truth.drain_current({p.vgs, p.vds}));
  }
  const RfPoint& rf0 = set.rf.front();
  const rf::SParams clean = truth.s_params(rf0.bias, rf0.s.frequency_hz);
  EXPECT_EQ(rf0.s.s21, clean.s21);
}

TEST(Measurement, NoiseActuallyPerturbs) {
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng rng(3);
  const MeasurementSet set =
      synthesize_measurements(truth, small_plan(), {}, rng);
  int differing = 0;
  for (const DcPoint& p : set.dc) {
    if (p.ids != truth.drain_current({p.vgs, p.vds})) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(set.dc.size()) / 2);
}

TEST(Measurement, DeterministicPerSeed) {
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng a(4), b(4);
  const MeasurementSet s1 = synthesize_measurements(truth, small_plan(), {}, a);
  const MeasurementSet s2 = synthesize_measurements(truth, small_plan(), {}, b);
  EXPECT_EQ(s1.dc.front().ids, s2.dc.front().ids);
  EXPECT_EQ(s1.rf.front().s.s21, s2.rf.front().s.s21);
}

TEST(Objective, CandidateVectorRoundTrip) {
  const device::Angelov proto;
  const std::vector<double> x = candidate_start(proto);
  EXPECT_EQ(x.size(), proto.parameters().size() + kSharedParamCount);
  const device::Phemt dev =
      candidate_device(proto, x, device::ExtrinsicParams{});
  // The assembled device reflects the I-V parameters...
  EXPECT_EQ(dev.iv_model().parameters(),
            std::vector<double>(x.begin(), x.begin() + 7));
  // ...and the shared capacitance block.
  EXPECT_DOUBLE_EQ(dev.caps().cgs0, x[7]);
  EXPECT_DOUBLE_EQ(dev.caps().tau_s, x[11]);
  EXPECT_DOUBLE_EQ(dev.caps().vbi, x[12]);
}

TEST(Objective, BoundsContainStart) {
  for (const auto& model : device::all_models()) {
    const optimize::Bounds b = candidate_bounds(*model);
    EXPECT_TRUE(b.contains(candidate_start(*model))) << model->name();
  }
}

TEST(Objective, ZeroResidualForPerfectCandidate) {
  // Measure an Angelov truth noiselessly, then evaluate the truth's own
  // parameters: residuals must vanish.
  const device::Phemt truth = device::Phemt::reference_device();
  MeasurementNoise noise;
  noise.dc_relative_sigma = 0.0;
  noise.dc_floor_a = 0.0;
  noise.s_sigma = 0.0;
  numeric::Rng rng(5);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), noise, rng);

  std::vector<double> x = truth.iv_model().parameters();
  x.push_back(truth.caps().cgs0);
  x.push_back(truth.caps().cgd0);
  x.push_back(truth.caps().cds);
  x.push_back(truth.caps().ri);
  x.push_back(truth.caps().tau_s);
  x.push_back(truth.caps().vbi);

  const optimize::ResidualFn res = extraction_residuals(
      truth.iv_model(), data, truth.extrinsics());
  for (const double r : res(x)) EXPECT_NEAR(r, 0.0, 1e-12);
  const FitError err = evaluate_fit(truth.iv_model(), x, data,
                                    truth.extrinsics());
  EXPECT_NEAR(err.rms_s, 0.0, 1e-12);
  EXPECT_NEAR(err.rms_dc_rel, 0.0, 1e-12);
}

TEST(Objective, RfResidualsEqualPhemtSParamsBitForBit) {
  // The residual closure tabulates each bias run of RF points through the
  // pHEMT lane kernel; every residual must equal the per-point
  // Phemt::s_params route bit for bit, for a candidate off the truth and
  // a data set whose biases repeat non-adjacently.
  const device::Phemt truth = device::Phemt::reference_device();
  MeasurementPlan plan = small_plan();
  plan.rf_biases = {{-0.4, 2.0}, {-0.2, 2.0}, {-0.4, 2.0}};
  numeric::Rng rng(6);
  const MeasurementSet data =
      synthesize_measurements(truth, plan, MeasurementNoise{}, rng);

  std::vector<double> iv = truth.iv_model().parameters();
  for (double& v : iv) v *= 1.01;
  device::CapacitanceParams caps = truth.caps();
  caps.cgs0 *= 0.97;
  caps.tau_s *= 1.05;
  std::vector<double> x = iv;
  for (const double v :
       {caps.cgs0, caps.cgd0, caps.cds, caps.ri, caps.tau_s, caps.vbi}) {
    x.push_back(v);
  }
  std::unique_ptr<device::FetModel> model = truth.iv_model().clone();
  model->set_parameters(iv);
  device::CapacitanceParams candidate_caps;
  candidate_caps.cgs0 = caps.cgs0;
  candidate_caps.cgd0 = caps.cgd0;
  candidate_caps.cds = caps.cds;
  candidate_caps.ri = caps.ri;
  candidate_caps.tau_s = caps.tau_s;
  candidate_caps.vbi = caps.vbi;
  const device::Phemt candidate(std::move(model), candidate_caps,
                                truth.extrinsics(),
                                device::NoiseTemperatures{});

  const ObjectiveWeights weights{0.0, 1.0, 0.7};
  const std::vector<double> r =
      extraction_residuals(truth.iv_model(), data, truth.extrinsics(),
                           weights)(x);
  ASSERT_EQ(r.size(), data.dc.size() + 8 * data.rf.size());
  std::size_t i = data.dc.size();
  for (const RfPoint& p : data.rf) {
    const rf::SParams s =
        candidate.s_params(p.bias, p.s.frequency_hz, p.s.z0);
    for (const auto& [model_s, meas] :
         {std::pair{s.s11, p.s.s11}, std::pair{s.s21, p.s.s21},
          std::pair{s.s12, p.s.s12}, std::pair{s.s22, p.s.s22}}) {
      EXPECT_EQ(r[i++], weights.rf_weight * (model_s.real() - meas.real()));
      EXPECT_EQ(r[i++], weights.rf_weight * (model_s.imag() - meas.imag()));
    }
  }
}

/// A Curtice quadratic that counts its live instances, so a test can see
/// whether the per-thread scratch of a residual closure (each thread's
/// candidate device owns a clone of the prototype) is freed.
class CountingCurtice final : public device::FetModel {
 public:
  static std::atomic<int>& live() {
    static std::atomic<int> n{0};
    return n;
  }
  CountingCurtice() { ++live(); }
  CountingCurtice(const CountingCurtice& other) : inner_(other.inner_) {
    ++live();
  }
  ~CountingCurtice() override { --live(); }

  double drain_current(double vgs, double vds) const override {
    return inner_.drain_current(vgs, vds);
  }
  std::string name() const override { return inner_.name(); }
  std::vector<device::ParamSpec> param_specs() const override {
    return inner_.param_specs();
  }
  std::vector<double> parameters() const override {
    return inner_.parameters();
  }
  void set_parameters(const std::vector<double>& p) override {
    inner_.set_parameters(p);
  }
  std::unique_ptr<device::FetModel> clone() const override {
    return std::make_unique<CountingCurtice>(*this);
  }
  device::Conductances conductances(double vgs, double vds) const override {
    return inner_.conductances(vgs, vds);
  }

 private:
  device::CurticeQuadratic inner_;
};

TEST(Objective, ScratchStateIsFreedWithTheClosure) {
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng rng(7);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), {}, rng);
  const CountingCurtice proto;
  const int baseline = CountingCurtice::live().load();
  {
    const optimize::ResidualFn res =
        extraction_residuals(proto, data, truth.extrinsics());
    const std::vector<double> x = candidate_start(proto);
    res(x);
    numeric::parallel_for(4, 16, [&](std::size_t) { res(x); });
    // The closure's prototype plus at least the calling thread's device.
    EXPECT_GE(CountingCurtice::live().load(), baseline + 2);
  }
  EXPECT_EQ(CountingCurtice::live().load(), baseline);
}

TEST(Objective, HuberCriterionLessSensitiveToOutliers) {
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng rng(6);
  MeasurementSet data = synthesize_measurements(truth, small_plan(), {}, rng);

  std::vector<double> x = truth.iv_model().parameters();
  x.insert(x.end(), {truth.caps().cgs0, truth.caps().cgd0, truth.caps().cds,
                     truth.caps().ri, truth.caps().tau_s,
                     truth.caps().vbi});

  const optimize::ObjectiveFn robust =
      robust_criterion(truth.iv_model(), data, truth.extrinsics());
  const double before = robust(x);
  // Corrupt one S-parameter grossly.
  data.rf.front().s.s21 += rf::Complex{5.0, 0.0};
  const optimize::ObjectiveFn robust2 =
      robust_criterion(truth.iv_model(), data, truth.extrinsics());
  const double after = robust2(x);
  // Huber: the gross outlier costs linearly, i.e. far less than its
  // squared magnitude would.
  const double quadratic_cost = 25.0 / data.residual_count();
  EXPECT_LT(after - before, 0.3 * quadratic_cost);
}

TEST(ThreeStep, RecoversAngelovTruthFromCleanData) {
  const device::Phemt truth = device::Phemt::reference_device();
  MeasurementNoise noise;
  noise.dc_relative_sigma = 1e-4;
  noise.dc_floor_a = 1e-7;
  noise.s_sigma = 1e-4;
  numeric::Rng rng(7);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), noise, rng);

  numeric::Rng opt_rng(8);
  const ExtractionResult result = three_step_extract(
      truth.iv_model(), data, truth.extrinsics(), opt_rng, fast_options());
  // Self-extraction: residual at the noise floor.
  EXPECT_LT(result.error.rms_s, 5e-3);
  EXPECT_LT(result.error.rms_dc_rel, 5e-3);
  EXPECT_EQ(result.model_name, "Angelov");
}

TEST(ThreeStep, RobustToOutliers) {
  const device::Phemt truth = device::Phemt::reference_device();
  MeasurementNoise noise;
  noise.outlier_fraction = 0.05;
  noise.outlier_scale = 20.0;
  numeric::Rng rng(9);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), noise, rng);

  numeric::Rng opt_rng(10);
  const ExtractionResult result = three_step_extract(
      truth.iv_model(), data, truth.extrinsics(), opt_rng, fast_options());
  // Still a decent fit despite 5% gross outliers.
  EXPECT_LT(result.error.rms_s, 0.08);
}

TEST(Strategies, AllRunAndReportNames) {
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng rng(11);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), {}, rng);
  ThreeStepOptions opt = fast_options();
  opt.de_generations = 10;

  for (const ExtractionStrategy strat :
       {ExtractionStrategy::kLmOnly, ExtractionStrategy::kDeOnly}) {
    numeric::Rng r(12);
    const ExtractionResult res = extract_with_strategy(
        strat, truth.iv_model(), data, truth.extrinsics(), r, opt);
    EXPECT_GT(res.evaluations, 0u) << strategy_name(strat);
    EXPECT_EQ(res.params.size(), 13u);
  }
  EXPECT_FALSE(strategy_name(ExtractionStrategy::kThreeStep).empty());
  EXPECT_FALSE(strategy_name(ExtractionStrategy::kSaThenLm).empty());
  EXPECT_FALSE(
      strategy_name(ExtractionStrategy::kNelderMeadMultistart).empty());
}

TEST(Strategies, LmAloneWorseOrEqualOnNoisyMultimodalFit) {
  // LM from the typical start can land in a local minimum; the three-step
  // result must never be worse (premise of Table II).
  const device::Phemt truth = device::Phemt::reference_device();
  numeric::Rng rng(13);
  const MeasurementSet data =
      synthesize_measurements(truth, small_plan(), {}, rng);
  numeric::Rng r1(14), r2(14);
  const ExtractionResult lm = extract_with_strategy(
      ExtractionStrategy::kLmOnly, truth.iv_model(), data,
      truth.extrinsics(), r1, fast_options());
  const ExtractionResult three = extract_with_strategy(
      ExtractionStrategy::kThreeStep, truth.iv_model(), data,
      truth.extrinsics(), r2, fast_options());
  EXPECT_LE(three.error.rms_s, lm.error.rms_s * 1.1);
}

}  // namespace
}  // namespace gnsslna::extract
