#include "service/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "amplifier/design_flow.h"
#include "amplifier/yield.h"
#include "device/models.h"
#include "extract/three_step.h"
#include "mission/objective.h"
#include "numeric/rng.h"
#include "obs/obs.h"
#include "rf/sweep.h"

namespace gnsslna::service {

namespace {

using amplifier::AmplifierConfig;
using amplifier::DesignGoals;
using amplifier::DesignVector;

[[noreturn]] void bad_param(const std::string& what) {
  throw JobError("bad_params", what);
}

/// Wire field names of the design vector, in to_vector() order (the
/// human-readable DesignVector::names() carry units and spaces, which make
/// poor JSON keys).
const std::vector<std::string>& design_field_names() {
  static const std::vector<std::string> kNames = {
      "vgs",      "vds",        "l_in_m",   "l_in2_m",
      "l_shunt_h", "c_mid_f",   "l_out_m",  "c_out_sh_f",
      "l_out2_m", "l_sdeg_h",   "c_in_f",   "r_fb_ohm"};
  return kNames;
}

double num_in(const Json& obj, const char* key, double fallback, double lo,
              double hi) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() || !std::isfinite(v->as_number())) {
    bad_param(std::string(key) + " must be a finite number");
  }
  const double x = v->as_number();
  if (!(x >= lo && x <= hi)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s = %g outside the accepted range [%g, %g]",
                  key, x, lo, hi);
    bad_param(buf);
  }
  return x;
}

bool bool_in(const Json& obj, const char* key, bool fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) bad_param(std::string(key) + " must be a boolean");
  return v->as_bool();
}

/// Non-negative integer parameter (seeds, sample counts, budgets).
std::uint64_t uint_in(const Json& obj, const char* key, std::uint64_t fallback,
                      std::uint64_t lo, std::uint64_t hi) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  const double x = v->is_number() ? v->as_number() : -1.0;
  if (!(x >= 0.0) || x != std::floor(x) || x > 9.007199254740992e15) {
    bad_param(std::string(key) + " must be a non-negative integer");
  }
  const std::uint64_t n = static_cast<std::uint64_t>(x);
  if (n < lo || n > hi) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s = %llu outside the accepted range [%llu, %llu]", key,
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    bad_param(buf);
  }
  return n;
}

AmplifierConfig parse_config(const Json& params) {
  AmplifierConfig config;
  const Json* c = params.find("config");
  if (c == nullptr) return config;
  if (!c->is_object()) bad_param("config must be an object");
  const std::string substrate = c->string_at("substrate", "fr4");
  if (substrate == "fr4") {
    config.substrate = microstrip::Substrate::fr4();
  } else if (substrate == "ro4350b") {
    config.substrate = microstrip::Substrate::ro4350b();
  } else {
    bad_param("unknown substrate '" + substrate + "' (fr4 | ro4350b)");
  }
  config.vdd = num_in(*c, "vdd", config.vdd, 1.0, 12.0);
  config.t_ambient_k = num_in(*c, "t_ambient_k", config.t_ambient_k, 100.0,
                              500.0);
  config.model_tee = bool_in(*c, "model_tee", config.model_tee);
  config.dispersive_passives =
      bool_in(*c, "dispersive_passives", config.dispersive_passives);
  return config;
}

std::vector<double> parse_band(const Json& params) {
  const Json* b = params.find("band_hz");
  if (b == nullptr) return amplifier::LnaDesign::default_band();
  if (!b->is_array() || b->size() < 2 || b->size() > 64) {
    bad_param("band_hz must be an array of 2..64 frequencies");
  }
  std::vector<double> band;
  band.reserve(b->size());
  for (std::size_t i = 0; i < b->size(); ++i) {
    const Json& v = b->at(i);
    const double f = v.is_number() ? v.as_number() : -1.0;
    if (!(f >= 0.2e9 && f <= 20e9)) {
      bad_param("band_hz entries must be numbers in [0.2e9, 20e9]");
    }
    if (!band.empty() && f <= band.back()) {
      bad_param("band_hz must be strictly ascending");
    }
    band.push_back(f);
  }
  return band;
}

DesignVector parse_design(const Json& params) {
  DesignVector d;
  const Json* obj = params.find("design");
  if (obj == nullptr) return d;
  if (!obj->is_object()) bad_param("design must be an object");
  const std::vector<std::string>& names = design_field_names();
  std::vector<double> x = d.to_vector();
  const optimize::Bounds box = DesignVector::bounds();
  for (std::size_t i = 0; i < obj->size(); ++i) {
    const std::string& key = obj->key(i);
    const auto it = std::find(names.begin(), names.end(), key);
    if (it == names.end()) bad_param("unknown design field '" + key + "'");
    const std::size_t slot = static_cast<std::size_t>(it - names.begin());
    const Json& v = obj->at(i);
    if (!v.is_number() || !std::isfinite(v.as_number())) {
      bad_param("design." + key + " must be a finite number");
    }
    const double value = v.as_number();
    if (value < box.lower[slot] || value > box.upper[slot]) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "design.%s = %g outside the design box [%g, %g]",
                    key.c_str(), value, box.lower[slot], box.upper[slot]);
      bad_param(buf);
    }
    x[slot] = value;
  }
  return DesignVector::from_vector(x);
}

DesignGoals parse_goals(const Json& params) {
  DesignGoals g;
  const Json* obj = params.find("goals");
  if (obj == nullptr) return g;
  if (!obj->is_object()) bad_param("goals must be an object");
  g.nf_goal_db = num_in(*obj, "nf_db", g.nf_goal_db, 0.05, 10.0);
  g.gain_goal_db = num_in(*obj, "gain_db", g.gain_goal_db, 0.0, 40.0);
  g.s11_goal_db = num_in(*obj, "s11_db", g.s11_goal_db, -40.0, 0.0);
  g.s22_goal_db = num_in(*obj, "s22_db", g.s22_goal_db, -40.0, 0.0);
  g.nf_weight = num_in(*obj, "nf_weight", g.nf_weight, 0.05, 100.0);
  g.gain_weight = num_in(*obj, "gain_weight", g.gain_weight, 0.05, 100.0);
  g.s11_weight = num_in(*obj, "s11_weight", g.s11_weight, 0.05, 100.0);
  g.s22_weight = num_in(*obj, "s22_weight", g.s22_weight, 0.05, 100.0);
  g.mu_margin = num_in(*obj, "mu_margin", g.mu_margin, 0.5, 2.0);
  g.id_max_a = num_in(*obj, "id_max_a", g.id_max_a, 0.001, 0.5);
  return g;
}

std::uint64_t parse_seed(const Json& params) {
  return uint_in(params, "seed", 1, 0, (1ULL << 53) - 1);
}

/// Optional mission scenario (by catalog name).  nullptr when absent, so
/// every job without the field behaves exactly as before the mission
/// library existed.
const mission::Scenario* parse_scenario(const Json& params) {
  const Json* v = params.find("scenario");
  if (v == nullptr) return nullptr;
  if (!v->is_string()) bad_param("scenario must be a string");
  const mission::Scenario* s = mission::find_scenario(v->as_string());
  if (s == nullptr) {
    std::string names;
    for (const mission::Scenario& sc : mission::scenario_catalog()) {
      if (!names.empty()) names += " | ";
      names += sc.name;
    }
    bad_param("unknown scenario '" + v->as_string() + "' (" + names + ")");
  }
  return s;
}

Json scenario_json(const mission::ScenarioAnalysis& analysis) {
  Json o = Json::object();
  o.set("name", Json::string(analysis.scenario));
  o.set("t_ant_k", Json::number(analysis.t_ant_k));
  o.set("nf_goal_db", Json::number(analysis.nf_goal_db));
  Json subs = Json::array();
  for (const mission::SubBand& band : analysis.sub_bands) {
    Json b = Json::object();
    b.set("constellation", Json::string(band.constellation));
    b.set("carrier_hz", Json::number(band.carrier_hz));
    b.set("weight", Json::number(band.weight));
    b.set("mean_visible", Json::number(band.mean_visible));
    b.set("mean_pdop", Json::number(band.mean_pdop));
    b.set("mean_signal_dbw", Json::number(band.mean_signal_dbw));
    subs.push(std::move(b));
  }
  o.set("sub_bands", std::move(subs));
  return o;
}

/// Trace sink shared by every optimizer-backed job: records for the
/// result's trace_csv, forwards to the client's progress stream, and
/// polls cancellation — all at the optimizer's generation barriers, on
/// the job's thread, so cancellation can never tear a generation.
obs::TraceSink service_sink(const JobContext& ctx,
                            obs::ConvergenceTrace* trace) {
  return [&ctx, trace](const obs::TraceRecord& r) {
#if defined(GNSSLNA_OBS_ENABLED)
    // Generation barrier marker in the owning job's span tree (leaf
    // record; the count of these per job is deterministic).
    static const obs::SpanCategory kGeneration("service.job.generation");
    obs::job_trace_event(kGeneration, 0);
#endif
    trace->record(r);
    if (ctx.progress) ctx.progress(r);
    if (ctx.check_cancel) ctx.check_cancel();
  };
}

/// Leases an evaluator for the job's topology and stores its plan revision
/// (topology_revision, one w50 synthesis) in `revision` for the caller.
PlanCache::Lease lease_evaluator(const JobContext& ctx,
                                 const device::Phemt& device,
                                 const AmplifierConfig& config,
                                 const std::vector<double>& band_hz,
                                 std::uint64_t& revision) {
  GNSSLNA_OBS_SPAN("service.job.plan_acquire");
  try {
    revision = topology_revision(config, band_hz);
    if (ctx.plans != nullptr) {
      return ctx.plans->acquire(revision, device, config, band_hz);
    }
    return std::make_shared<amplifier::BandEvaluator>(device, config, band_hz);
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }
}

std::string revision_hex(std::uint64_t revision) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(revision));
  return buf;
}

Json report_json(const amplifier::BandReport& r) {
  Json o = Json::object();
  o.set("nf_avg_db", Json::number(r.nf_avg_db));
  o.set("nf_max_db", Json::number(r.nf_max_db));
  o.set("gt_min_db", Json::number(r.gt_min_db));
  o.set("gt_avg_db", Json::number(r.gt_avg_db));
  o.set("s11_worst_db", Json::number(r.s11_worst_db));
  o.set("s22_worst_db", Json::number(r.s22_worst_db));
  o.set("mu_min", Json::number(r.mu_min));
  o.set("id_a", Json::number(r.id_a));
  return o;
}

Json design_json(const DesignVector& d) {
  const std::vector<std::string>& names = design_field_names();
  const std::vector<double> x = d.to_vector();
  Json o = Json::object();
  for (std::size_t i = 0; i < names.size(); ++i) {
    o.set(names[i], Json::number(x[i]));
  }
  return o;
}

// --- evaluate --------------------------------------------------------------

Json run_evaluate(const Json& params, const JobContext& ctx) {
  GNSSLNA_OBS_COUNT("service.jobs.evaluate");
  const AmplifierConfig config = parse_config(params);
  const std::vector<double> band = parse_band(params);
  const DesignVector design = parse_design(params);
  const device::Phemt device = device::Phemt::reference_device();

  std::uint64_t revision = 0;
  const PlanCache::Lease lease =
      lease_evaluator(ctx, device, config, band, revision);
  if (ctx.check_cancel) ctx.check_cancel();
  amplifier::BandReport report;
  try {
    report = lease->evaluate(design);
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }

  Json out = Json::object();
  out.set("report", report_json(report));
  out.set("plan_revision", Json::string(revision_hex(revision)));
  return out;
}

// --- sweep -----------------------------------------------------------------

Json run_sweep(const Json& params, const JobContext& ctx) {
  GNSSLNA_OBS_COUNT("service.jobs.sweep");
  const AmplifierConfig config = parse_config(params);
  const DesignVector design = parse_design(params);
  const double f_lo = num_in(params, "f_lo_hz", 1.0e9, 0.2e9, 20e9);
  const double f_hi = num_in(params, "f_hi_hz", 2.0e9, 0.2e9, 20e9);
  if (!(f_lo < f_hi)) bad_param("f_lo_hz must be < f_hi_hz");
  const std::size_t n = static_cast<std::size_t>(
      uint_in(params, "n_points", 21, 2, 201));
  const bool with_noise = bool_in(params, "with_noise", true);

  const device::Phemt device = device::Phemt::reference_device();
  std::unique_ptr<amplifier::LnaDesign> lna;
  try {
    lna = std::make_unique<amplifier::LnaDesign>(device, config, design);
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }
  if (ctx.check_cancel) ctx.check_cancel();

  const std::vector<double> grid = rf::linear_grid(f_lo, f_hi, n);
  const rf::SweepData sweep = lna->s_sweep(grid, 1);

  const auto db20 = [](const rf::Complex& z) {
    return 20.0 * std::log10(std::abs(z));
  };
  Json freq = Json::array(), s11 = Json::array(), s21 = Json::array(),
       s22 = Json::array(), nf = Json::array();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    freq.push(Json::number(grid[i]));
    s11.push(Json::number(db20(sweep[i].s11)));
    s21.push(Json::number(db20(sweep[i].s21)));
    s22.push(Json::number(db20(sweep[i].s22)));
    if (with_noise) nf.push(Json::number(lna->noise_figure_db(grid[i])));
    if (ctx.check_cancel && (i & 15u) == 15u) ctx.check_cancel();
  }

  Json out = Json::object();
  out.set("frequency_hz", std::move(freq));
  out.set("s11_db", std::move(s11));
  out.set("s21_db", std::move(s21));
  out.set("s22_db", std::move(s22));
  if (with_noise) out.set("nf_db", std::move(nf));
  out.set("group_delay_ripple_s", Json::number(rf::group_delay_ripple(sweep)));
  return out;
}

// --- design ----------------------------------------------------------------

Json goal_result_json(const optimize::GoalResult& r) {
  Json o = Json::object();
  o.set("attainment", Json::number(r.attainment));
  o.set("constraint_violation", Json::number(r.constraint_violation));
  o.set("evaluations", Json::number(static_cast<double>(r.evaluations)));
  o.set("converged", Json::boolean(r.converged));
  return o;
}

/// Scenario-parameterized design: the same improved goal-attainment
/// engine on mission::ScenarioObjective's constellation-weighted
/// objectives.  Result shape mirrors the band-average design job, plus a
/// "scenario" object with the analysis and the weighted figures.
Json run_scenario_design_job(const mission::Scenario& scenario,
                             const Json& params, const JobContext& ctx) {
  if (params.find("band_hz") != nullptr) {
    bad_param("band_hz cannot be combined with scenario (the scenario fixes "
              "the evaluation grids)");
  }
  const AmplifierConfig config = parse_config(params);

  mission::ScenarioDesignOptions options;
  options.goals = parse_goals(params);
  options.optimizer.threads = 1;
  options.optimizer.de_generations = static_cast<std::size_t>(
      uint_in(params, "de_generations", 6, 1, 300));
  options.optimizer.de_population = static_cast<std::size_t>(
      uint_in(params, "de_population", 16, 8, 128));
  options.optimizer.polish_evaluations = static_cast<std::size_t>(
      uint_in(params, "polish_evaluations", 400, 0, 20000));

  obs::ConvergenceTrace trace;
  options.optimizer.trace = service_sink(ctx, &trace);

  const device::Phemt device = device::Phemt::reference_device();
  numeric::Rng rng(parse_seed(params));
  mission::ScenarioDesignOutcome outcome;
  try {
    outcome =
        mission::run_scenario_design(device, config, scenario, rng, options);
  } catch (const JobCancelled&) {
    throw;
  } catch (const JobTimeout&) {
    throw;
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }

  const auto figures_json = [](const mission::ScenarioObjective::Figures& f) {
    Json o = Json::object();
    o.set("nf_weighted_db", Json::number(f.nf_weighted_db));
    o.set("gt_weighted_db", Json::number(f.gt_weighted_db));
    return o;
  };

  Json out = Json::object();
  out.set("optimization", goal_result_json(outcome.optimization));
  out.set("continuous", design_json(outcome.continuous));
  out.set("continuous_report", report_json(outcome.continuous_figures.full));
  out.set("continuous_weighted", figures_json(outcome.continuous_figures));
  out.set("snapped", design_json(outcome.snapped));
  out.set("snapped_report", report_json(outcome.snapped_figures.full));
  out.set("snapped_weighted", figures_json(outcome.snapped_figures));
  out.set("scenario", scenario_json(outcome.analysis));
  out.set("trace_csv", Json::string(trace.to_csv()));
  return out;
}

Json run_design(const Json& params, const JobContext& ctx) {
  GNSSLNA_OBS_COUNT("service.jobs.design");
  if (const mission::Scenario* scenario = parse_scenario(params)) {
    return run_scenario_design_job(*scenario, params, ctx);
  }
  const AmplifierConfig config = parse_config(params);
  const std::vector<double> band = parse_band(params);

  amplifier::DesignFlowOptions options;
  options.goals = parse_goals(params);
  options.band_hz = band;
  // Jobs are serial inside (the scheduler provides concurrency BETWEEN
  // jobs); service budgets default far below the library's
  // paper-reproduction defaults and are capped for admission control.
  options.optimizer.threads = 1;
  options.optimizer.de_generations = static_cast<std::size_t>(
      uint_in(params, "de_generations", 6, 1, 300));
  options.optimizer.de_population = static_cast<std::size_t>(
      uint_in(params, "de_population", 16, 8, 128));
  options.optimizer.polish_evaluations = static_cast<std::size_t>(
      uint_in(params, "polish_evaluations", 400, 0, 20000));

  obs::ConvergenceTrace trace;
  options.optimizer.trace = service_sink(ctx, &trace);

  const device::Phemt device = device::Phemt::reference_device();
  if (ctx.plans != nullptr) {
    std::uint64_t revision = 0;
    options.evaluator = lease_evaluator(ctx, device, config, band, revision);
  }

  numeric::Rng rng(parse_seed(params));
  amplifier::DesignOutcome outcome;
  try {
    outcome = amplifier::run_design_flow(device, config, rng, options);
  } catch (const JobCancelled&) {
    throw;
  } catch (const JobTimeout&) {
    throw;
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }

  Json out = Json::object();
  out.set("optimization", goal_result_json(outcome.optimization));
  out.set("continuous", design_json(outcome.continuous));
  out.set("continuous_report", report_json(outcome.continuous_report));
  out.set("snapped", design_json(outcome.snapped));
  out.set("snapped_report", report_json(outcome.snapped_report));
  Json bias = Json::object();
  bias.set("r_drain_ohm", Json::number(outcome.bias.r_drain));
  bias.set("id_a", Json::number(outcome.bias.id_a));
  bias.set("vg_bias_v", Json::number(outcome.bias.vg_bias));
  out.set("bias", std::move(bias));
  out.set("trace_csv", Json::string(trace.to_csv()));
  return out;
}

// --- yield -----------------------------------------------------------------

Json run_yield_job(const Json& params, const JobContext& ctx) {
  GNSSLNA_OBS_COUNT("service.jobs.yield");
  const AmplifierConfig config = parse_config(params);
  const std::vector<double> band = parse_band(params);
  const DesignVector design = parse_design(params);
  DesignGoals goals = parse_goals(params);
  // A scenario re-anchors the pass/fail NF line at its physically derived
  // goal (explicit goals.nf_db is rejected to keep the result a pure
  // function of unambiguous params).
  const mission::Scenario* scenario = parse_scenario(params);
  std::optional<mission::ScenarioAnalysis> analysis;
  if (scenario != nullptr) {
    const Json* g = params.find("goals");
    if (g != nullptr && g->find("nf_db") != nullptr) {
      bad_param("goals.nf_db cannot be combined with scenario (the scenario "
                "derives the NF goal)");
    }
    analysis = mission::analyze_scenario(*scenario);
    goals.nf_goal_db = analysis->nf_goal_db;
  }
  const std::size_t samples = static_cast<std::size_t>(
      uint_in(params, "samples", 256, 1, 1ULL << 20));

  amplifier::YieldOptions options;
  options.threads = 1;
  const std::string sampler = params.string_at("sampler", "pseudo");
  if (sampler == "pseudo") {
    options.sampler = amplifier::YieldSampler::kPseudoRandom;
  } else if (sampler == "sobol") {
    options.sampler = amplifier::YieldSampler::kSobol;
  } else {
    bad_param("unknown sampler '" + sampler + "' (pseudo | sobol)");
  }

  obs::ConvergenceTrace trace;
  options.trace = service_sink(ctx, &trace);

  const device::Phemt device = device::Phemt::reference_device();
  numeric::Rng rng(parse_seed(params));
  amplifier::YieldReport report;
  try {
    report = amplifier::run_yield(device, config, design, goals, samples, rng,
                                  options);
  } catch (const JobCancelled&) {
    throw;
  } catch (const JobTimeout&) {
    throw;
  } catch (const std::exception& e) {
    throw JobError("infeasible", e.what());
  }

  Json out = Json::object();
  out.set("samples", Json::number(static_cast<double>(report.samples)));
  out.set("passes", Json::number(static_cast<double>(report.passes)));
  out.set("failed_evals",
          Json::number(static_cast<double>(report.failed_evals)));
  out.set("pass_rate", Json::number(report.pass_rate));
  out.set("pass_rate_ci95_lo", Json::number(report.pass_rate_ci95_lo));
  out.set("pass_rate_ci95_hi", Json::number(report.pass_rate_ci95_hi));
  out.set("nf_avg_p95_db", Json::number(report.nf_avg_p95_db));
  out.set("gt_min_p5_db", Json::number(report.gt_min_p5_db));
  out.set("nf_avg_mean_db", Json::number(report.nf_avg_mean_db));
  out.set("gt_min_mean_db", Json::number(report.gt_min_mean_db));
  out.set("nf_avg_min_db", Json::number(report.nf_avg_min_db));
  out.set("nf_avg_max_db", Json::number(report.nf_avg_max_db));
  out.set("gt_min_min_db", Json::number(report.gt_min_min_db));
  out.set("gt_min_max_db", Json::number(report.gt_min_max_db));
  if (analysis.has_value()) out.set("scenario", scenario_json(*analysis));
  out.set("trace_csv", Json::string(trace.to_csv()));
  return out;
}

// --- extract ---------------------------------------------------------------

Json run_extract(const Json& params, const JobContext& ctx) {
  GNSSLNA_OBS_COUNT("service.jobs.extract");
  const std::string model_key = params.string_at("model", "angelov");
  std::unique_ptr<device::FetModel> prototype;
  try {
    prototype = device::make_model(model_key);
  } catch (const std::invalid_argument& e) {
    throw JobError("bad_params", e.what());
  }
  const std::size_t n_freq =
      static_cast<std::size_t>(uint_in(params, "n_freq", 10, 4, 60));

  extract::ThreeStepOptions options;
  options.threads = 1;
  options.de_generations = static_cast<std::size_t>(
      uint_in(params, "de_generations", 4, 1, 200));
  options.de_population = static_cast<std::size_t>(
      uint_in(params, "de_population", 16, 8, 128));

  extract::MeasurementNoise noise;
  const Json* n = params.find("noise");
  if (n != nullptr) {
    if (!n->is_object()) bad_param("noise must be an object");
    noise.outlier_fraction =
        num_in(*n, "outlier_fraction", noise.outlier_fraction, 0.0, 0.5);
    noise.s_sigma = num_in(*n, "s_sigma", noise.s_sigma, 0.0, 0.1);
    noise.dc_relative_sigma =
        num_in(*n, "dc_relative_sigma", noise.dc_relative_sigma, 0.0, 0.2);
  }

  // One seed feeds two independent counter-derived streams, so the
  // synthetic bench and the extraction search never share draws.
  const numeric::Rng base(parse_seed(params));
  numeric::Rng measurement_rng = base.split(1);
  numeric::Rng extraction_rng = base.split(2);

  const device::Phemt truth = device::Phemt::reference_device();
  const extract::MeasurementPlan plan =
      extract::MeasurementPlan::standard_plan(n_freq);
  const extract::MeasurementSet data =
      extract::synthesize_measurements(truth, plan, noise, measurement_rng);
  if (ctx.check_cancel) ctx.check_cancel();

  obs::ConvergenceTrace trace;
  options.trace = service_sink(ctx, &trace);
  const extract::ExtractionResult result = extract::three_step_extract(
      *prototype, data, truth.extrinsics(), extraction_rng, options);

  Json values = Json::object();
  const std::vector<device::ParamSpec> specs = prototype->param_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    values.set(specs[i].name, Json::number(result.params[i]));
  }
  static const char* const kSharedNames[] = {"cgs0", "cgd0", "cds",
                                             "ri",   "tau",  "vbi"};
  for (std::size_t i = 0; i < extract::kSharedParamCount; ++i) {
    values.set(kSharedNames[i], Json::number(result.params[specs.size() + i]));
  }

  Json out = Json::object();
  out.set("model", Json::string(result.model_name));
  out.set("params", std::move(values));
  out.set("rms_s", Json::number(result.error.rms_s));
  out.set("rms_dc_rel", Json::number(result.error.rms_dc_rel));
  out.set("evaluations",
          Json::number(static_cast<double>(result.evaluations)));
  out.set("converged", Json::boolean(result.converged));
  out.set("trace_csv", Json::string(trace.to_csv()));
  return out;
}

}  // namespace

bool is_job_type(std::string_view type) {
  return type == "evaluate" || type == "sweep" || type == "design" ||
         type == "yield" || type == "extract";
}

Json list_scenarios_json() {
  Json out = Json::array();
  for (const mission::Scenario& s : mission::scenario_catalog()) {
    Json o = scenario_json(mission::analyze_scenario(s));
    o.set("description", Json::string(s.description));
    o.set("has_blocker", Json::boolean(s.blocker.has_value()));
    if (s.blocker.has_value()) {
      o.set("blocker_hz", Json::number(s.blocker->f_blocker_hz));
    }
    out.push(std::move(o));
  }
  return out;
}

Json run_job(const std::string& type, const Json& params,
             const JobContext& ctx) {
  if (!params.is_object() && !params.is_null()) {
    bad_param("params must be an object");
  }
  if (type == "evaluate") return run_evaluate(params, ctx);
  if (type == "sweep") return run_sweep(params, ctx);
  if (type == "design") return run_design(params, ctx);
  if (type == "yield") return run_yield_job(params, ctx);
  if (type == "extract") return run_extract(params, ctx);
  throw JobError("unknown_type", "unknown job type '" + type + "'");
}

}  // namespace gnsslna::service
