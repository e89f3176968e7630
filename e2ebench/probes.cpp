// The traced run: the traced replica of every workload plus the layer probes
// that split a band evaluation into its circuit, device and microstrip
// stages.  Every span is kept in memory and written once at the end.
#include <algorithm>
#include <complex>
#include <cstring>

#include "amplifier/lna.h"
#include "amplifier/yield.h"
#include "circuit/batched.h"
#include "numeric/parallel.h"
#include "obs/obs.h"
#include "traced.h"
#include "workloads.h"

namespace e2e {

using namespace gnsslna;

namespace {

/// Mean duration [us] of the spans named `name` opened after `from`.
double mean_us(const Tracer& tracer, std::size_t from, const char* name,
               std::size_t* count) {
  double total = 0.0;
  *count = 0;
  for (std::size_t i = from; i < tracer.size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (std::strcmp(s.name, name) == 0) {
      total += static_cast<double>(s.end - s.start);
      ++*count;
    }
  }
  return *count == 0 ? 0.0 : total * 1e-3 / static_cast<double>(*count);
}

/// The four circuit stages of one band evaluation, on a BatchedPlan of the
/// nominal fig. 3 netlist over the 16-lane band + stability grid.  The
/// plan's values are marked dirty before every pass so the factorization
/// really runs.  Returns the summed stage time [us].
double circuit_probe(Tracer& tracer, Report& report) {
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::LnaDesign lna(device::Phemt::reference_device(), config,
                                 amplifier::DesignVector{});
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  const std::size_t band = grid.size();
  for (double f : amplifier::LnaDesign::stability_grid()) grid.push_back(f);
  circuit::BatchedPlan plan(lna.build_netlist(), grid);
  circuit::EvalWorkspace ws;
  std::vector<circuit::NoiseResult> noise(band);
  const std::size_t first = tracer.size();
  {
    Tracer::Scope probe(tracer, "probe.circuit");
    for (int rep = 0; rep < 3000; ++rep) {
      plan.mark_values_dirty();
      std::int64_t s = tracer.open("circuit.factor");
      plan.factor(ws, 0, grid.size());
      tracer.close(s);
      s = tracer.open("circuit.solve_ports");
      plan.solve_ports(ws);
      tracer.close(s);
      s = tracer.open("circuit.transfer");
      plan.solve_output_transfer(ws, 1, 0, band);
      tracer.close(s);
      s = tracer.open("circuit.noise_sweep");
      plan.noise_sweep(ws, 0, 1, noise.data());
      tracer.close(s);
    }
  }
  double sum = 0.0;
  for (const char* stage : {"circuit.factor", "circuit.solve_ports",
                            "circuit.transfer", "circuit.noise_sweep"}) {
    std::size_t n = 0;
    const double us = mean_us(tracer, first, stage, &n);
    sum += us;
    report.metric(std::string(stage) + "_us", us, "us", n,
                  std::strcmp(stage, "circuit.transfer") == 0 ? "7 band lanes"
                                                              : "16 lanes");
  }
  return sum;
}

/// Device and microstrip tabulation on the 16-lane grid, at new biases and
/// widths drawn from the seed.
void tabulation_probes(const RunOptions& opt, Tracer& tracer, Report& report) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  std::vector<double> grid = amplifier::LnaDesign::default_band();
  for (double f : amplifier::LnaDesign::stability_grid()) grid.push_back(f);
  numeric::Rng rng(derive_seed(opt.seed, 4));
  double sink = 0.0;
  const std::size_t first = tracer.size();
  {
    Tracer::Scope probe(tracer, "probe.tabulation");
    for (int rep = 0; rep < 400; ++rep) {
      const device::Bias bias{rng.uniform(-0.5, -0.2), rng.uniform(2.0, 3.0)};
      std::int64_t s = tracer.open("device.fet_tabulate");
      for (double f : grid) {
        sink += std::abs(dev.s_params(bias, f).s21);
        sink += dev.noise(bias, f).f_min;
      }
      tracer.close(s);
      const microstrip::Line line(config.substrate,
                                  config.w50_m * rng.uniform(0.8, 1.2), 0.01);
      s = tracer.open("microstrip.line_tabulate");
      for (double f : grid) sink += line.propagation(f).beta_rad_m;
      tracer.close(s);
    }
  }
  std::size_t n = 0;
  const double fet_us = mean_us(tracer, first, "device.fet_tabulate", &n);
  report.metric("device.fet_tabulate_us", fet_us, "us", n,
                "Phemt::s_params + noise, 16 lanes, new bias");
  const double line_us = mean_us(tracer, first, "microstrip.line_tabulate", &n);
  report.metric("microstrip.line_tabulate_us", line_us, "us", n,
                "Line::propagation, 16 lanes, one width");
  if (!(sink == sink)) report.check(false, "tabulation probes produced NaN");
}

/// Cold builds of the two evaluation engines.
void plan_build_probe(Tracer& tracer, Report& report) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  std::vector<double> band_ms, yield_ms;
  for (int i = 0; i < 7; ++i) {
    std::int64_t s = tracer.open("amplifier.plan_build");
    amplifier::BandEvaluator evaluator(dev, config);
    (void)evaluator.evaluate(amplifier::DesignVector{});
    tracer.close(s);
    const Tracer::Span& a = tracer.spans()[static_cast<std::size_t>(s)];
    band_ms.push_back(static_cast<double>(a.end - a.start) * 1e-6);
    s = tracer.open("amplifier.yield_plan_build");
    const amplifier::YieldTrialEvaluator trial(dev, config,
                                               amplifier::DesignVector{});
    tracer.close(s);
    const Tracer::Span& b = tracer.spans()[static_cast<std::size_t>(s)];
    yield_ms.push_back(static_cast<double>(b.end - b.start) * 1e-6);
  }
  report.metric("amplifier.plan_build_ms", summarize(band_ms).p50, "ms",
                band_ms.size(), "BandEvaluator build + first evaluate, median");
  report.metric("amplifier.yield_plan_build_ms", summarize(yield_ms).p50, "ms",
                yield_ms.size(), "YieldTrialEvaluator build, median");
}

/// ThreadPool::parallel_for over P threads with empty bodies.
void pool_probe(Tracer& tracer, Report& report) {
  const std::size_t p = parallel_threads();
  numeric::ThreadPool pool(p - 1);
  const std::size_t first = tracer.size();
  for (int rep = 0; rep < 2000; ++rep) {
    const std::int64_t s = tracer.open("numeric.pool_dispatch");
    pool.parallel_for(p, [](std::size_t) {}, p);
    tracer.close(s);
  }
  std::size_t n = 0;
  const double us = mean_us(tracer, first, "numeric.pool_dispatch", &n);
  report.metric("numeric.pool_dispatch_us", us, "us", n,
                "parallel_for over " + std::to_string(p) + " threads");
}

}  // namespace

void run_traced(const RunOptions& opt, Report& report) {
  Tracer tracer;
  TracedValues values;
  const std::uint64_t start = now_ns();

  traced_design_run(opt, tracer, report, values);
  traced_yield_mc(opt, tracer, report, values);
  obs::set_enabled(false);
  const double stages_us = circuit_probe(tracer, report);
  report.metric("amplifier.retab_reduce_us", values.band_evaluate_us - stages_us,
                "us", 1, "band_evaluate_us - four circuit stages");
  tabulation_probes(opt, tracer, report);
  plan_build_probe(tracer, report);
  pool_probe(tracer, report);
  traced_service(opt, tracer, report, values);

  report.metric("trace.overhead_ratio.design_run", values.overhead_design,
                "ratio", 1, "traced / untraced design run");
  report.metric("trace.overhead_ratio.yield_mc", values.overhead_yield, "ratio",
                1, "traced / untraced 1-thread yield run");
  report.metric("trace.overhead_ratio.service", values.overhead_service,
                "ratio", 1, "traced / untraced phase A RTT median");
  report.metric("trace.coverage.design_run", values.coverage_design, "ratio", 1);
  report.metric("trace.coverage.yield_mc", values.coverage_yield, "ratio", 1);
  report.metric("trace.coverage.service", values.coverage_service, "ratio", 1);

  // Stage table of one design-run evaluation, outside in.
  const auto line = [&report](const char* format, double a, double b) {
    char buf[200];
    std::snprintf(buf, sizeof buf, format, a, b);
    report.lines.push_back(buf);
  };
  line("stage   design objective call  %9.2f us = band_evaluate %.2f us + "
       "report cache",
       values.objective_us, values.band_evaluate_us);
  line("stage   band_evaluate          %9.2f us = circuit stages %.2f us + "
       "retab/reduce",
       values.band_evaluate_us, stages_us);
  const std::pair<const char*, double> coverage[] = {
      {"design_run", values.coverage_design},
      {"yield_mc", values.coverage_yield},
      {"service", values.coverage_service}};
  for (const auto& [workload, c] : coverage) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "coverage %-10s named spans %6.2f %%, unattributed %6.2f %%",
                  workload, 100.0 * c, 100.0 * (1.0 - c));
    report.lines.push_back(buf);
  }

  // Self-time table of every span name, then the spans themselves.
  for (const auto& [name, t] : tracer.totals()) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "span    %-36s count %8zu  total %10.3f ms  self %10.3f ms",
                  name.c_str(), t.count, static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6);
    report.lines.push_back(buf);
  }
  report.metric("trace.spans", static_cast<double>(tracer.size()), "count", 1);
  report.metric("trace.run_s", static_cast<double>(now_ns() - start) * 1e-9, "s",
                1);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".tsv";
    report.check(tracer.write(path), "spans written to " + path);
  }
}

}  // namespace e2e
