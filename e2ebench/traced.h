// Traced replicas of the three workloads, called by run_traced (probes.cpp).
// Each one times calls into the library's public functions from the
// benchmark's own code, records them as spans, adds its per-layer metrics
// to the report, and hands back the figures other layers are derived from.
#pragma once

#include "bench_core.h"
#include "workloads.h"

namespace e2e {

struct TracedValues {
  double objective_us = 0.0;      ///< closure call at a new point
  double band_evaluate_us = 0.0;  ///< BandEvaluator::evaluate, replayed
  double overhead_design = 0.0, coverage_design = 0.0;
  double overhead_yield = 0.0, coverage_yield = 0.0;
  double overhead_service = 0.0, coverage_service = 0.0;
};

void traced_design_run(const RunOptions& opt, Tracer& tracer, Report& report,
                       TracedValues& values);
void traced_yield_mc(const RunOptions& opt, Tracer& tracer, Report& report,
                     TracedValues& values);
void traced_service(const RunOptions& opt, Tracer& tracer, Report& report,
                    TracedValues& values);

}  // namespace e2e
