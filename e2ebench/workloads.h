// The benchmark's three end-to-end workloads and the traced run.
//
// Every workload takes its inputs from the workload seed alone; the library
// receives only the generated inputs (design seeds, tolerance draws,
// request documents).  Each entry point fills a Report with the metrics it
// measured and the correctness verdicts it checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "amplifier/objectives.h"
#include "bench_core.h"
#include "numeric/rng.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget of the run
  std::string out_dir;    ///< where the traced run writes its spans
  /// Time the process started (the origin of setup_s's first set-up).
  std::uint64_t process_start_ns = 0;
};

/// design_run: the paper design flow, one thread, telemetry off.
void run_design_run(const RunOptions& opt, Report& report);
/// yield_mc: run_yield of the nominal design at 1 and min(4, nproc) threads.
void run_yield_mc(const RunOptions& opt, Report& report);
/// service: in-process scheduler behind serve_stream, one client.
void run_service(const RunOptions& opt, Report& report);

/// The traced run: every layer probe and the traced replica of every
/// workload, with self times, tracing overhead and coverage.
void run_traced(const RunOptions& opt, Report& report);

// --- Pieces the traced run shares with the workloads ------------------------

/// Independent 64-bit stream `index` of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// min(4, nproc): the parallel thread count of yield_mc.
std::size_t parallel_threads();

/// The bench_yield goals: a hair looser than the nominal design's figures,
/// so the tolerance pass rate lies strictly between 0 and 1.
gnsslna::amplifier::DesignGoals yield_goals();

/// Samples per yield run: four shards of the default 256, one per thread of
/// the parallel run; short enough that a run holds a few hundred operations.
inline constexpr std::size_t kYieldSamples = 1024;

/// A design that moves all 12 variables of the nominal DesignVector by a
/// differential-evolution-step-sized amount (a few per cent of the box),
/// clamped to the box.
gnsslna::amplifier::DesignVector de_step_design(gnsslna::numeric::Rng& rng);

/// One request of the service workload: job type plus params document.
struct Request {
  std::string type;  ///< evaluate | sweep | design | yield | extract
  std::string kind;  ///< type, or design_scenario for catalog-scenario designs
  std::string params;
};
/// Phase A: an evaluate of a DE-step design around the nominal one.
Request phase_a_request(const gnsslna::numeric::Rng& root, std::size_t i);
/// Phase B: the load_gen mix (70/18/6/4/2 %), four plan-cache revisions,
/// half the designs on a catalog scenario, a few per cent custom bands.
Request phase_b_request(const gnsslna::numeric::Rng& root, std::size_t i);

}  // namespace e2e
