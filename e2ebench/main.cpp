// e2e_bench: one workload (or the traced run) per process.
//
//   e2e_bench --workload design_run|yield_mc|service --seed N --seconds S
//             [--trace 0|1] [--out-dir DIR]
//
// Prints the host context, every metric with its unit and sample count, the
// correctness verdicts, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 1 runs the traced run
// (every layer on every workload, so each traced run prints the same
// per-layer metrics) in place of the named workload's measuring loop and
// writes its spans to DIR.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/obs.h"
#include "workloads.h"

namespace {

void print_context(const e2e::RunOptions& opt, bool trace,
                   e2e::Report& report) {
  report.context("workload", opt.workload);
  report.context("seed", std::to_string(opt.seed));
  report.context("seconds", std::to_string(opt.seconds));
  report.context("mode", trace ? "traced" : "untraced");
  report.context("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                              " online, " +
                              std::to_string(e2e::parallel_threads()) +
                              " used for yield_mc's parallel run");
  report.context("threads",
                 "design_run 1; yield_mc 1 and " +
                     std::to_string(e2e::parallel_threads()) +
                     "; service 2 scheduler workers, 1 connection");
  report.context("build_type", E2E_BUILD_TYPE);
  report.context("telemetry",
                 std::string(gnsslna::obs::compiled_in() ? "compiled in" : "compiled out") +
                     "; enabled for service only, deterministic mode off");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = e2e::now_ns();
  std::signal(SIGPIPE, SIG_IGN);
  e2e::RunOptions opt;
  opt.process_start_ns = process_start;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload != "design_run" && opt.workload != "yield_mc" &&
      opt.workload != "service") {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload design_run|yield_mc|service "
                 "--seed N --seconds S [--trace 0|1] [--out-dir DIR]\n");
    return 2;
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    std::fprintf(stderr, "e2e_bench: --seconds must be in (0, 600]\n");
    return 2;
  }

  e2e::Report report;
  print_context(opt, trace, report);
  try {
    if (trace) {
      e2e::run_traced(opt, report);
    } else if (opt.workload == "design_run") {
      e2e::run_design_run(opt, report);
    } else if (opt.workload == "yield_mc") {
      e2e::run_yield_mc(opt, report);
    } else {
      e2e::run_service(opt, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print(stdout);
  return 0;
}
