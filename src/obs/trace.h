// Per-iteration optimizer convergence telemetry.
//
// Every optimizer whose options derive from optimize::CommonOptions emits
// one TraceRecord per generation / iteration / polish stage through an
// optional TraceSink callback.  Emission always happens on the CALLING
// thread at synchronization points (generation barriers, stage ends), and
// every field is a pure function of the optimizer state there — so a
// captured trace is bit-identical for any thread count, exactly like the
// optimizer result itself (tests/test_obs.cpp pins this for the design
// run).  Attaching a sink never changes the optimization: no extra RNG
// draws, no change to counted evaluations.
//
// This machinery is independent of the GNSSLNA_OBS compile switch: a trace
// costs one branch per generation when no sink is attached.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace gnsslna::obs {

struct TraceRecord {
  /// Optimizer stage: "de", "sa", "nsga2", "de_seed", "polish", "final".
  std::string phase;
  std::size_t stream = 0;      ///< restart / chain index (SA restarts)
  std::size_t iteration = 0;   ///< generation / iteration / stage, 0-based
  std::size_t evaluations = 0; ///< cumulative objective evaluations so far
  double best_value = std::numeric_limits<double>::quiet_NaN();
  double attainment = std::numeric_limits<double>::quiet_NaN();
  std::size_t front_size = 0;  ///< non-dominated front size (multi-objective)
  double hypervolume = std::numeric_limits<double>::quiet_NaN();
};

using TraceSink = std::function<void(const TraceRecord&)>;

/// Collects TraceRecords and writes them as CSV (one row per record,
/// %.17g doubles so the file round-trips bit-exactly).  Not thread-safe:
/// optimizers emit on the calling thread, which is the contract.
class ConvergenceTrace {
 public:
  void record(const TraceRecord& r) { records_.push_back(r); }

  /// A sink bound to this collector (keep the collector alive).
  TraceSink sink() {
    return [this](const TraceRecord& r) { record(r); };
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// phase,stream,iteration,evaluations,best_value,attainment,front_size,
  /// hypervolume — with a header row.  Returns false on I/O error.
  bool write_csv(const std::string& path) const;

  /// The same rows as a CSV-formatted string (shared by write_csv and the
  /// bit-identity tests).
  std::string to_csv() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace gnsslna::obs
