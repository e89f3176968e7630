// Process-wide compiled-plan tier: a pool of idle amplifier::BandEvaluator
// instances keyed by netlist revision, so concurrent jobs on the same
// topology reuse compiled stamp tables instead of rebuilding them.
//
// A BandEvaluator owns the expensive per-topology state (the batched plan
// with its fixed-element stamp tables, dispersion curves, batched-solve
// workspaces) and re-tabulates only what a design point moves.  It is NOT
// thread-safe, so the cache hands out exclusive leases: acquire() pops an
// idle evaluator for the revision (hit) or builds a fresh one outside the
// lock (miss); dropping the lease checks the evaluator back in for the
// next job, up to a per-revision idle cap.
//
// Determinism: an evaluator's internal state (which design it last
// touched, hence which elements re-stamp) never changes evaluation
// VALUES — only how much re-tabulation work a call performs (pinned
// against the per-call oracle along a design walk by
// tests/test_batched.cpp).  A job
// therefore computes bit-identical results whether its lease is freshly
// built or arbitrarily pre-used, which is what makes the cache safe to
// share between unrelated concurrent jobs.
//
// Obs: counters service.plan_cache.{hits,misses,returns,evictions}, the
// residency gauge service.plan_cache.idle (checked-in evaluators), and the
// span service.plan_cache.acquire — which, under a job's trace context,
// attributes lease wait/build time to the owning job.  All of these are
// OBSERVATIONAL (lease warmth depends on interleaving): deterministic
// exposition zeroes them (obs::metric_is_observational).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "amplifier/lna.h"

namespace gnsslna::service {

/// Stable 64-bit key of everything a BandEvaluator's compiled tables
/// depend on besides the design vector: the resolved amplifier config
/// (board stack, bias context, modelling switches) and the evaluation
/// grid.  Two jobs with equal revisions may share evaluators; two jobs
/// with different revisions never do.  (The device is part of the config
/// for the service's purposes: all jobs run the paper's reference pHEMT.)
std::uint64_t topology_revision(const amplifier::AmplifierConfig& config,
                                const std::vector<double>& band_hz);

class PlanCache {
 public:
  /// An exclusive checkout; returning it to the cache is the deleter's
  /// job, so a lease can be handed to DesignFlowOptions::evaluator or
  /// make_goal_problem directly.  The cache must outlive every lease.
  using Lease = std::shared_ptr<amplifier::BandEvaluator>;

  explicit PlanCache(std::size_t max_idle_per_revision = 8)
      : max_idle_per_revision_(max_idle_per_revision) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Checks out an evaluator for `revision`, building one from the given
  /// topology on a miss.  The caller must pass the SAME (device, config,
  /// band) for equal revisions — the revision is the contract, the
  /// arguments are only consulted on a miss.  Construction throws like
  /// BandEvaluator for unbuildable topologies (nothing is cached then).
  Lease acquire(std::uint64_t revision, const device::Phemt& device,
                const amplifier::AmplifierConfig& config,
                const std::vector<double>& band_hz);

  /// Idle (checked-in) evaluators across all revisions.
  std::size_t idle_count() const;

  /// Drops every idle evaluator (tests; outstanding leases are unaffected
  /// and still check back in afterwards).
  void clear();

  /// The shared tier used by the job server by default.
  static PlanCache& process_wide();

 private:
  void release(std::uint64_t revision, amplifier::BandEvaluator* evaluator);

  mutable std::mutex mutex_;
  std::size_t max_idle_per_revision_;
  std::size_t idle_total_ = 0;  ///< guarded by mutex_; feeds the gauge
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<amplifier::BandEvaluator>>>
      idle_;
};

}  // namespace gnsslna::service
