// Concurrent batch-evaluation scheduler on the numeric::ThreadPool.
//
// The scheduler owns a DEDICATED pool (never ThreadPool::shared(): the
// shared pool serializes submitters for the whole duration of a job, and
// service worker loops are jobs that run for the server's lifetime).  An
// engine thread drives pool.parallel_for(workers, worker_loop), which with
// n == workers hands exactly one long-running loop to each of the
// (workers - 1) pool threads plus the engine thread — the same primitive
// every optimizer uses, reused as a job executor.
//
// Scheduling policy:
//   * bounded queue — submit() rejects (returns nullptr) when the global
//     queue is full or the client exceeded its share; the client retries.
//     Rejection is part of the determinism contract: a rejected-then-
//     retried job returns the same bytes as a first-try job, because
//     admission never touches job state.
//   * per-client fair sharing — one FIFO per client, served round-robin,
//     so a flood from one client cannot starve another's jobs.
//   * cancellation / timeout — polled at the optimizer generation
//     barriers through JobContext::check_cancel; a queued job cancels
//     immediately, a running one at its next barrier.
//
// Determinism: jobs run serial inside (jobs.h contract) and workers only
// decide WHICH job runs next, never how a job computes — so a job's
// outcome is bit-identical for any worker count and any traffic mix.
//
// Obs: counters service.{submitted,rejected,completed,errors,cancelled,
// timeouts}; gauges service.{queue_depth,jobs_in_flight}; fixed-bucket
// histograms service.{job_latency_us,queue_wait_us} (job latency is
// recorded once, in service.job_latency_us: the stats p50/p99 and the
// latency SLOs both read it); flight-recorder events at
// admission/start/terminal transitions (obs/flight.h); and a per-job trace context (obs::JobTrace) installed
// around the job body so every span the job opens — plan-cache leases,
// optimizer generations, BatchedPlan solves — is attributed to its job id.
// In obs::deterministic() mode all wall-clock observations record as zero,
// making every exported artifact byte-identical across worker counts.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "numeric/parallel.h"
#include "obs/trace.h"
#include "service/jobs.h"

namespace gnsslna::service {

struct SchedulerOptions {
  std::size_t workers = 2;       ///< 0 = hardware_concurrency()
  std::size_t queue_capacity = 64;         ///< global queued-job bound
  std::size_t max_queued_per_client = 16;  ///< per-client share of the queue
};

/// Terminal result of a scheduled job.
struct JobOutcome {
  std::string status;  ///< "ok" | "error" | "cancelled" | "timeout"
  std::string error_code;     ///< machine-readable, when status == "error"
  std::string error_message;
  Json result;                ///< payload, when status == "ok"
  /// Aggregated per-job span tree (telemetry.h span_tree_json); null
  /// unless obs was live while the job ran.  NEVER part of `result`: the
  /// result payload stays a pure function of (type, params).
  Json spans;
  /// This job's flight-recorder events; populated only for failed /
  /// deadline-missed jobs so their replies carry the post-hoc diagnosis.
  Json flight;
};

class Scheduler {
 public:
  class Ticket;
  using TicketPtr = std::shared_ptr<Ticket>;
  /// Invoked once on the worker thread right after the outcome is set
  /// (the server sends the result frame from here).
  using CompletionFn = std::function<void(Ticket&)>;

  /// Shared state of one submitted job.
  class Ticket {
   public:
    std::uint64_t id() const { return id_; }
    const std::string& client() const { return client_; }
    const std::string& type() const { return type_; }

    /// Blocks until the job reaches a terminal state.
    const JobOutcome& wait() const;

    /// Requests cancellation: immediate for a queued job, at the next
    /// generation barrier for a running one.  Idempotent.
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

   private:
    friend class Scheduler;

    std::uint64_t id_ = 0;
    std::string client_;
    std::string type_;
    Json params_;
    obs::TraceSink progress_;
    CompletionFn on_complete_;
    bool want_spans_ = false;
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_;
    std::chrono::steady_clock::time_point submitted_;  ///< queue-wait origin

    std::atomic<bool> cancelled_{false};
    mutable std::mutex mutex_;
    mutable std::condition_variable done_cv_;
    bool done_ = false;       ///< guarded by mutex_
    JobOutcome outcome_;      ///< guarded by mutex_ until done_
  };

  explicit Scheduler(SchedulerOptions options = {},
                     PlanCache* plans = &PlanCache::process_wide());
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission-controlled submission.  Returns nullptr when the global
  /// queue or the client's share is full (queue-full backpressure; the
  /// client retries).  `timeout_s <= 0` means no deadline.  `progress`
  /// streams the job's TraceRecords from the worker thread.  `want_spans`
  /// asks for the aggregated per-job span tree in JobOutcome::spans — the
  /// trace is always recorded while obs is live, but the JSON tree is only
  /// built on request so uninterested submitters never pay for it.
  TicketPtr submit(const std::string& client, std::string type, Json params,
                   double timeout_s = 0.0, obs::TraceSink progress = {},
                   CompletionFn on_complete = {}, bool want_spans = false);

  std::size_t workers() const { return workers_; }

  /// Stops accepting work, cancels queued jobs (status "cancelled"),
  /// waits for running jobs, joins the workers.  Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  void worker_loop();
  TicketPtr next_job();
  void run_one(Ticket& t);
  void finish(Ticket& t, JobOutcome outcome);

  std::size_t workers_;
  SchedulerOptions options_;
  PlanCache* plans_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::unordered_map<std::string, std::deque<TicketPtr>> queues_;
  std::deque<std::string> round_robin_;  ///< clients with pending jobs
  std::size_t total_queued_ = 0;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;

  std::unique_ptr<numeric::ThreadPool> pool_;
  std::thread engine_;
};

/// Service throughput / latency report from ONE current metrics snapshot:
/// job counts, p50/p99 latency (obs::histogram_quantile of
/// service.job_latency_us, so they equal the latency SLOs' "measured"), and
/// the "slo" array (telemetry.h evaluate_slos_json over default_slos()).
/// All zero / vacuously attained when obs is disabled or compiled out —
/// enable with GNSSLNA_OBS=1.
Json service_stats_json();

}  // namespace gnsslna::service
