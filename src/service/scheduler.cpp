#include "service/scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/telemetry.h"

namespace gnsslna::service {

namespace {

// Every helper below self-gates on telemetry_live(), so GNSSLNA_OBS=OFF
// builds (compiled_in() is constexpr false) never even register the names
// and the metrics/flight ops answer with empty payloads.

const std::vector<double>& latency_bounds_us() {
  static const std::vector<double> kBounds = {
      50,     100,    250,    500,     1000,    2500,    5000,    10000,
      25000,  50000,  100000, 250000,  500000,  1000000, 2500000, 5000000,
      10000000};
  return kBounds;
}

void observe_job_latency(std::uint64_t us) {
  if (!telemetry_live()) return;
  static const obs::Histogram h("service.job_latency_us", latency_bounds_us());
  h.observe(static_cast<double>(us));
}

void observe_queue_wait(std::uint64_t us) {
  if (!telemetry_live()) return;
  static const obs::Histogram h("service.queue_wait_us", latency_bounds_us());
  h.observe(static_cast<double>(us));
}

/// Must be called with the scheduler mutex held (the depth is exact then).
void set_queue_depth_gauge(std::size_t depth) {
  if (!telemetry_live()) return;
  static const obs::Gauge g("service.queue_depth");
  g.set(static_cast<std::int64_t>(depth));
}

void add_in_flight_gauge(std::int64_t d) {
  if (!telemetry_live()) return;
  static const obs::Gauge g("service.jobs_in_flight");
  g.add(d);
}

obs::FlightEvent make_flight_event(obs::FlightType type,
                                   const Scheduler::Ticket& t,
                                   std::uint32_t seq) {
  obs::FlightEvent e;
  e.type = type;
  e.job_id = t.id();
  e.job_seq = seq;
  obs::flight_copy_name(e.job_type, t.type().c_str());
  obs::flight_copy_name(e.client, t.client().c_str());
  return e;
}

// Deterministic per-job flight sequence: 0 = admit, 1 = start (or a
// pre-start cancel), 2 = the terminal event.
constexpr std::uint32_t kFlightSeqAdmit = 0;
constexpr std::uint32_t kFlightSeqStart = 1;
constexpr std::uint32_t kFlightSeqTerminal = 2;

}  // namespace

const JobOutcome& Scheduler::Ticket::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return outcome_;
}

Scheduler::Scheduler(SchedulerOptions options, PlanCache* plans)
    : workers_(numeric::resolve_threads(options.workers)),
      options_(options),
      plans_(plans) {
  // A dedicated pool: worker loops occupy their threads for the server's
  // lifetime, which would wedge the process-wide shared() pool.
  pool_ = std::make_unique<numeric::ThreadPool>(workers_ - 1);
  engine_ = std::thread([this] {
    // n == workers_ hands exactly one worker_loop to each pool thread
    // plus this engine thread (chunking degenerates to one index per
    // grab), giving workers_ concurrent loops.
    pool_->parallel_for(workers_, [this](std::size_t) { worker_loop(); },
                        workers_);
  });
}

Scheduler::~Scheduler() { shutdown(); }

Scheduler::TicketPtr Scheduler::submit(const std::string& client,
                                       std::string type, Json params,
                                       double timeout_s,
                                       obs::TraceSink progress,
                                       CompletionFn on_complete,
                                       bool want_spans) {
  GNSSLNA_OBS_COUNT("service.submitted");
  auto ticket = std::make_shared<Ticket>();
  ticket->client_ = client;
  ticket->type_ = std::move(type);
  ticket->params_ = std::move(params);
  ticket->progress_ = std::move(progress);
  ticket->on_complete_ = std::move(on_complete);
  ticket->want_spans_ = want_spans;
  if (timeout_s > 0.0) {
    ticket->has_deadline_ = true;
    ticket->deadline_ =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
  }
  ticket->submitted_ = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return nullptr;
    std::deque<TicketPtr>& queue = queues_[client];
    if (total_queued_ >= options_.queue_capacity ||
        queue.size() >= options_.max_queued_per_client) {
      GNSSLNA_OBS_COUNT("service.rejected");
      if (telemetry_live()) {
        obs::flight_record(make_flight_event(obs::FlightType::kReject,
                                             *ticket, kFlightSeqAdmit));
      }
      if (queue.empty()) queues_.erase(client);
      return nullptr;
    }
    ticket->id_ = next_id_++;
    if (queue.empty()) round_robin_.push_back(client);
    queue.push_back(ticket);
    ++total_queued_;
    set_queue_depth_gauge(total_queued_);
    // Recorded under the lock so a worker cannot observe (and record the
    // start of) a job whose admission event is not in a ring yet.
    if (telemetry_live()) {
      obs::flight_record(make_flight_event(obs::FlightType::kAdmit, *ticket,
                                           kFlightSeqAdmit));
    }
  }
  work_cv_.notify_one();
  return ticket;
}

Scheduler::TicketPtr Scheduler::next_job() {
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait(lock, [this] { return stopping_ || !round_robin_.empty(); });
  if (round_robin_.empty()) return nullptr;  // stopping, queue drained
  // Round-robin over clients: take the head client's oldest job, then
  // rotate the client to the back if it still has work.
  const std::string client = std::move(round_robin_.front());
  round_robin_.pop_front();
  std::deque<TicketPtr>& queue = queues_[client];
  TicketPtr ticket = std::move(queue.front());
  queue.pop_front();
  --total_queued_;
  set_queue_depth_gauge(total_queued_);
  if (queue.empty()) {
    queues_.erase(client);
  } else {
    round_robin_.push_back(client);
  }
  return ticket;
}

void Scheduler::worker_loop() {
  while (TicketPtr ticket = next_job()) run_one(*ticket);
}

void Scheduler::finish(Ticket& t, JobOutcome outcome) {
  {
    const std::lock_guard<std::mutex> lock(t.mutex_);
    t.outcome_ = std::move(outcome);
    t.done_ = true;
  }
  t.done_cv_.notify_all();
  if (t.on_complete_) t.on_complete_(t);
}

void Scheduler::run_one(Ticket& t) {
  const bool live = telemetry_live();
  if (t.cancelled_.load(std::memory_order_relaxed)) {
    GNSSLNA_OBS_COUNT("service.cancelled");
    if (live) {
      obs::flight_record(
          make_flight_event(obs::FlightType::kCancel, t, kFlightSeqStart));
    }
    JobOutcome cancelled;
    cancelled.status = "cancelled";
    finish(t, std::move(cancelled));
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t queue_wait_us = static_cast<std::uint64_t>(
      std::max<long long>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              start - t.submitted_)
              .count(),
          0));

  // Trace context: the job's spans (plan-cache leases, optimizer
  // generations, batched solves, the serialize in on_complete_) all land
  // on this thread (jobs run serial inside) and are tagged with this id.
  obs::JobTrace trace(t.id_);
  std::unique_ptr<obs::ScopedJobTrace> scope;
  std::vector<std::uint64_t> counters_before;
  if (live) {
    add_in_flight_gauge(+1);
    scope = std::make_unique<obs::ScopedJobTrace>(&trace);
    static const obs::SpanCategory kQueueWait("service.job.queue_wait");
    obs::job_trace_event(
        kQueueWait, obs::deterministic() ? 0 : queue_wait_us * 1000);
    observe_queue_wait(obs::deterministic() ? 0 : queue_wait_us);
    obs::flight_record(
        make_flight_event(obs::FlightType::kStart, t, kFlightSeqStart));
    counters_before.resize(obs::counter_capacity());
    obs::read_local_counters(counters_before.data(), counters_before.size());
  }

  JobContext ctx;
  ctx.plans = plans_;
  ctx.progress = t.progress_;
  ctx.check_cancel = [&t] {
    if (t.cancelled_.load(std::memory_order_relaxed)) throw JobCancelled();
    if (t.has_deadline_ && std::chrono::steady_clock::now() > t.deadline_) {
      throw JobTimeout();
    }
  };

  JobOutcome outcome;
  obs::FlightType terminal = obs::FlightType::kComplete;
  try {
    GNSSLNA_OBS_SPAN("service.job.run");
    outcome.result = run_job(t.type_, t.params_, ctx);
    outcome.status = "ok";
    GNSSLNA_OBS_COUNT("service.completed");
  } catch (const JobCancelled&) {
    outcome.status = "cancelled";
    terminal = obs::FlightType::kCancel;
    GNSSLNA_OBS_COUNT("service.cancelled");
  } catch (const JobTimeout&) {
    outcome.status = "timeout";
    terminal = obs::FlightType::kDeadlineMiss;
    GNSSLNA_OBS_COUNT("service.timeouts");
  } catch (const JobError& e) {
    outcome.status = "error";
    outcome.error_code = e.code();
    outcome.error_message = e.what();
    terminal = obs::FlightType::kError;
    GNSSLNA_OBS_COUNT("service.errors");
  } catch (const std::exception& e) {
    outcome.status = "error";
    outcome.error_code = "internal";
    outcome.error_message = e.what();
    terminal = obs::FlightType::kError;
    GNSSLNA_OBS_COUNT("service.errors");
  }

  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  const std::uint64_t lat_us =
      live && obs::deterministic()
          ? 0
          : static_cast<std::uint64_t>(std::max<long long>(us, 0));
  observe_job_latency(lat_us);

  if (live) {
    // Terminal flight event: duration plus the exact counter deltas of
    // this job (the worker ran nothing else between the two local reads).
    std::vector<std::uint64_t> after(counters_before.size());
    obs::read_local_counters(after.data(), after.size());
    obs::FlightEvent e = make_flight_event(terminal, t, kFlightSeqTerminal);
    e.duration_us = lat_us;
    for (std::size_t i = 0;
         i < after.size() && e.delta_count < obs::kFlightMaxDeltas; ++i) {
      const std::uint64_t d = after[i] - counters_before[i];
      if (d == 0) continue;
      e.deltas[e.delta_count++] = {static_cast<std::uint32_t>(i), d};
    }
    obs::flight_record(e);

    // The span tree costs a JSON build per job, so only submitters who
    // asked (the wire "spans" flag) pay for it; the trace itself is always
    // recorded while live.
    if (t.want_spans_) {
      outcome.spans = span_tree_json(trace, obs::deterministic());
    }
    if (outcome.status == "error" || outcome.status == "timeout") {
      // A failed or deadline-missed job's reply carries its flight events
      // so the bad request is diagnosable without re-running it.
      outcome.flight = flight_json_for_job(t.id_);
    }
    add_in_flight_gauge(-1);
  }
  // `scope` stays installed through finish() so the serialize span in the
  // server's on_complete_ is attributed to this job (it lands in the
  // global capture/trace, not in outcome.spans, which is already built).
  finish(t, std::move(outcome));
}

void Scheduler::shutdown() {
  std::vector<TicketPtr> orphans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && queues_.empty() && !engine_.joinable()) return;
    stopping_ = true;
    for (auto& [client, queue] : queues_) {
      for (TicketPtr& t : queue) orphans.push_back(std::move(t));
    }
    queues_.clear();
    round_robin_.clear();
    total_queued_ = 0;
  }
  work_cv_.notify_all();
  for (const TicketPtr& t : orphans) {
    GNSSLNA_OBS_COUNT("service.cancelled");
    if (telemetry_live()) {
      obs::flight_record(
          make_flight_event(obs::FlightType::kCancel, *t, kFlightSeqStart));
    }
    JobOutcome cancelled;
    cancelled.status = "cancelled";
    finish(*t, std::move(cancelled));
  }
  if (engine_.joinable()) engine_.join();
}

Json service_stats_json() {
  const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
  const auto value_of = [&](const std::string& name) -> std::uint64_t {
    for (const obs::CounterValue& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const obs::HistogramValue* latency = job_latency_histogram(snapshot);
  const auto quantile_us = [&](double q) {
    return latency != nullptr ? obs::histogram_quantile(*latency, q) : 0.0;
  };

  Json out = Json::object();
  out.set("submitted", Json::number(value_of("service.submitted")));
  out.set("rejected", Json::number(value_of("service.rejected")));
  out.set("completed", Json::number(value_of("service.completed")));
  out.set("errors", Json::number(value_of("service.errors")));
  out.set("cancelled", Json::number(value_of("service.cancelled")));
  out.set("timeouts", Json::number(value_of("service.timeouts")));
  out.set("plan_cache_hits", Json::number(value_of("service.plan_cache.hits")));
  out.set("plan_cache_misses",
          Json::number(value_of("service.plan_cache.misses")));
  out.set("latency_jobs",
          Json::number(latency != nullptr ? latency->total : 0));
  out.set("latency_p50_us", Json::number(quantile_us(0.50)));
  out.set("latency_p99_us", Json::number(quantile_us(0.99)));
  out.set("slo", evaluate_slos_json(default_slos(), snapshot));
  return out;
}

}  // namespace gnsslna::service
