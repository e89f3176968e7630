// service: an in-process Scheduler with the default two workers behind
// serve_stream on a socket pair, one client connection, telemetry on (as
// the server is deployed: stats and SLOs read it).  Two closed-loop phases:
//
//   A  one request outstanding; every request is an evaluate of a design
//      that moves all 12 variables by DE-step-sized amounts, so the leased
//      evaluator re-tabulates and re-factors on every job;
//   B  eight requests outstanding (below the per-client queue share of 16,
//      so nothing is rejected in steady state) drawn from the load_gen mix.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "amplifier/lna.h"
#include "mission/objective.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/jobs.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server_io.h"
#include "traced.h"
#include "workloads.h"

namespace e2e {

using namespace gnsslna;
using service::Json;

namespace {

const char* const kSubstrates[] = {"fr4", "ro4350b"};
const double kAmbients[] = {290.0, 310.0};

std::string fmt(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// One of the four plan-cache revisions (substrate x ambient).
std::string config_json(numeric::Rng& rng) {
  return fmt(R"({"substrate":"%s","t_ambient_k":%g})",
             kSubstrates[rng.uniform_index(2)], kAmbients[rng.uniform_index(2)]);
}

}  // namespace

Request phase_a_request(const numeric::Rng& root, std::size_t i) {
  numeric::Rng rng = root.split(i);
  const std::vector<double> x = de_step_design(rng).to_vector();
  static const char* const kFields[] = {
      "vgs",     "vds",      "l_in_m",     "l_in2_m", "l_shunt_h", "c_mid_f",
      "l_out_m", "c_out_sh_f", "l_out2_m", "l_sdeg_h", "c_in_f",   "r_fb_ohm"};
  std::string design = "{";
  for (std::size_t k = 0; k < x.size(); ++k) {
    design += fmt("%s\"%s\":%.17g", k == 0 ? "" : ",", kFields[k], x[k]);
  }
  design += "}";
  return {"evaluate", "evaluate", "{\"design\":" + design + "}"};
}

namespace {

/// Kind slot of request i: every block of 100 consecutive requests holds
/// exactly the load_gen proportions (70 evaluates, two of them on a custom
/// band; 18 sweeps; 3 + 3 designs; 4 yields; 2 extracts) in a seeded order,
/// so the mix of a run does not drift with the seed.
std::size_t mix_slot(const numeric::Rng& root, std::size_t i) {
  numeric::Rng rng = root.split(~std::uint64_t{0} - i / 100);
  std::size_t order[100];
  for (std::size_t k = 0; k < 100; ++k) order[k] = k;
  for (std::size_t k = 99; k > 0; --k) {
    std::swap(order[k], order[rng.uniform_index(k + 1)]);
  }
  return order[i % 100];
}

}  // namespace

Request phase_b_request(const numeric::Rng& root, std::size_t i) {
  numeric::Rng rng = root.split(i);
  const std::size_t slot = mix_slot(root, i);
  if (slot < 70) {
    std::string band;
    if (slot < 2) {
      // A seeded custom 7-point grid: a new plan-cache revision.
      const double lo = 1.05e9 + 1e6 * std::floor(rng.uniform(0.0, 100.0));
      const double hi = 1.60e9 + 1e6 * std::floor(rng.uniform(0.0, 150.0));
      band = ",\"band_hz\":[";
      for (int k = 0; k < 7; ++k) {
        band += fmt("%s%.17g", k == 0 ? "" : ",", lo + (hi - lo) * k / 6.0);
      }
      band += "]";
    }
    const double vgs = rng.uniform(-0.45, -0.25);
    const double vds = rng.uniform(2.0, 3.0);
    return {"evaluate", "evaluate",
            fmt(R"({"design":{"vgs":%.4f,"vds":%.3f},"config":%s)", vgs, vds,
                config_json(rng).c_str()) +
                band + "}"};
  }
  if (slot < 88) {
    const unsigned long long n = 5 + rng.uniform_index(12);
    const bool noise = rng.bernoulli(0.5);
    return {"sweep", "sweep",
            fmt(R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":%llu,)"
                R"("with_noise":%s,"config":%s})",
                n, noise ? "true" : "false", config_json(rng).c_str())};
  }
  if (slot < 94) {
    const unsigned long long seed = 1 + rng.uniform_index(64);
    std::string scenario;
    if (slot < 91) {
      const auto& catalog = mission::scenario_catalog();
      scenario = ",\"scenario\":\"" +
                 catalog[rng.uniform_index(catalog.size())].name + "\"";
    }
    return {"design", scenario.empty() ? "design" : "design_scenario",
            fmt(R"({"seed":%llu,"de_generations":2,"de_population":8,)"
                R"("polish_evaluations":30,"config":%s)",
                seed, config_json(rng).c_str()) +
                scenario + "}"};
  }
  if (slot < 98) {
    const unsigned long long seed = 1 + rng.uniform_index(64);
    const bool sobol = rng.bernoulli(0.5);
    return {"yield", "yield",
            fmt(R"({"seed":%llu,"samples":32,"sampler":"%s","config":%s})",
                seed, sobol ? "sobol" : "pseudo", config_json(rng).c_str())};
  }
  const unsigned long long seed = 1 + rng.uniform_index(64);
  return {"extract", "extract",
          fmt(R"({"seed":%llu,"model":"curtice2","n_freq":4,)"
              R"("de_generations":1,"de_population":8})",
              seed)};
}

namespace {

Json parse_json(const std::string& text) {
  Json doc;
  if (!Json::parse(text, &doc)) throw std::runtime_error("bad request JSON");
  return doc;
}

Json submit_doc(std::uint64_t id, const Request& r) {
  Json doc = Json::object();
  doc.set("op", Json::string("submit"));
  doc.set("id", Json::number(static_cast<double>(id)));
  doc.set("type", Json::string(r.type));
  doc.set("params", parse_json(r.params));
  return doc;
}

/// A result frame is an answer when the job succeeded or failed with a
/// typed "infeasible" error (a design outside the feasible bias region).
bool answered(const Json& reply) {
  const std::string status = reply.string_at("status");
  if (status == "ok") return true;
  const Json* error = reply.find("error");
  return status == "error" && error != nullptr &&
         error->string_at("code") == "infeasible";
}

/// The scheduler and its serve_stream transport on one socket pair, with
/// the client end of the pair.
class WireServer {
 public:
  explicit WireServer(service::PlanCache* cache)
      : scheduler_(service::SchedulerOptions{}, cache) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    server_ = std::thread([this] {
      service::serve_stream(scheduler_, fds_[1], fds_[1], "e2e-client");
    });
    client_ = std::make_unique<service::StreamClient>(fds_[0], fds_[0]);
  }
  ~WireServer() {
    // EOF on the server's read side ends serve_stream after it drained.
    ::shutdown(fds_[0], SHUT_WR);
    server_.join();
    scheduler_.shutdown();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  service::StreamClient& client() { return *client_; }
  service::Scheduler& scheduler() { return scheduler_; }

  /// Sends one request and waits for its result frame.
  Json call(std::uint64_t id, const Request& r, std::string* raw = nullptr) {
    if (!client_->send(submit_doc(id, r))) throw std::runtime_error("send");
    return await(id, raw);
  }
  Json await(std::uint64_t id, std::string* raw = nullptr) {
    Json reply;
    while (client_->next(&reply, raw)) {
      if (reply.string_at("event") == "result" &&
          static_cast<std::uint64_t>(reply.number_at("id", -1)) == id) {
        return reply;
      }
    }
    throw std::runtime_error("server closed the stream");
  }

 private:
  service::Scheduler scheduler_;
  int fds_[2] = {-1, -1};
  std::unique_ptr<service::StreamClient> client_;
  std::thread server_;
};

/// One job of each kind through the wire: the warm-up every set-up ends with.
void warm_up(WireServer& server, std::uint64_t* next_id) {
  const numeric::Rng root(7);
  std::map<std::string, bool> seen;
  for (std::size_t i = 0; seen.size() < 6 && i < 20000; ++i) {
    const Request r = phase_b_request(root, i);
    if (seen.count(r.kind) != 0) continue;
    seen[r.kind] = true;
    (void)server.call((*next_id)++, r);
  }
  (void)server.call((*next_id)++, phase_a_request(root, 0));
}

struct PhaseA {
  std::vector<double> rtt_us;
  std::size_t failed = 0;
  struct Sample {
    std::uint64_t id;
    Request request;
    std::string raw;
  };
  std::vector<Sample> samples;  ///< every 16th request, for verification
};

/// Closed loop, one outstanding request, for `seconds` (at least `min_n`).
void run_phase_a(WireServer& server, const numeric::Rng& root,
                 std::size_t* index, std::uint64_t* next_id, double seconds,
                 std::size_t min_n, PhaseA& out, Tracer* tracer = nullptr) {
  const std::uint64_t start = now_ns();
  for (std::size_t n = 0;; ++n) {
    if (n >= min_n &&
        static_cast<double>(now_ns() - start) * 1e-9 >= seconds) {
      break;
    }
    const Request r = phase_a_request(root, (*index)++);
    const std::uint64_t id = (*next_id)++;
    std::string raw;
    const std::uint64_t t0 = now_ns();
    std::int64_t span = -1;
    if (tracer != nullptr) span = tracer->open("service.request", id);
    const Json reply = server.call(id, r, &raw);
    if (tracer != nullptr) tracer->close(span);
    out.rtt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (!answered(reply)) ++out.failed;
    if (id % 16 == 0) out.samples.push_back({id, r, raw});
  }
}

/// Re-runs sampled phase A requests through run_job and compares the reply
/// frames byte for byte (typed infeasible errors by their code).
std::size_t verify_phase_a(const PhaseA& a, std::size_t* mismatches) {
  service::PlanCache cache;
  service::JobContext ctx;
  ctx.plans = &cache;
  std::size_t checked = 0;
  for (const PhaseA::Sample& s : a.samples) {
    ++checked;
    Json expected = Json::object();
    expected.set("event", Json::string("result"));
    expected.set("id", Json::number(static_cast<double>(s.id)));
    try {
      Json result =
          service::run_job(s.request.type, parse_json(s.request.params), ctx);
      expected.set("status", Json::string("ok"));
      expected.set("result", std::move(result));
      if (expected.dump() != s.raw) ++*mismatches;
    } catch (const service::JobError& e) {
      Json got;
      Json::parse(s.raw, &got);
      const Json* error = got.find("error");
      if (got.string_at("status") != "error" || error == nullptr ||
          error->string_at("code") != e.code()) {
        ++*mismatches;
      }
    }
  }
  return checked;
}

/// Phase B requests per second of --seconds: about 40 % of the run at
/// today's ~1300 jobs/s.
constexpr double kPhaseBPerSecond = 500.0;

struct PhaseB {
  std::vector<double> latency_ms;
  std::map<std::string, std::size_t> kinds;
  std::size_t completed = 0, failed = 0, retries = 0;
  double busy_s = 0.0;      ///< summed wall time of the run_phase_b calls
  double jobs_per_s = 0.0;  ///< completed / busy_s
};

/// Closed loop with `window` requests outstanding until `count` requests
/// have been answered.  A fixed count (not a fixed time) keeps the work of
/// a run, and with it the plan-cache and scenario-cache growth that sets
/// peak RSS, the same on any host speed.
void run_phase_b(WireServer& server, const numeric::Rng& root,
                 std::size_t first_index, std::uint64_t* next_id,
                 std::size_t count, std::size_t window, PhaseB& out,
                 Tracer* tracer = nullptr) {
  struct Inflight {
    std::uint64_t id;
    std::size_t index;
    std::uint64_t sent;
  };
  std::vector<Inflight> inflight;
  std::deque<std::size_t> retry;
  std::size_t next_index = first_index;
  const std::size_t end_index = first_index + count;
  const std::uint64_t start = now_ns();
  std::uint64_t last_done = start;
  for (;;) {
    while (inflight.size() < window &&
           (next_index < end_index || !retry.empty())) {
      std::size_t index = next_index;
      if (!retry.empty()) {
        index = retry.front();
        retry.pop_front();
      } else {
        ++next_index;
      }
      const std::uint64_t id = (*next_id)++;
      inflight.push_back({id, index, now_ns()});
      if (!server.client().send(submit_doc(id, phase_b_request(root, index)))) {
        throw std::runtime_error("send");
      }
    }
    if (inflight.empty()) break;
    Json reply;
    if (!server.client().next(&reply)) {
      throw std::runtime_error("server closed the stream");
    }
    if (reply.string_at("event") != "result") continue;
    const std::uint64_t id = static_cast<std::uint64_t>(reply.number_at("id", -1));
    const auto it = std::find_if(inflight.begin(), inflight.end(),
                                 [id](const Inflight& f) { return f.id == id; });
    if (it == inflight.end()) continue;
    const Inflight done = *it;
    inflight.erase(it);
    if (reply.string_at("status") == "rejected") {
      ++out.retries;
      retry.push_back(done.index);
      continue;
    }
    last_done = now_ns();
    if (tracer != nullptr) tracer->add("service.request", done.sent, last_done, id);
    out.latency_ms.push_back(static_cast<double>(last_done - done.sent) * 1e-6);
    ++out.completed;
    ++out.kinds[phase_b_request(root, done.index).kind];
    if (!answered(reply)) ++out.failed;
  }
  out.busy_s += static_cast<double>(last_done - start) * 1e-9;
  out.jobs_per_s = static_cast<double>(out.completed) / out.busy_s;
}

std::unique_ptr<WireServer> set_up(service::PlanCache& cache,
                                   std::uint64_t* next_id) {
  auto server = std::make_unique<WireServer>(&cache);
  warm_up(*server, next_id);
  return server;
}

}  // namespace

void run_service(const RunOptions& opt, Report& report) {
  obs::set_enabled(true);
  obs::set_deterministic(false);
  obs::reset();
  obs::metrics_reset();

  // Five set-ups (scheduler, transport, first plan build, one job of each
  // kind), each followed by one segment of phase A on the fresh server:
  // setup_s is the median of five, and phase A pools five placements of
  // the server's threads, whose wake-up paths set much of a round trip.
  constexpr int kSetups = 5;
  const numeric::Rng root_a(derive_seed(opt.seed, 1));
  const numeric::Rng root_b(derive_seed(opt.seed, 2));
  std::vector<double> setups;
  std::unique_ptr<service::PlanCache> cache;
  std::unique_ptr<WireServer> server;
  std::uint64_t next_id = 1;
  const std::size_t threads = parallel_threads();
  PhaseA a;
  std::vector<double> rtt_ref;
  std::size_t index_a = 0;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    cache.reset();
    const std::uint64_t t0 = i == 0 ? opt.process_start_ns : now_ns();
    cache = std::make_unique<service::PlanCache>();
    server = set_up(*cache, &next_id);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const std::size_t first = a.rtt_us.size();
    // The service hands each job to whichever thread is free, so it runs at
    // the threads' mean pace, not its slowest one's.
    double ref_ms = 0.0;
    time_against_reference(threads, RefPace::kMean, &ref_ms, [&] {
      run_phase_a(*server, root_a, &index_a, &next_id,
                  0.35 * opt.seconds / kSetups, 40, a);
    });
    for (std::size_t k = first; k < a.rtt_us.size(); ++k) {
      rtt_ref.push_back(a.rtt_us[k] * 1e-3 / ref_ms);
    }
  }
  report.metric("setup_s", summarize(setups).p50, "s", setups.size(),
                "median set-up: scheduler, transport, one job of each kind");
  // Phase B in five chunks on one server (its caches keep growing), each
  // timed against the reference kernel; the server drains between chunks.
  constexpr std::size_t kChunks = 5;
  PhaseB b;
  std::vector<double> jobs_per_ref;
  const std::size_t chunk =
      static_cast<std::size_t>(kPhaseBPerSecond * opt.seconds / kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t first = b.completed;
    double ref_ms = 0.0;
    const double ms = time_against_reference(threads, RefPace::kMean, &ref_ms, [&] {
      run_phase_b(*server, root_b, c * chunk, &next_id, chunk, 8, b);
    });
    jobs_per_ref.push_back(static_cast<double>(b.completed - first) /
                           (ms / ref_ms));
  }
  server.reset();

  std::size_t mismatches = 0;
  const std::size_t checked = verify_phase_a(a, &mismatches);
  report.attempt(a.rtt_us.size() + b.completed, a.failed + b.failed + mismatches);
  report.check(mismatches == 0,
               std::to_string(checked) +
                   " sampled phase A replies byte-identical to run_job");
  report.check(a.failed + b.failed == 0,
               "every reply is ok or a typed infeasible error");

  std::vector<double> rtt_ms;
  for (double us : a.rtt_us) rtt_ms.push_back(us * 1e-3);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.metric("op_p50_ref", summarize(rtt_ref).p50, "ref", rtt_ref.size(),
                "median phase A round trip in reference-kernel units");
  report.metric("work_per_ref", summarize(jobs_per_ref).p50, "1/ref",
                jobs_per_ref.size(),
                "median over chunks of phase B jobs per reference-kernel time");
  report.timing("op_p50_ms", "op_tail_ms", rtt_ms, "ms");
  report.metric("work_per_s", b.jobs_per_s, "1/s", b.completed,
                "phase B mixed jobs per second, 8 outstanding");
  report.timing("evaluate_rtt_p50_us", "evaluate_rtt_p99_us", a.rtt_us, "us");
  report.metric("mixed_jobs_per_s", b.jobs_per_s, "1/s", b.completed);
  report.timing("mixed_p50_ms", "mixed_p99_ms", b.latency_ms, "ms");
  report.metric("queue_full_retries", static_cast<double>(b.retries), "count",
                b.completed);
  std::string mix = "phase B mix:";
  for (const auto& [kind, n] : b.kinds) mix += " " + kind + "=" + std::to_string(n);
  report.lines.push_back(mix);
  report.metric("error_rate",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<std::size_t>(1, report.attempted)),
                "ratio", report.attempted);
}

// --- Traced replica ------------------------------------------------------------

namespace {

double median(std::vector<double> v) { return summarize(std::move(v)).p50; }

const obs::HistogramValue* find_histogram(const obs::MetricsSnapshot& s,
                                          const std::string& name) {
  for (const obs::HistogramValue& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double counter_value(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const obs::CounterValue& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

double gauge_value(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const obs::GaugeValue& g : s.gauges) {
    if (g.name == name) return static_cast<double>(g.value);
  }
  return 0.0;
}

double coverage_of(const Tracer& tracer, std::int64_t root) {
  const Tracer::Span& r = tracer.spans()[static_cast<std::size_t>(root)];
  return 1.0 - static_cast<double>(tracer.self_of(static_cast<std::size_t>(root))) /
                   static_cast<double>(r.end - r.start);
}

}  // namespace

void traced_service(const RunOptions& opt, Tracer& tracer, Report& report,
                    TracedValues& values) {
  obs::set_enabled(true);
  obs::set_deterministic(false);
  service::PlanCache cache;
  std::uint64_t next_id = 1;
  auto server = set_up(cache, &next_id);
  const numeric::Rng root_a(derive_seed(opt.seed, 1));
  const numeric::Rng root_b(derive_seed(opt.seed, 2));

  // Phase A in interleaved blocks — telemetry on, on + traced, off — with
  // the block order rotated every round so no mode always runs first.
  const std::size_t block = 150;
  PhaseA on, traced_a, off;
  std::size_t index = 0;
  std::vector<std::int64_t> roots;
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 3; ++k) {
      switch ((round + k) % 3) {
        case 0:
          run_phase_a(*server, root_a, &index, &next_id, 0.0, block, on);
          break;
        case 1:
          roots.push_back(tracer.open("workload.service.phase_a"));
          run_phase_a(*server, root_a, &index, &next_id, 0.0, block, traced_a,
                      &tracer);
          tracer.close(roots.back());
          break;
        default:
          obs::set_enabled(false);
          run_phase_a(*server, root_a, &index, &next_id, 0.0, block, off);
          obs::set_enabled(true);
      }
    }
  }
  const double wire_us = median(traced_a.rtt_us);
  values.overhead_service = wire_us / median(on.rtt_us);
  report.metric("obs.overhead_ratio", median(on.rtt_us) / median(off.rtt_us),
                "ratio", on.rtt_us.size(),
                "phase A RTT, program telemetry on / off");
  report.metric("service.wire_rtt_us", wire_us, "us", traced_a.rtt_us.size(),
                "client side, median");

  // The same kind of requests below the transport, then below the scheduler.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 400; ++i) requests.push_back(phase_a_request(root_a, index + i));
  std::vector<double> sched_us, job_us, acquire_us;
  service::JobContext ctx;
  ctx.plans = &cache;
  for (const Request& r : requests) {
    const Json params = parse_json(r.params);
    const std::uint64_t t0 = now_ns();
    service::Scheduler::TicketPtr ticket;
    while (ticket == nullptr) {
      ticket = server->scheduler().submit("e2e-direct", r.type, params);
    }
    (void)ticket->wait();
    sched_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  for (const Request& r : requests) {
    const Json params = parse_json(r.params);
    const std::int64_t span = tracer.open("service.run_job");
    try {
      (void)service::run_job(r.type, params, ctx);
    } catch (const service::JobError&) {
    }
    tracer.close(span);
    const Tracer::Span& s = tracer.spans()[static_cast<std::size_t>(span)];
    job_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
  }
  {
    amplifier::AmplifierConfig config;
    const std::vector<double> band = amplifier::LnaDesign::default_band();
    const std::uint64_t revision = service::topology_revision(config, band);
    const device::Phemt dev = device::Phemt::reference_device();
    for (int i = 0; i < 400; ++i) {
      const std::int64_t span = tracer.open("service.plan_acquire");
      { const auto lease = cache.acquire(revision, dev, config, band); }
      tracer.close(span);
      const Tracer::Span& s = tracer.spans()[static_cast<std::size_t>(span)];
      acquire_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
    }
  }
  const double sched = median(sched_us), job = median(job_us);
  report.metric("service.scheduler_rtt_us", sched, "us", sched_us.size(),
                "Scheduler::submit -> Ticket::wait, median");
  report.metric("service.run_job_us", job, "us", job_us.size(),
                "run_job with a warm PlanCache, median");
  report.metric("service.transport_us", wire_us - sched, "us", 1,
                "wire_rtt_us - scheduler_rtt_us");
  report.metric("service.dispatch_us", sched - job, "us", 1,
                "scheduler_rtt_us - run_job_us");
  report.metric("service.plan_acquire_us", median(acquire_us), "us",
                acquire_us.size(), "warm acquire + release");

  // Codec costs on phase A's own request and reply bytes.
  std::vector<double> parse_us, dump_us, frame_us;
  for (const PhaseA::Sample& s : traced_a.samples) {
    const std::string request = submit_doc(s.id, s.request).dump();
    std::uint64_t t0 = now_ns();
    Json req_doc, reply_doc;
    Json::parse(request, &req_doc);
    Json::parse(s.raw, &reply_doc);
    std::uint64_t t1 = now_ns();
    (void)req_doc.dump();
    (void)reply_doc.dump();
    std::uint64_t t2 = now_ns();
    for (const std::string* payload : {&request, &s.raw}) {
      service::FrameReader reader;
      reader.feed(service::encode_frame(*payload));
      std::string back;
      reader.next(&back);
    }
    const std::uint64_t t3 = now_ns();
    parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    dump_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    frame_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
  }
  report.metric("service.json_parse_us", median(parse_us), "us", parse_us.size(),
                "request + reply");
  report.metric("service.json_dump_us", median(dump_us), "us", dump_us.size(),
                "request + reply");
  report.metric("service.frame_us", median(frame_us), "us", frame_us.size(),
                "encode_frame + FrameReader, request + reply");

  // Phase B, traced, with the program's queue and plan-cache telemetry.
  obs::reset();
  obs::metrics_reset();
  PhaseB b;
  roots.push_back(tracer.open("workload.service.phase_b"));
  run_phase_b(*server, root_b, 0, &next_id,
              static_cast<std::size_t>(0.25 * kPhaseBPerSecond * opt.seconds), 8,
              b, &tracer);
  tracer.close(roots.back());
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  if (const obs::HistogramValue* h = find_histogram(snap, "service.queue_wait_us")) {
    report.metric("service.queue_wait_p50_ms",
                  obs::histogram_quantile(*h, 0.50) * 1e-3, "ms", h->total);
    report.metric("service.queue_wait_p99_ms",
                  obs::histogram_quantile(*h, 0.99) * 1e-3, "ms", h->total);
  }
  const double hits = counter_value(snap, "service.plan_cache.hits");
  const double misses = counter_value(snap, "service.plan_cache.misses");
  report.metric("service.plan_cache_hit_ratio", hits / std::max(1.0, hits + misses),
                "ratio", static_cast<std::size_t>(hits + misses));
  report.metric("service.plan_cache_idle",
                gauge_value(snap, "service.plan_cache.idle"), "count", 1,
                "idle evaluators after phase B");
  server.reset();

  std::size_t mismatches = 0;
  verify_phase_a(traced_a, &mismatches);
  report.attempt(on.rtt_us.size() + traced_a.rtt_us.size() + off.rtt_us.size() +
                     b.completed,
                 on.failed + traced_a.failed + off.failed + b.failed + mismatches);
  report.check(mismatches == 0,
               "traced service: sampled phase A replies byte-identical to "
               "run_job");

  double covered = 0.0, total = 0.0;
  for (std::int64_t r : roots) {
    const Tracer::Span& s = tracer.spans()[static_cast<std::size_t>(r)];
    const double dur = static_cast<double>(s.end - s.start);
    covered += coverage_of(tracer, r) * dur;
    total += dur;
  }
  values.coverage_service = covered / total;

  // Direct run_job over phase B's request mix, per kind.
  obs::set_enabled(false);
  std::map<std::string, std::vector<double>> per_kind;
  service::PlanCache direct_cache;
  ctx.plans = &direct_cache;
  for (std::size_t i = 0; i < 20000; ++i) {
    const Request r = phase_b_request(root_b, i);
    std::vector<double>& v = per_kind[r.kind];
    if (v.size() >= 8) continue;
    const Json params = parse_json(r.params);
    const std::int64_t span = tracer.open("service.run_job", i);
    try {
      (void)service::run_job(r.type, params, ctx);
    } catch (const service::JobError&) {
    }
    tracer.close(span);
    const Tracer::Span& s = tracer.spans()[static_cast<std::size_t>(span)];
    v.push_back(static_cast<double>(s.end - s.start) * 1e-6);
    if (per_kind.size() == 6 &&
        std::all_of(per_kind.begin(), per_kind.end(),
                    [](const auto& kv) { return kv.second.size() >= 8; })) {
      break;
    }
  }
  for (const char* kind : {"evaluate", "sweep", "design", "design_scenario",
                           "yield", "extract"}) {
    const std::vector<double>& v = per_kind[kind];
    report.metric(std::string("service.run_job_ms.") + kind, median(v), "ms",
                  v.size(), "direct run_job over phase B requests, median");
  }

  // Mission layer: scenario objectives as the scenario design jobs use them.
  const auto& catalog = mission::scenario_catalog();
  const device::Phemt dev = device::Phemt::reference_device();
  std::vector<double> build_ms, figures_us;
  numeric::Rng rng(derive_seed(opt.seed, 3));
  for (const mission::Scenario& scenario : catalog) {
    const std::int64_t span = tracer.open("mission.objective_build");
    const mission::ScenarioObjective objective(dev, amplifier::AmplifierConfig{},
                                               scenario);
    (void)objective.figures(amplifier::DesignVector{});
    tracer.close(span);
    const Tracer::Span& s = tracer.spans()[static_cast<std::size_t>(span)];
    build_ms.push_back(static_cast<double>(s.end - s.start) * 1e-6);
    for (int i = 0; i < 50; ++i) {
      const amplifier::DesignVector d = de_step_design(rng);
      const std::int64_t f = tracer.open("mission.scenario_figures");
      (void)objective.figures(d);
      tracer.close(f);
      const Tracer::Span& t = tracer.spans()[static_cast<std::size_t>(f)];
      figures_us.push_back(static_cast<double>(t.end - t.start) * 1e-3);
    }
  }
  report.metric("mission.objective_build_ms", median(build_ms), "ms",
                build_ms.size(), "ScenarioObjective + first figures()");
  report.metric("mission.scenario_figures_us", median(figures_us), "us",
                figures_us.size(), "DE-step designs");

  // RSS growth per scenario design job run through run_job.
  const int jobs = 6;
  const double rss0 = current_rss_kb();
  for (int i = 0; i < jobs; ++i) {
    const std::string params = fmt(
        R"({"seed":%d,"de_generations":2,"de_population":8,)"
        R"("polish_evaluations":30,"scenario":"%s"})",
        100 + i, catalog[static_cast<std::size_t>(i) % catalog.size()].name.c_str());
    (void)service::run_job("design", parse_json(params), ctx);
  }
  report.metric("mission.objective_rss_kb", (current_rss_kb() - rss0) / jobs,
                "kB", jobs, "RSS growth per scenario design job");
}

}  // namespace e2e
