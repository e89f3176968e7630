// Load generator for the design-as-a-service job server.
//
// Replays a deterministic mixed workload — band evaluations, S-parameter
// sweeps, small design flows, yield runs, model extractions — against the
// scheduler and reports client-side latency percentiles next to the
// server-side p50/p99 derived from the obs latency histogram
// (service_stats_json).  Three ways to reach the server:
//
//   load_gen                          in-process scheduler (default)
//   load_gen --spawn ./lna_service    fork/exec the server in --worker
//                                     mode and talk over pipes
//   load_gen --socket /tmp/gnsslna.sock   connect to a running server
//
//   --count N     requests to send (default 1000)
//   --threads N   scheduler workers for the in-process/spawned server
//                 (default 2)
//   --window N    max requests in flight (default 32)
//   --seed S      workload mix seed (default 1)
//   --slo-strict  exit nonzero when any served SLO is missed
//   --metrics-out PATH   write the Prometheus metrics exposition
//   --flight-out PATH    write the flight-recorder dump (JSON)
//
// Queue-full rejections are part of the exercise: the generator retries a
// rejected job until it is admitted (the retried result is bit-identical
// to a first-try run — the service determinism contract), and reports how
// many retries the run needed.
//
// After the report the generator prints one verdict line per served SLO
// (from the "slo" array of the stats op) and a final "SLO verdict" line;
// with --slo-strict a missed objective makes the run exit 3.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "numeric/rng.h"
#include "obs/obs.h"
#include "service/jobs.h"
#include "service/json.h"
#include "service/scheduler.h"
#include "service/server_io.h"
#include "service/telemetry.h"

namespace {

using namespace gnsslna;
using service::Json;

struct Request {
  std::string type;
  std::string params;
};

/// Deterministic mixed workload: mostly cheap evaluations and sweeps with
/// a sprinkle of optimizer-backed jobs, spread over several plan-cache
/// revisions.  Pure function of (seed, index).
Request make_request(const numeric::Rng& root, std::size_t i) {
  numeric::Rng rng = root.split(i);
  const double pick = rng.uniform();
  char buf[256];
  if (pick < 0.70) {
    std::snprintf(buf, sizeof buf,
                  R"({"design":{"vgs":%.4f,"vds":%.3f},)"
                  R"("config":{"t_ambient_k":%g}})",
                  rng.uniform(-0.45, -0.25), rng.uniform(2.0, 3.0),
                  rng.bernoulli(0.3) ? 310.0 : 290.0);
    return {"evaluate", buf};
  }
  if (pick < 0.88) {
    std::snprintf(buf, sizeof buf,
                  R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":%llu,)"
                  R"("with_noise":%s})",
                  static_cast<unsigned long long>(5 + rng.uniform_index(12)),
                  rng.bernoulli(0.5) ? "true" : "false");
    return {"sweep", buf};
  }
  if (pick < 0.94) {
    std::snprintf(buf, sizeof buf,
                  R"({"seed":%llu,"de_generations":2,"de_population":8,)"
                  R"("polish_evaluations":30})",
                  static_cast<unsigned long long>(1 + rng.uniform_index(64)));
    return {"design", buf};
  }
  if (pick < 0.98) {
    std::snprintf(buf, sizeof buf,
                  R"({"seed":%llu,"samples":32,"sampler":"%s"})",
                  static_cast<unsigned long long>(1 + rng.uniform_index(64)),
                  rng.bernoulli(0.5) ? "sobol" : "pseudo");
    return {"yield", buf};
  }
  std::snprintf(buf, sizeof buf,
                R"({"seed":%llu,"model":"curtice2","n_freq":4,)"
                R"("de_generations":1,"de_population":8})",
                static_cast<unsigned long long>(1 + rng.uniform_index(64)));
  return {"extract", buf};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunStats {
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::vector<double> latency_s;  ///< client-observed, per request
};

double percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const std::size_t idx = std::min(
      v->size() - 1, static_cast<std::size_t>(q * static_cast<double>(v->size())));
  return (*v)[idx];
}

void print_report(const char* mode, const RunStats& stats, double wall_s,
                  const Json& server_stats) {
  std::vector<double> lat = stats.latency_s;
  const double total = static_cast<double>(stats.ok + stats.failed);
  std::printf(
      "== load_gen (%s) ==\n"
      "  requests   %zu ok, %zu failed, %zu queue-full retries\n"
      "  wall       %.2f s  ->  %.0f jobs/s\n"
      "  client lat p50 %.2f ms   p99 %.2f ms\n",
      mode, stats.ok, stats.failed, stats.retries, wall_s, total / wall_s,
      percentile(&lat, 0.50) * 1e3, percentile(&lat, 0.99) * 1e3);
  std::printf(
      "  server     %lld submitted, %lld completed, %lld rejected\n"
      "  server lat p50 %.0f us   p99 %.0f us   (interpolated midpoints "
      "of the obs histogram, %lld jobs)\n",
      static_cast<long long>(server_stats.number_at("submitted", 0)),
      static_cast<long long>(server_stats.number_at("completed", 0)),
      static_cast<long long>(server_stats.number_at("rejected", 0)),
      server_stats.number_at("latency_p50_us", 0),
      server_stats.number_at("latency_p99_us", 0),
      static_cast<long long>(server_stats.number_at("latency_jobs", 0)));
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "load_gen: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// One verdict line per served objective (stats "slo" array) plus the
/// final verdict.  Returns true when every objective is attained — always
/// true with obs off, where every objective is vacuous.
bool print_slo_verdict(const Json& server_stats) {
  const Json* slo = server_stats.find("slo");
  if (slo == nullptr || !slo->is_array() || slo->size() == 0) {
    std::printf("SLO verdict: PASS (no objectives reported)\n");
    return true;
  }
  std::size_t attained = 0;
  for (std::size_t i = 0; i < slo->size(); ++i) {
    const Json& o = slo->at(i);
    const bool ok = o.bool_at("attained", true);
    if (ok) ++attained;
    std::printf("  slo        %-20s measured %14.3f  limit %14.3f  [%s]\n",
                o.string_at("name").c_str(), o.number_at("measured", 0.0),
                o.number_at("limit", 0.0), ok ? "ok" : "MISS");
  }
  const bool pass = attained == slo->size();
  std::printf("SLO verdict: %s (%zu/%zu objectives attained)\n",
              pass ? "PASS" : "MISS", attained, slo->size());
  return pass;
}

/// In-process mode: drive the Scheduler directly through its ticket API.
int run_in_process(std::size_t count, std::size_t threads, std::size_t window,
                   std::uint64_t seed, bool slo_strict,
                   const std::string& metrics_out,
                   const std::string& flight_out) {
  obs::set_enabled(true);
  obs::reset();
  service::SchedulerOptions options;
  options.workers = threads;
  service::Scheduler scheduler(options);
  const numeric::Rng root(seed);

  RunStats stats;
  std::vector<std::pair<service::Scheduler::TicketPtr, double>> inflight;
  const double t0 = now_s();
  std::size_t next = 0;
  while (next < count || !inflight.empty()) {
    while (next < count && inflight.size() < window) {
      const Request req = make_request(root, next);
      Json params;
      Json::parse(req.params, &params);
      auto ticket = scheduler.submit("load_gen", req.type, std::move(params));
      if (ticket == nullptr) {
        // Queue full: retire one in-flight job, then retry this request.
        ++stats.retries;
        break;
      }
      inflight.emplace_back(std::move(ticket), now_s());
      ++next;
    }
    if (inflight.empty()) continue;
    const auto [ticket, sent_at] = inflight.front();
    inflight.erase(inflight.begin());
    const service::JobOutcome& outcome = ticket->wait();
    stats.latency_s.push_back(now_s() - sent_at);
    if (outcome.status == "ok") {
      ++stats.ok;
    } else {
      ++stats.failed;
      std::fprintf(stderr, "job failed (%s): %s\n", outcome.status.c_str(),
                   outcome.error_message.c_str());
    }
  }
  const double wall = now_s() - t0;
  const Json server_stats = service::service_stats_json();
  print_report("in-process", stats, wall, server_stats);
  if (!metrics_out.empty()) {
    write_text_file(metrics_out,
                    service::metrics_prometheus(obs::deterministic()));
  }
  if (!flight_out.empty()) {
    write_text_file(flight_out,
                    service::flight_json(obs::deterministic()).dump());
  }
  const bool slo_pass = print_slo_verdict(server_stats);
  scheduler.shutdown();
  if (stats.failed != 0) return 1;
  return slo_strict && !slo_pass ? 3 : 0;
}

/// One pipelined submission awaiting its result frame.
struct InflightWire {
  std::uint64_t wire_id = 0;
  std::size_t request_index = 0;
  double sent_s = 0.0;
};

/// Remote mode: one pipelined protocol connection, up to `window` jobs in
/// flight.  A rejected submission (queue-full backpressure) re-enters the
/// submit queue with the same request body under a fresh wire id.
int run_remote(service::StreamClient& client, std::size_t count,
               std::size_t window, std::uint64_t seed, const char* mode,
               bool slo_strict, const std::string& metrics_out,
               const std::string& flight_out) {
  const numeric::Rng root(seed);
  RunStats stats;
  std::vector<InflightWire> inflight;
  std::deque<std::size_t> to_send;
  for (std::size_t i = 0; i < count; ++i) to_send.push_back(i);
  std::size_t done = 0;
  std::uint64_t wire_id = 0;
  // After a queue-full rejection, stop submitting until a completion
  // frees a server slot — otherwise the retry loop just spins against a
  // full queue.  Once backpressure has been seen, pace submissions to one
  // per received result: each completion frees exactly one slot, so a
  // burst would mostly bounce.
  bool backoff = false;
  bool throttled = false;

  const double t0 = now_s();
  while (done < count) {
    std::size_t allowance = throttled ? 1 : window;
    while (!backoff && allowance > 0 && !to_send.empty() &&
           inflight.size() < window) {
      --allowance;
      const std::size_t request_index = to_send.front();
      to_send.pop_front();
      const Request req = make_request(root, request_index);
      Json doc = Json::object();
      doc.set("op", Json::string("submit"));
      doc.set("id", Json::number(static_cast<double>(wire_id)));
      doc.set("type", Json::string(req.type));
      Json params;
      Json::parse(req.params, &params);
      doc.set("params", std::move(params));
      inflight.push_back({wire_id, request_index, now_s()});
      ++wire_id;
      if (!client.send(doc)) {
        std::fprintf(stderr, "load_gen: send failed\n");
        return 1;
      }
    }
    Json reply;
    if (!client.next(&reply)) {
      std::fprintf(stderr, "load_gen: server closed the stream\n");
      return 1;
    }
    if (reply.string_at("event") != "result") continue;  // progress etc.
    const std::uint64_t id =
        static_cast<std::uint64_t>(reply.number_at("id", 0));
    const auto it =
        std::find_if(inflight.begin(), inflight.end(),
                     [id](const InflightWire& w) { return w.wire_id == id; });
    if (it == inflight.end()) continue;
    const InflightWire wire = *it;
    inflight.erase(it);
    const std::string status = reply.string_at("status");
    if (status == "rejected") {
      ++stats.retries;
      to_send.push_front(wire.request_index);  // retry, same request body
      backoff = true;
      throttled = true;
      continue;
    }
    backoff = false;
    stats.latency_s.push_back(now_s() - wire.sent_s);
    ++done;
    if (status == "ok") {
      ++stats.ok;
    } else {
      ++stats.failed;
    }
  }
  const double wall = now_s() - t0;

  Json stats_req = Json::object();
  stats_req.set("op", Json::string("stats"));
  Json server_stats = Json::object();
  if (client.send(stats_req)) {
    Json reply;
    while (client.next(&reply)) {
      if (reply.string_at("event") == "stats") {
        const Json* s = reply.find("stats");
        if (s != nullptr) server_stats = *s;
        break;
      }
    }
  }
  if (!metrics_out.empty()) {
    Json req = Json::object();
    req.set("op", Json::string("metrics"));
    if (client.send(req)) {
      Json reply;
      while (client.next(&reply)) {
        if (reply.string_at("event") != "metrics") continue;
        write_text_file(metrics_out, reply.string_at("prometheus"));
        break;
      }
    }
  }
  if (!flight_out.empty()) {
    Json req = Json::object();
    req.set("op", Json::string("flight"));
    if (client.send(req)) {
      Json reply;
      while (client.next(&reply)) {
        if (reply.string_at("event") != "flight") continue;
        const Json* events = reply.find("events");
        write_text_file(flight_out,
                        events != nullptr ? events->dump() : "[]");
        break;
      }
    }
  }
  print_report(mode, stats, wall, server_stats);
  const bool slo_pass = print_slo_verdict(server_stats);
  if (stats.failed != 0) return 1;
  return slo_strict && !slo_pass ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead server must surface as a send/recv failure, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  std::size_t count = 1000;
  std::size_t threads = 2;
  std::size_t window = 32;
  std::uint64_t seed = 1;
  bool slo_strict = false;
  std::string metrics_out;
  std::string flight_out;
  std::string spawn_binary;
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--count" && i + 1 < argc) {
      count = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--window" && i + 1 < argc) {
      window = std::max<std::size_t>(1, std::atol(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--slo-strict") {
      slo_strict = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--flight-out" && i + 1 < argc) {
      flight_out = argv[++i];
    } else if (arg == "--spawn" && i + 1 < argc) {
      spawn_binary = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--count N] [--threads N] [--window N] "
                   "[--seed S] [--slo-strict] [--metrics-out path] "
                   "[--flight-out path] "
                   "[--spawn lna_service | --socket path]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!socket_path.empty()) {
    const int fd = service::StreamClient::connect_unix(socket_path);
    if (fd < 0) {
      std::fprintf(stderr, "load_gen: cannot connect to %s\n",
                   socket_path.c_str());
      return 1;
    }
    service::StreamClient client(fd, fd);
    const int rc = run_remote(client, count, window, seed, "socket",
                              slo_strict, metrics_out, flight_out);
    ::close(fd);
    return rc;
  }

  if (!spawn_binary.empty()) {
    // fork/exec the server in worker mode, protocol over two pipe pairs.
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      char threads_arg[24];
      std::snprintf(threads_arg, sizeof threads_arg, "%zu", threads);
      ::execl(spawn_binary.c_str(), spawn_binary.c_str(), "--worker",
              "--threads", threads_arg, static_cast<char*>(nullptr));
      std::perror("execl");
      _exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    service::StreamClient client(from_child[0], to_child[1]);
    int rc = run_remote(client, count, window, seed, "spawned worker",
                        slo_strict, metrics_out, flight_out);
    Json shutdown_doc = Json::object();
    shutdown_doc.set("op", Json::string("shutdown"));
    client.send(shutdown_doc);
    ::close(to_child[1]);
    ::close(from_child[0]);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    if (rc == 0 && (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) rc = 1;
    return rc;
  }

  return run_in_process(count, threads, window, seed, slo_strict, metrics_out,
                        flight_out);
}
