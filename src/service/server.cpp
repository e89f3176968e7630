#include "service/server.h"

#include <cmath>
#include <utility>

#include "obs/obs.h"
#include "service/telemetry.h"

namespace gnsslna::service {

namespace {

Json error_object(const std::string& code, const std::string& message) {
  Json e = Json::object();
  e.set("code", Json::string(code));
  e.set("message", Json::string(message));
  return e;
}

/// Client-chosen job id: a non-negative integral number.  Returns false
/// (with *id untouched) for anything else.
bool parse_id(const Json& doc, std::uint64_t* id) {
  const Json* v = doc.find("id");
  if (v == nullptr || !v->is_number()) return false;
  const double x = v->as_number();
  if (!(x >= 0.0) || x != std::floor(x) || x > 9.007199254740992e15) {
    return false;
  }
  *id = static_cast<std::uint64_t>(x);
  return true;
}

}  // namespace

Session::Session(Scheduler& scheduler, std::string client_id, SendFn send)
    : scheduler_(scheduler),
      client_id_(std::move(client_id)),
      send_(std::move(send)) {}

bool Session::on_bytes(std::string_view bytes) {
  reader_.feed(bytes);
  std::string payload;
  while (reader_.next(&payload)) handle_frame(payload);
  if (reader_.broken()) {
    // The length framing is poisoned (oversize header): one final
    // well-formed error frame, then the transport must close.
    send_error("oversize_frame", reader_.error());
    return false;
  }
  return true;
}

bool Session::shutdown_requested() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return shutdown_requested_;
}

void Session::drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  drained_cv_.wait(lock, [this] { return inflight_.empty(); });
}

void Session::send_doc(const Json& doc) {
  std::string frame;
  try {
    frame = encode_frame(doc.dump());
  } catch (const std::length_error&) {
    // A result payload exceeding the frame cap (should be impossible with
    // the jobs.h admission caps) degrades to an error frame.
    Json fallback = Json::object();
    fallback.set("event", Json::string("error"));
    fallback.set("error",
                 error_object("oversize_result", "result exceeded frame cap"));
    frame = encode_frame(fallback.dump());
  }
  const std::lock_guard<std::mutex> lock(send_mutex_);
  send_(frame);
}

void Session::send_error(const std::string& code, const std::string& message) {
  Json doc = Json::object();
  doc.set("event", Json::string("error"));
  doc.set("error", error_object(code, message));
  send_doc(doc);
}

void Session::send_result(std::uint64_t id, const JobOutcome& outcome,
                          bool include_spans) {
  // Runs on the worker thread while the job's trace context is still
  // installed, so serialization cost lands in the owning job's span tree
  // (global capture only — the reply's own tree is already built).
  GNSSLNA_OBS_SPAN("service.session.serialize");
  Json doc = Json::object();
  doc.set("event", Json::string("result"));
  doc.set("id", Json::number(static_cast<double>(id)));
  doc.set("status", Json::string(outcome.status));
  if (outcome.status == "ok") {
    doc.set("result", outcome.result);
  } else if (!outcome.error_code.empty()) {
    // "error" and "rejected" both carry a machine-readable error object.
    doc.set("error", error_object(outcome.error_code, outcome.error_message));
  }
  if (include_spans && !outcome.spans.is_null()) {
    doc.set("spans", outcome.spans);
  }
  if (!outcome.flight.is_null()) {
    doc.set("flight", outcome.flight);
  }
  send_doc(doc);
}

void Session::handle_frame(const std::string& payload) {
  Json doc;
  std::string parse_error;
  if (!Json::parse(payload, &doc, &parse_error)) {
    send_error("bad_json", parse_error);
    return;
  }
  if (!doc.is_object()) {
    send_error("bad_request", "request must be a JSON object");
    return;
  }
  const std::string op = doc.string_at("op");
  if (op == "submit") {
    handle_submit(doc);
  } else if (op == "cancel") {
    handle_cancel(doc);
  } else if (op == "stats") {
    Json reply = Json::object();
    reply.set("event", Json::string("stats"));
    reply.set("stats", service_stats_json());
    send_doc(reply);
  } else if (op == "ping") {
    Json reply = Json::object();
    reply.set("event", Json::string("pong"));
    send_doc(reply);
  } else if (op == "metrics") {
    const bool det = doc.bool_at("deterministic", obs::deterministic());
    Json reply = Json::object();
    reply.set("event", Json::string("metrics"));
    reply.set("enabled", Json::boolean(telemetry_live()));
    reply.set("prometheus", Json::string(metrics_prometheus(det)));
    reply.set("metrics", metrics_json(det));
    send_doc(reply);
  } else if (op == "flight") {
    const bool det = doc.bool_at("deterministic", obs::deterministic());
    Json reply = Json::object();
    reply.set("event", Json::string("flight"));
    reply.set("enabled", Json::boolean(telemetry_live()));
    reply.set("events", flight_json(det));
    send_doc(reply);
  } else if (op == "list_scenarios") {
    // Pure catalog data; computed once for the process (analyze_scenario
    // is deterministic, so every session sees identical bytes).
    static const Json kScenarios = list_scenarios_json();
    Json reply = Json::object();
    reply.set("event", Json::string("scenarios"));
    reply.set("scenarios", kScenarios);
    send_doc(reply);
  } else if (op == "shutdown") {
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      shutdown_requested_ = true;
    }
    Json reply = Json::object();
    reply.set("event", Json::string("shutdown_ack"));
    send_doc(reply);
  } else {
    send_error("bad_request", "unknown op '" + op + "'");
  }
}

void Session::handle_submit(const Json& doc) {
  std::uint64_t id = 0;
  if (!parse_id(doc, &id)) {
    send_error("bad_request", "submit requires a non-negative integer id");
    return;
  }
  const std::string type = doc.string_at("type");
  if (!is_job_type(type)) {
    JobOutcome outcome;
    outcome.status = "error";
    outcome.error_code = "unknown_type";
    outcome.error_message = "unknown job type '" + type + "'";
    send_result(id, outcome);
    return;
  }
  const Json* params_member = doc.find("params");
  Json params = params_member != nullptr ? *params_member : Json();
  const double timeout_s = [&] {
    const Json* v = doc.find("timeout_s");
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  }();
  const bool want_progress = doc.bool_at("progress", false);
  const bool want_spans = doc.bool_at("spans", false);

  bool duplicate = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (inflight_.count(id) != 0) {
      duplicate = true;
    } else {
      inflight_.emplace(id, nullptr);
    }
  }
  if (duplicate) {
    // No result frame here — the in-flight job's frame still has to
    // arrive unambiguously under this id.
    send_error("duplicate_id", "job id already in flight; pick a fresh id");
    return;
  }

  obs::TraceSink progress;
  if (want_progress) {
    progress = [this, id](const obs::TraceRecord& r) {
      Json doc2 = Json::object();
      doc2.set("event", Json::string("progress"));
      doc2.set("id", Json::number(static_cast<double>(id)));
      doc2.set("phase", Json::string(r.phase));
      doc2.set("iteration", Json::number(static_cast<double>(r.iteration)));
      doc2.set("evaluations",
               Json::number(static_cast<double>(r.evaluations)));
      doc2.set("best_value", Json::number(r.best_value));
      send_doc(doc2);
    };
  }

  auto on_complete = [this, id, want_spans](Scheduler::Ticket& t) {
    send_result(id, t.wait(), want_spans);
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      auto it = inflight_.find(id);
      if (it != inflight_.end() && it->second != nullptr) {
        inflight_.erase(it);
      } else {
        // Completion outran Scheduler::submit's return; let the submit
        // path clear the entry so it never re-registers a finished job.
        finished_early_.insert(id);
      }
      // Notify while still holding the lock: once it is released, drain()
      // may return and the session (with this condition variable) be
      // destroyed, so a broadcast after the unlock could touch freed
      // memory.
      drained_cv_.notify_all();
    }
  };

  const Scheduler::TicketPtr ticket =
      scheduler_.submit(client_id_, type, std::move(params), timeout_s,
                        std::move(progress), std::move(on_complete),
                        want_spans);
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (ticket == nullptr || finished_early_.erase(id) != 0) {
      inflight_.erase(id);
    } else {
      inflight_[id] = ticket;
    }
  }
  if (ticket == nullptr) {
    drained_cv_.notify_all();
    JobOutcome outcome;
    outcome.status = "rejected";
    outcome.error_code = "queue_full";
    outcome.error_message =
        "scheduler queue is full (global or per-client bound); retry";
    send_result(id, outcome);
  } else {
    drained_cv_.notify_all();
  }
}

void Session::handle_cancel(const Json& doc) {
  std::uint64_t id = 0;
  if (!parse_id(doc, &id)) {
    send_error("bad_request", "cancel requires a non-negative integer id");
    return;
  }
  bool known = false;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = inflight_.find(id);
    if (it != inflight_.end() && it->second != nullptr) {
      it->second->cancel();
      known = true;
    }
  }
  Json reply = Json::object();
  reply.set("event", Json::string("cancel_ack"));
  reply.set("id", Json::number(static_cast<double>(id)));
  reply.set("known", Json::boolean(known));
  send_doc(reply);
}

}  // namespace gnsslna::service
