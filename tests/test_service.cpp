// The service layer's contracts:
//   * json.h — hostile-input-safe parsing, deterministic serialization;
//   * protocol.h — frame round-trip and the oversize / malformed /
//     truncated failure taxonomy, plus a counter-seeded fuzz sweep of the
//     frame parser and the full session (no crash, no hang, well-formed
//     error replies — run under ASan/UBSan and TSan in CI);
//   * plan_cache.h — concurrent leases, hit/miss accounting, idle caps;
//   * the borrowed-evaluator hook — design flow results bit-identical
//     with and without a shared BandEvaluator lease;
//   * scheduler.h — queue-full backpressure with bit-identical retry,
//     per-client fair sharing, cancellation mid-generation, timeouts;
//   * THE determinism pin — for one extraction, one design, one yield
//     job (plus evaluate and sweep), the result payload and embedded
//     convergence CSV are byte-identical run alone vs under ≥64 mixed
//     background jobs at 1, 2, and 4 workers;
//   * server.h / server_io.h — the worker-mode protocol over real pipes.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "amplifier/design_flow.h"
#include "extract/three_step.h"
#include "numeric/rng.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/jobs.h"
#include "service/json.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/server_io.h"
#include "service/telemetry.h"

namespace gnsslna {
namespace {

using service::Json;

// --- json.h ----------------------------------------------------------------

TEST(ServiceJson, ParsesAndDumpsRoundTrip) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{"k":1e-3}})";
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(text, &doc, &error)) << error;
  EXPECT_EQ(doc.number_at("a", 0), 1.0);
  EXPECT_EQ(doc.number_at("b", 0), -2.5);
  EXPECT_EQ(doc.string_at("c"), "x\n\"y\"");
  ASSERT_NE(doc.find("d"), nullptr);
  EXPECT_EQ(doc.find("d")->size(), 3u);
  EXPECT_TRUE(doc.find("d")->at(2).is_null());

  // dump() -> parse() -> dump() is a fixed point (deterministic bytes).
  const std::string once = doc.dump();
  Json again;
  ASSERT_TRUE(Json::parse(once, &again, &error)) << error;
  EXPECT_EQ(again.dump(), once);
}

TEST(ServiceJson, NumberFormattingIsDeterministic) {
  Json o = Json::object();
  o.set("int", Json::number(42.0));
  o.set("neg", Json::number(-7.0));
  o.set("frac", Json::number(0.1));
  o.set("inf", Json::number(std::numeric_limits<double>::infinity()));
  o.set("nan", Json::number(std::numeric_limits<double>::quiet_NaN()));
  const std::string s = o.dump();
  EXPECT_NE(s.find("\"int\":42"), std::string::npos) << s;
  EXPECT_NE(s.find("\"neg\":-7"), std::string::npos) << s;
  // Non-finite values have no JSON spelling; they serialize as null.
  EXPECT_NE(s.find("\"inf\":null"), std::string::npos) << s;
  EXPECT_NE(s.find("\"nan\":null"), std::string::npos) << s;
  // 0.1 round-trips bit-exactly through %.17g.
  Json back;
  ASSERT_TRUE(Json::parse(s, &back));
  EXPECT_EQ(back.number_at("frac", 0), 0.1);
}

TEST(ServiceJson, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",          "{",           "[1,",       "{\"a\":}",  "tru",
      "01",        "1.",          "+1",        "\"\\q\"",   "\"\\u12\"",
      "{\"a\":1}x", "[1] []",     "\x01",      "nulll",     "--1",
  };
  for (const char* text : cases) {
    Json doc;
    std::string error;
    EXPECT_FALSE(Json::parse(text, &doc, &error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServiceJson, DepthCapStopsRecursion) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += '[';
  Json doc;
  EXPECT_FALSE(Json::parse(deep, &doc));  // no stack overflow, no hang

  std::string ok = "1";
  for (std::size_t i = 0; i < Json::kMaxDepth - 1; ++i) {
    ok = "[" + ok + "]";
  }
  EXPECT_TRUE(Json::parse(ok, &doc));
}

TEST(ServiceJson, ObjectKeysKeepInsertionOrderAndLastDuplicateWins) {
  Json doc;
  ASSERT_TRUE(Json::parse(R"({"z":1,"a":2,"z":3})", &doc));
  EXPECT_EQ(doc.number_at("z", 0), 3.0);
  EXPECT_EQ(doc.key(0), "z");
  EXPECT_EQ(doc.key(1), "a");
}

// --- protocol.h ------------------------------------------------------------

TEST(ServiceProtocol, FrameRoundTripAcrossArbitraryChunking) {
  const std::string payloads[] = {"{}", R"({"op":"ping"})",
                                  std::string(1000, 'x')};
  std::string stream;
  for (const std::string& p : payloads) stream += service::encode_frame(p);

  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    service::FrameReader reader;
    std::vector<std::string> got;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      reader.feed(std::string_view(stream).substr(i, chunk));
      std::string payload;
      while (reader.next(&payload)) got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 3u) << "chunk=" << chunk;
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(got[i], payloads[i]);
    EXPECT_EQ(reader.pending(), 0u);
    EXPECT_FALSE(reader.broken());
  }
}

TEST(ServiceProtocol, OversizeHeaderLatchesBroken) {
  service::FrameReader reader(1024);
  const char header[4] = {0x7F, 0, 0, 0};  // announces 0x7F000000 ≫ max
  reader.feed(std::string_view(header, 4));
  std::string payload;
  EXPECT_FALSE(reader.next(&payload));
  EXPECT_TRUE(reader.broken());
  EXPECT_FALSE(reader.error().empty());
  // Everything after the poisoned header is discarded.
  reader.feed(service::encode_frame("{}"));
  EXPECT_FALSE(reader.next(&payload));
  EXPECT_TRUE(reader.broken());
}

TEST(ServiceProtocol, TruncatedStreamLeavesPendingBytes) {
  const std::string frame = service::encode_frame(R"({"op":"ping"})");
  service::FrameReader reader;
  reader.feed(std::string_view(frame).substr(0, frame.size() - 3));
  std::string payload;
  EXPECT_FALSE(reader.next(&payload));
  EXPECT_FALSE(reader.broken());
  EXPECT_GT(reader.pending(), 0u);  // EOF now would mean a torn frame
}

TEST(ServiceProtocol, EncodeRejectsOversizePayload) {
  EXPECT_THROW(service::encode_frame(std::string(100, 'x'), 10),
               std::length_error);
}

// --- plan_cache.h ----------------------------------------------------------

TEST(ServicePlanCache, LeasesAreReusedPerRevision) {
  service::PlanCache cache;
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const std::uint64_t rev = service::topology_revision(config, band);

  amplifier::BandEvaluator* first = nullptr;
  {
    const service::PlanCache::Lease a = cache.acquire(rev, device, config, band);
    first = a.get();
    EXPECT_EQ(cache.idle_count(), 0u);
  }
  EXPECT_EQ(cache.idle_count(), 1u);
  const service::PlanCache::Lease b = cache.acquire(rev, device, config, band);
  EXPECT_EQ(b.get(), first);  // same evaluator, new lease
  EXPECT_EQ(cache.idle_count(), 0u);
}

TEST(ServicePlanCache, RevisionSeparatesTopologies) {
  const amplifier::AmplifierConfig base;
  amplifier::AmplifierConfig warm = base;
  warm.t_ambient_k = 320.0;
  amplifier::AmplifierConfig no_tee = base;
  no_tee.model_tee = false;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  std::vector<double> other_band = band;
  other_band.back() += 1.0;

  const std::uint64_t r0 = service::topology_revision(base, band);
  EXPECT_EQ(r0, service::topology_revision(base, band));
  EXPECT_NE(r0, service::topology_revision(warm, band));
  EXPECT_NE(r0, service::topology_revision(no_tee, band));
  EXPECT_NE(r0, service::topology_revision(base, other_band));
}

TEST(ServicePlanCache, ConcurrentLeasesAreExclusiveAndCounted) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();

  service::PlanCache cache;
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  amplifier::AmplifierConfig other = config;
  other.t_ambient_k = 310.0;
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  const std::uint64_t rev_a = service::topology_revision(config, band);
  const std::uint64_t rev_b = service::topology_revision(other, band);

  // N clients hammer two revisions concurrently; every lease evaluates,
  // which would corrupt state (and trip TSan) if exclusivity ever broke.
  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  const amplifier::DesignVector nominal;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const bool use_a = ((t + round) % 2) == 0;
        try {
          const service::PlanCache::Lease lease =
              use_a ? cache.acquire(rev_a, device, config, band)
                    : cache.acquire(rev_b, device, other, band);
          const amplifier::BandReport r = lease->evaluate(nominal);
          if (!(r.nf_avg_db > 0.0)) failures.fetch_add(1);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  if (obs::compiled_in()) {
    const auto snapshot = obs::counter_snapshot();
    std::uint64_t hits = 0, misses = 0;
    for (const auto& c : snapshot) {
      if (c.name == "service.plan_cache.hits") hits = c.value;
      if (c.name == "service.plan_cache.misses") misses = c.value;
    }
    EXPECT_EQ(hits + misses,
              static_cast<std::uint64_t>(kThreads * kRounds));
    EXPECT_GE(misses, 2u);        // at least one build per revision
    EXPECT_GE(hits, misses);      // reuse dominates two hot revisions
  }
  // A revision never holds more idle evaluators than it had leases out at
  // once: at most kThreads per revision.
  EXPECT_LE(cache.idle_count(), 16u);

  obs::reset();
  obs::set_enabled(was_enabled);
}

TEST(ServicePlanCache, IdleEvaluatorsAreBoundedAcrossRevisions) {
  // Clients choose the revision through continuous config fields: returning
  // leases for many more distinct revisions than the global cap keeps the
  // cap's worth of the most recently returned evaluators, evicting the
  // oldest, and the gauge follows.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();

  service::PlanCache cache;
  const device::Phemt device = device::Phemt::reference_device();
  const std::vector<double> band = amplifier::LnaDesign::default_band();
  constexpr std::size_t kCap = service::PlanCache::kMaxIdle;
  std::vector<amplifier::AmplifierConfig> configs(3 * kCap);
  std::vector<std::uint64_t> revs;
  amplifier::BandEvaluator* last = nullptr;
  for (std::size_t k = 0; k < configs.size(); ++k) {
    configs[k].t_ambient_k = 280.0 + 0.5 * static_cast<double>(k);
    revs.push_back(service::topology_revision(configs[k], band));
    const service::PlanCache::Lease lease =
        cache.acquire(revs.back(), device, configs[k], band);
    last = lease.get();
  }
  EXPECT_EQ(cache.idle_count(), kCap);

  {
    // The most recent revision still hits: its evaluator comes back.
    const service::PlanCache::Lease hit =
        cache.acquire(revs.back(), device, configs.back(), band);
    EXPECT_EQ(hit.get(), last);
    EXPECT_EQ(cache.idle_count(), kCap - 1);
    // The first revision was evicted: a miss builds a new evaluator.
    const service::PlanCache::Lease miss =
        cache.acquire(revs.front(), device, configs.front(), band);
    EXPECT_EQ(cache.idle_count(), kCap - 1);
  }
  EXPECT_EQ(cache.idle_count(), kCap);

  if (obs::compiled_in()) {
    const obs::MetricsSnapshot m = obs::metrics_snapshot();
    std::uint64_t evictions = 0;
    std::int64_t idle = -1;
    for (const auto& c : m.counters) {
      if (c.name == "service.plan_cache.evictions") evictions = c.value;
    }
    for (const auto& g : m.gauges) {
      if (g.name == "service.plan_cache.idle") idle = g.value;
    }
    EXPECT_EQ(evictions, 2 * kCap + 1);  // + the returned miss's eviction
    EXPECT_EQ(idle, static_cast<std::int64_t>(kCap));
  }
  obs::reset();
  obs::set_enabled(was_enabled);
}

// --- borrowed evaluator ----------------------------------------------------

amplifier::DesignFlowOptions tiny_flow_options() {
  amplifier::DesignFlowOptions options;
  options.optimizer.threads = 1;
  options.optimizer.de_generations = 2;
  options.optimizer.de_population = 8;
  options.optimizer.polish_evaluations = 40;
  return options;
}

TEST(ServiceBorrowedEvaluator, DesignFlowBitIdenticalWithSharedLease) {
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;

  numeric::Rng rng_a(7);
  const amplifier::DesignOutcome solo =
      amplifier::run_design_flow(device, config, rng_a, tiny_flow_options());

  amplifier::DesignFlowOptions shared = tiny_flow_options();
  shared.evaluator = std::make_shared<amplifier::BandEvaluator>(
      device, config, amplifier::LnaDesign::default_band());
  // Pre-use the lease on an unrelated design: a warm evaluator's rebind
  // state must never leak into results.
  amplifier::DesignVector elsewhere;
  elsewhere.vgs = -0.5;
  (void)shared.evaluator->evaluate(elsewhere);

  numeric::Rng rng_b(7);
  const amplifier::DesignOutcome leased =
      amplifier::run_design_flow(device, config, rng_b, shared);

  EXPECT_EQ(solo.optimization.x, leased.optimization.x);
  EXPECT_EQ(solo.optimization.attainment, leased.optimization.attainment);
  EXPECT_EQ(solo.continuous_report.nf_avg_db, leased.continuous_report.nf_avg_db);
  EXPECT_EQ(solo.continuous_report.mu_min, leased.continuous_report.mu_min);
  EXPECT_EQ(solo.snapped_report.gt_min_db, leased.snapped_report.gt_min_db);
  EXPECT_EQ(solo.snapped_report.id_a, leased.snapped_report.id_a);
  EXPECT_EQ(solo.bias.r_drain, leased.bias.r_drain);
}

TEST(ServiceBorrowedEvaluator, SharedLeaseRequiresSerialOptimizer) {
  const device::Phemt device = device::Phemt::reference_device();
  const amplifier::AmplifierConfig config;
  amplifier::DesignFlowOptions options = tiny_flow_options();
  options.evaluator = std::make_shared<amplifier::BandEvaluator>(
      device, config, amplifier::LnaDesign::default_band());
  options.optimizer.threads = 2;
  numeric::Rng rng(1);
  EXPECT_THROW(amplifier::run_design_flow(device, config, rng, options),
               std::invalid_argument);
}

// --- extraction trace ------------------------------------------------------

TEST(ServiceExtractTrace, StagesEmitAndSinkNeverChangesResult) {
  const device::Phemt truth = device::Phemt::reference_device();
  const extract::MeasurementPlan plan =
      extract::MeasurementPlan::standard_plan(4);
  numeric::Rng mrng(3);
  const extract::MeasurementSet data =
      extract::synthesize_measurements(truth, plan, {}, mrng);
  const auto prototype = device::make_model("angelov");

  extract::ThreeStepOptions options;
  options.de_generations = 2;
  options.de_population = 8;

  numeric::Rng rng_a(5);
  const extract::ExtractionResult bare = extract::three_step_extract(
      *prototype, data, truth.extrinsics(), rng_a, options);

  obs::ConvergenceTrace trace;
  options.trace = trace.sink();
  numeric::Rng rng_b(5);
  const extract::ExtractionResult traced = extract::three_step_extract(
      *prototype, data, truth.extrinsics(), rng_b, options);

  EXPECT_EQ(bare.params, traced.params);
  EXPECT_EQ(bare.evaluations, traced.evaluations);

  bool saw_de = false, saw_lm = false, saw_final = false;
  for (const obs::TraceRecord& r : trace.records()) {
    if (r.phase == "de") saw_de = true;
    if (r.phase == "lm") saw_lm = true;
    if (r.phase == "final") saw_final = true;
  }
  EXPECT_TRUE(saw_de);
  EXPECT_TRUE(saw_lm);
  EXPECT_TRUE(saw_final);
}

// --- jobs + determinism pin ------------------------------------------------

Json parse_or_die(const std::string& text) {
  Json doc;
  std::string error;
  if (!Json::parse(text, &doc, &error)) {
    ADD_FAILURE() << "bad JSON: " << error << " in " << text;
  }
  return doc;
}

/// Canonical target jobs for the determinism pin (small budgets; the
/// guarantee is about identity, not quality).
struct TargetJob {
  const char* label;
  std::string type;
  std::string params_text;
};

std::vector<TargetJob> target_jobs() {
  return {
      {"extract", "extract",
       R"({"seed":11,"model":"curtice2","n_freq":4,"de_generations":2,)"
       R"("de_population":8})"},
      {"design", "design",
       R"({"seed":12,"de_generations":2,"de_population":8,)"
       R"("polish_evaluations":40})"},
      {"yield", "yield",
       R"({"seed":13,"samples":48,"sampler":"sobol",)"
       R"("design":{"vgs":-0.3,"l_shunt_h":8.2e-9}})"},
      {"evaluate", "evaluate", R"({"design":{"vds":2.2,"c_mid_f":0.6e-12}})"},
      {"sweep", "sweep",
       R"({"f_lo_hz":1.1e9,"f_hi_hz":1.7e9,"n_points":7})"},
  };
}

/// Mixed cheap background traffic: evaluate jobs over a spread of designs
/// and configs (several plan-cache revisions), plus small sweeps.
std::vector<TargetJob> background_jobs(std::size_t n) {
  std::vector<TargetJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 7) {
      jobs.push_back({"bg-sweep", "sweep",
                      R"({"f_lo_hz":1.2e9,"f_hi_hz":1.6e9,"n_points":5,)"
                      R"("with_noise":false})"});
      continue;
    }
    const double vgs = -0.25 - 0.01 * static_cast<double>(i % 6);
    char params[192];
    std::snprintf(params, sizeof params,
                  R"({"design":{"vgs":%.3f},"config":{"t_ambient_k":%g}})",
                  vgs, i % 3 == 0 ? 300.0 : 290.0);
    jobs.push_back({"bg-evaluate", "evaluate", params});
  }
  return jobs;
}

TEST(ServiceJobs, RejectsHostileParameters) {
  const service::JobContext ctx;
  const auto expect_bad = [&](const std::string& type,
                              const std::string& params_text) {
    try {
      service::run_job(type, parse_or_die(params_text), ctx);
      ADD_FAILURE() << type << " accepted " << params_text;
    } catch (const service::JobError& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  };
  expect_bad("evaluate", R"({"design":{"vgs":99}})");       // out of box
  expect_bad("evaluate", R"({"design":{"bogus":1}})");      // unknown field
  expect_bad("evaluate", R"({"band_hz":[2e9,1e9]})");       // not ascending
  expect_bad("evaluate", R"({"config":{"substrate":"teflon"}})");
  expect_bad("sweep", R"({"n_points":100000})");            // over cap
  expect_bad("design", R"({"de_generations":100000})");     // over cap
  expect_bad("yield", R"({"samples":1e12})");               // over cap
  expect_bad("yield", R"({"sampler":"quantum"})");
  expect_bad("extract", R"({"model":"not_a_model"})");
  expect_bad("extract", R"({"seed":-1})");
  expect_bad("design", R"({"scenario":"low_earth_orbit"})");  // not in catalog
  expect_bad("design", R"({"scenario":42})");
  // A scenario fixes the evaluation grids / NF goal; conflicting explicit
  // parameters are rejected rather than silently overridden.
  expect_bad("design", R"({"scenario":"open_sky","band_hz":[1.2e9,1.6e9]})");
  expect_bad("yield", R"({"scenario":"open_sky","goals":{"nf_db":0.8}})");
  expect_bad("nonsense", "{}");                             // unknown type
}

TEST(ServiceJobs, ScenarioDesignJobIsDeterministicAndReportsTheScenario) {
  const std::string params = R"({"scenario":"open_sky","seed":5,)"
                             R"("de_generations":2,"de_population":8,)"
                             R"("polish_evaluations":40})";
  const Json first = service::run_job("design", parse_or_die(params), {});
  const Json second = service::run_job("design", parse_or_die(params), {});
  EXPECT_EQ(first.dump(), second.dump());

  const Json* scenario = first.find("scenario");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->string_at("name"), "open_sky");
  EXPECT_NEAR(scenario->number_at("nf_goal_db", 0.0), 0.874868606923, 1e-9);
  ASSERT_NE(scenario->find("sub_bands"), nullptr);
  EXPECT_EQ(scenario->find("sub_bands")->size(), 4u);
  ASSERT_NE(first.find("snapped_weighted"), nullptr);
  ASSERT_NE(first.find("snapped_report"), nullptr);
  ASSERT_NE(first.find("continuous_weighted"), nullptr);
}

TEST(ServiceJobs, ScenarioYieldJobReanchorsTheNfGoal) {
  const std::string params =
      R"({"scenario":"urban_canyon","seed":9,"samples":16})";
  const Json result = service::run_job("yield", parse_or_die(params), {});
  const Json* scenario = result.find("scenario");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->string_at("name"), "urban_canyon");
  EXPECT_NEAR(scenario->number_at("t_ant_k", 0.0), 137.578139977617, 1e-8);
  const double rate = result.number_at("pass_rate", -1.0);
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  // Same params, same payload.
  const Json again = service::run_job("yield", parse_or_die(params), {});
  EXPECT_EQ(result.dump(), again.dump());
}

/// The tentpole guarantee.  Baseline: each target job run alone, straight
/// through run_job with no plan cache.  Then, for 1, 2, and 4 workers:
/// the same jobs submitted through a saturated scheduler (shared plan
/// cache, ≥64 mixed background jobs from competing clients) must produce
/// byte-identical result payloads — including each embedded convergence
/// CSV.
TEST(ServiceDeterminism, ResultsBitIdenticalAloneAndUnderLoad) {
  const std::vector<TargetJob> targets = target_jobs();
  std::vector<std::string> baseline;
  for (const TargetJob& t : targets) {
    const Json result =
        service::run_job(t.type, parse_or_die(t.params_text), {});
    baseline.push_back(result.dump());
    // The optimizer-backed jobs must carry a non-empty convergence trace.
    if (t.type == "design" || t.type == "yield" || t.type == "extract") {
      EXPECT_GT(result.string_at("trace_csv").size(), 40u) << t.label;
    }
  }

  for (const std::size_t workers : {1u, 2u, 4u}) {
    service::PlanCache cache;
    service::SchedulerOptions options;
    options.workers = workers;
    options.queue_capacity = 256;
    options.max_queued_per_client = 256;
    service::Scheduler scheduler(options, &cache);

    std::vector<service::Scheduler::TicketPtr> background;
    const std::vector<TargetJob> noise = background_jobs(64);
    for (std::size_t i = 0; i < noise.size(); ++i) {
      const std::string client = "noisy-" + std::to_string(i % 5);
      auto ticket = scheduler.submit(client, noise[i].type,
                                     parse_or_die(noise[i].params_text));
      ASSERT_NE(ticket, nullptr);
      background.push_back(std::move(ticket));
    }

    std::vector<service::Scheduler::TicketPtr> tickets;
    for (const TargetJob& t : targets) {
      auto ticket = scheduler.submit("pinned", t.type,
                                     parse_or_die(t.params_text));
      ASSERT_NE(ticket, nullptr);
      tickets.push_back(std::move(ticket));
    }

    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const service::JobOutcome& outcome = tickets[i]->wait();
      ASSERT_EQ(outcome.status, "ok")
          << targets[i].label << " @" << workers << " workers: "
          << outcome.error_message;
      EXPECT_EQ(outcome.result.dump(), baseline[i])
          << targets[i].label << " diverged at " << workers << " workers";
    }
    for (const auto& t : background) {
      EXPECT_EQ(t->wait().status, "ok");
    }
    scheduler.shutdown();
  }
}

// --- scheduler behaviors ---------------------------------------------------

/// A design job big enough to still be running when we poke at it.
std::string slow_design_params() {
  return R"({"seed":99,"de_generations":300,"de_population":64,)"
         R"("polish_evaluations":20000})";
}

TEST(ServiceScheduler, QueueFullRejectsAndRetryIsBitIdentical) {
  const std::string eval_params = R"({"design":{"vgs":-0.31}})";
  const std::string baseline =
      service::run_job("evaluate", parse_or_die(eval_params), {}).dump();

  service::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  service::Scheduler scheduler(options);

  // Occupy the only worker; wait until it is actually running.
  std::mutex m;
  std::condition_variable cv;
  bool running = false;
  auto blocker = scheduler.submit(
      "hog", "design", parse_or_die(slow_design_params()), 0.0,
      [&](const obs::TraceRecord&) {
        const std::lock_guard<std::mutex> lock(m);
        if (!running) {
          running = true;
          cv.notify_all();
        }
      });
  ASSERT_NE(blocker, nullptr);
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return running; });
  }

  // Fill the bounded queue, then overflow it.
  auto q1 = scheduler.submit("c1", "evaluate", parse_or_die(eval_params));
  auto q2 = scheduler.submit("c2", "evaluate", parse_or_die(eval_params));
  ASSERT_NE(q1, nullptr);
  ASSERT_NE(q2, nullptr);
  auto rejected = scheduler.submit("c3", "evaluate", parse_or_die(eval_params));
  EXPECT_EQ(rejected, nullptr);  // queue-full backpressure

  // Unblock, drain, retry the rejected job: same bytes as the baseline.
  blocker->cancel();
  EXPECT_EQ(blocker->wait().status, "cancelled");
  EXPECT_EQ(q1->wait().status, "ok");
  EXPECT_EQ(q2->wait().status, "ok");
  auto retried = scheduler.submit("c3", "evaluate", parse_or_die(eval_params));
  ASSERT_NE(retried, nullptr);
  const service::JobOutcome& outcome = retried->wait();
  ASSERT_EQ(outcome.status, "ok");
  EXPECT_EQ(outcome.result.dump(), baseline);
  EXPECT_EQ(q1->wait().result.dump(), baseline);
  scheduler.shutdown();
}

TEST(ServiceScheduler, PerClientShareLeavesRoomForOthers) {
  service::SchedulerOptions options;
  options.workers = 1;
  options.queue_capacity = 16;
  options.max_queued_per_client = 2;
  service::Scheduler scheduler(options);

  std::mutex m;
  std::condition_variable cv;
  bool running = false;
  auto blocker = scheduler.submit(
      "hog", "design", parse_or_die(slow_design_params()), 0.0,
      [&](const obs::TraceRecord&) {
        const std::lock_guard<std::mutex> lock(m);
        if (!running) {
          running = true;
          cv.notify_all();
        }
      });
  ASSERT_NE(blocker, nullptr);
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return running; });
  }

  const std::string params = R"({"design":{"vgs":-0.32}})";
  auto a1 = scheduler.submit("greedy", "evaluate", parse_or_die(params));
  auto a2 = scheduler.submit("greedy", "evaluate", parse_or_die(params));
  auto a3 = scheduler.submit("greedy", "evaluate", parse_or_die(params));
  EXPECT_NE(a1, nullptr);
  EXPECT_NE(a2, nullptr);
  EXPECT_EQ(a3, nullptr);  // over the per-client share...
  auto b1 = scheduler.submit("modest", "evaluate", parse_or_die(params));
  EXPECT_NE(b1, nullptr);  // ...while another client still gets in

  blocker->cancel();
  blocker->wait();
  EXPECT_EQ(a1->wait().status, "ok");
  EXPECT_EQ(a2->wait().status, "ok");
  EXPECT_EQ(b1->wait().status, "ok");
  scheduler.shutdown();
}

TEST(ServiceScheduler, CancelMidGenerationAndTimeout) {
  service::SchedulerOptions options;
  options.workers = 2;
  service::Scheduler scheduler(options);

  // Cancel: wait for generation barriers to prove it is mid-run.
  std::mutex m;
  std::condition_variable cv;
  std::size_t generations = 0;
  auto victim = scheduler.submit(
      "client", "design", parse_or_die(slow_design_params()), 0.0,
      [&](const obs::TraceRecord&) {
        const std::lock_guard<std::mutex> lock(m);
        ++generations;
        cv.notify_all();
      });
  ASSERT_NE(victim, nullptr);
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return generations >= 2; });
  }
  victim->cancel();
  EXPECT_EQ(victim->wait().status, "cancelled");

  // Timeout: a deadline that has long passed by the first barrier.
  auto late = scheduler.submit("client", "design",
                               parse_or_die(slow_design_params()), 1e-6);
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->wait().status, "timeout");

  // Cancelling a queued job never starts it.
  auto queued = scheduler.submit("client", "evaluate", parse_or_die("{}"));
  ASSERT_NE(queued, nullptr);
  queued->cancel();
  const std::string status = queued->wait().status;
  EXPECT_TRUE(status == "cancelled" || status == "ok");  // raced the worker
  scheduler.shutdown();
}

// --- session over real pipes (worker mode) ---------------------------------

struct PipePair {
  int read_fd = -1;
  int write_fd = -1;
  PipePair() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      read_fd = fds[0];
      write_fd = fds[1];
    }
  }
  ~PipePair() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
};

class ServicePipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_GE(c2s_.read_fd, 0);
    ASSERT_GE(s2c_.read_fd, 0);
    scheduler_ = std::make_unique<service::Scheduler>(
        service::SchedulerOptions{2, 64, 16});
    server_ = std::thread([this] {
      exit_code_ = service::serve_stream(*scheduler_, c2s_.read_fd,
                                         s2c_.write_fd, "pipe-client");
    });
    client_ = std::make_unique<service::StreamClient>(s2c_.read_fd,
                                                      c2s_.write_fd);
  }
  void TearDown() override {
    ::close(c2s_.write_fd);  // EOF to the server if still running
    c2s_.write_fd = -1;
    if (server_.joinable()) server_.join();
    scheduler_->shutdown();
  }

  PipePair c2s_;  // client -> server
  PipePair s2c_;  // server -> client
  std::unique_ptr<service::Scheduler> scheduler_;
  std::unique_ptr<service::StreamClient> client_;
  std::thread server_;
  int exit_code_ = -1;
};

TEST_F(ServicePipeTest, SubmitOverPipesMatchesDirectRun) {
  const std::string params_text = R"({"design":{"vgs":-0.33}})";
  const std::string direct =
      service::run_job("evaluate", parse_or_die(params_text), {}).dump();

  ASSERT_TRUE(client_->send(parse_or_die(
      R"({"op":"submit","id":1,"type":"evaluate","params":)" + params_text +
      "}")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "result");
  EXPECT_EQ(reply.number_at("id", -1), 1.0);
  ASSERT_EQ(reply.string_at("status"), "ok") << reply.dump();
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_EQ(reply.find("result")->dump(), direct);

  // ping / stats / shutdown round-trip.
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"ping"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "pong");
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"stats"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "stats");
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"shutdown"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "shutdown_ack");
  if (server_.joinable()) server_.join();
  EXPECT_EQ(exit_code_, 1);
}

TEST_F(ServicePipeTest, ListScenariosOpReturnsTheCatalog) {
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"list_scenarios"})")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "scenarios");
  const Json* scenarios = reply.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->size(), 4u);
  EXPECT_EQ(scenarios->at(0).string_at("name"), "open_sky");
  EXPECT_EQ(scenarios->at(3).string_at("name"), "jammed");
  EXPECT_TRUE(scenarios->at(3).bool_at("has_blocker", false));
  EXPECT_FALSE(scenarios->at(0).bool_at("has_blocker", true));
  EXPECT_GT(scenarios->at(1).number_at("t_ant_k", 0.0),
            scenarios->at(0).number_at("t_ant_k", 0.0));
  ASSERT_NE(scenarios->at(0).find("sub_bands"), nullptr);
  EXPECT_EQ(scenarios->at(0).find("sub_bands")->size(), 4u);

  // The answer is identical on a second ask (cached catalog).
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"list_scenarios"})")));
  Json reply2;
  ASSERT_TRUE(client_->next(&reply2));
  EXPECT_EQ(reply.dump(), reply2.dump());
}

TEST_F(ServicePipeTest, MalformedFramesGetErrorRepliesAndStreamSurvives) {
  // Valid frame, invalid JSON payload: recoverable.
  ASSERT_TRUE(client_->send_payload("this is not json"));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "error");
  ASSERT_NE(reply.find("error"), nullptr);
  EXPECT_EQ(reply.find("error")->string_at("code"), "bad_json");

  // Valid JSON, not a request the server knows.
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"dance"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "error");

  // Submit with a bad id, then a duplicate id.
  ASSERT_TRUE(client_->send(
      parse_or_die(R"({"op":"submit","id":-3,"type":"evaluate"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "error");

  // The stream still works after every recoverable error.
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"ping"})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "pong");
}

TEST_F(ServicePipeTest, OversizeFrameGetsFinalErrorAndClose) {
  std::string header(4, '\0');
  header[0] = 0x40;  // announces a 1 GiB payload
  ASSERT_TRUE(client_->send_raw(header));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "error");
  ASSERT_NE(reply.find("error"), nullptr);
  EXPECT_EQ(reply.find("error")->string_at("code"), "oversize_frame");
  // on_bytes returned false: the serving loop exits without a shutdown op.
  if (server_.joinable()) server_.join();
  EXPECT_EQ(exit_code_, 0);
}

TEST_F(ServicePipeTest, CancelOverPipes) {
  ASSERT_TRUE(client_->send(parse_or_die(
      R"({"op":"submit","id":9,"type":"design","progress":true,"params":)" +
      slow_design_params() + "}")));
  // Wait for two progress frames (mid-generation), then cancel.
  Json reply;
  int progress_seen = 0;
  while (progress_seen < 2) {
    ASSERT_TRUE(client_->next(&reply));
    ASSERT_EQ(reply.string_at("event"), "progress") << reply.dump();
    ++progress_seen;
  }
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"cancel","id":9})")));
  std::string status;
  for (;;) {
    ASSERT_TRUE(client_->next(&reply));
    const std::string event = reply.string_at("event");
    if (event == "cancel_ack") {
      EXPECT_TRUE(reply.bool_at("known", false));
      continue;
    }
    if (event == "progress") continue;  // frames already in flight
    ASSERT_EQ(event, "result");
    status = reply.string_at("status");
    break;
  }
  EXPECT_EQ(status, "cancelled");
}

// --- fuzz: frame parser + full session -------------------------------------

/// Counter-seeded mutation fuzz (numeric/rng.h split streams, so every
/// trial is reproducible in isolation): random byte flips, truncations,
/// and splices of valid frames must never crash, hang, or provoke a
/// malformed reply — every reply frame parses as a JSON object with an
/// "event" member.  CI runs this under ASan/UBSan and TSan.
TEST(ServiceFuzz, MutatedFramesNeverBreakReaderOrSession) {
  const std::string seeds[] = {
      service::encode_frame(R"({"op":"ping"})"),
      service::encode_frame(R"({"op":"stats"})"),
      service::encode_frame(
          R"({"op":"submit","id":1,"type":"evaluate","params":{}})"),
      service::encode_frame(R"({"op":"cancel","id":1})"),
  };
  const numeric::Rng root(0xF00DF00DULL);

  service::SchedulerOptions options;
  options.workers = 1;
  service::Scheduler scheduler(options);

  for (std::uint64_t trial = 0; trial < 150; ++trial) {
    numeric::Rng rng = root.split(trial);
    std::string bytes = seeds[rng.uniform_index(4)];
    // Mutate: flip up to 8 bytes, maybe truncate, maybe prepend garbage.
    const std::uint64_t flips = rng.uniform_index(8);
    for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.uniform_index(bytes.size())] =
          static_cast<char>(rng.uniform_index(256));
    }
    if (rng.bernoulli(0.3) && !bytes.empty()) {
      bytes.resize(rng.uniform_index(bytes.size()));
    }
    if (rng.bernoulli(0.2)) {
      bytes.insert(0, std::string(rng.uniform_index(5), '\xFF'));
    }

    // 1. The frame reader alone: arbitrary chunking, no UB, no hang.
    {
      service::FrameReader reader;
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const std::size_t chunk = 1 + rng.uniform_index(7);
        reader.feed(std::string_view(bytes).substr(offset, chunk));
        offset += chunk;
        std::string payload;
        while (reader.next(&payload)) {
          Json doc;
          std::string error;
          (void)Json::parse(payload, &doc, &error);
        }
      }
    }

    // 2. The full session: every reply is a well-formed error/result.
    std::vector<std::string> replies;
    service::Session session(scheduler, "fuzz",
                             [&](const std::string& frame) {
                               replies.push_back(frame);
                             });
    (void)session.on_bytes(bytes);
    session.drain();
    for (const std::string& frame : replies) {
      ASSERT_GE(frame.size(), service::kFrameHeaderBytes);
      service::FrameReader check;
      check.feed(frame);
      std::string payload;
      ASSERT_TRUE(check.next(&payload)) << "torn reply frame";
      Json doc;
      std::string error;
      ASSERT_TRUE(Json::parse(payload, &doc, &error)) << error;
      ASSERT_TRUE(doc.is_object());
      EXPECT_FALSE(doc.string_at("event").empty());
    }
  }
  scheduler.shutdown();
}

// --- stats -----------------------------------------------------------------

TEST(ServiceStats, CountersFeedTheStatsReport) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  {
    service::SchedulerOptions options;
    options.workers = 2;
    service::Scheduler scheduler(options);
    std::vector<service::Scheduler::TicketPtr> tickets;
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(
          scheduler.submit("stats-client", "evaluate", parse_or_die("{}")));
    }
    for (const auto& t : tickets) {
      ASSERT_NE(t, nullptr);
      EXPECT_EQ(t->wait().status, "ok");
    }
    scheduler.shutdown();
  }
  const Json stats = service::service_stats_json();
  EXPECT_EQ(stats.number_at("submitted", 0), 6.0);
  EXPECT_EQ(stats.number_at("completed", 0), 6.0);
  EXPECT_EQ(stats.number_at("latency_jobs", 0), 6.0);
  EXPECT_GT(stats.number_at("latency_p50_us", 0), 0.0);
  EXPECT_GE(stats.number_at("latency_p99_us", 0),
            stats.number_at("latency_p50_us", 0));
  obs::reset();
  obs::set_enabled(was_enabled);
}

// --- telemetry: percentiles, SLOs, deterministic artifacts ------------------

TEST(ServiceTelemetry, LatencyPercentileMidpointPins) {
  // Empty histogram reports 0, not a bucket bound.
  std::uint64_t empty[32] = {};
  EXPECT_EQ(service::latency_percentile_us(empty, 0.5), 0.0);

  // All 10 samples in bucket 5 = [32, 64).  Midpoint rule: rank k sits at
  // (j - 0.5)/n of the bucket width, so p50 (k = 6) = 32 + 32*5.5/10 and
  // p99 (k = 10) = 32 + 32*9.5/10 — never the old upper-bound 64.
  std::uint64_t single[32] = {};
  single[5] = 10;
  EXPECT_DOUBLE_EQ(service::latency_percentile_us(single, 0.5), 49.6);
  EXPECT_DOUBLE_EQ(service::latency_percentile_us(single, 0.99), 62.4);

  // Split across buckets 0 = [0, 2) and 3 = [8, 16): p50 (k = 3) is the
  // first of bucket 3's two samples, p99 (k = 4) the second.
  std::uint64_t split[32] = {};
  split[0] = 2;
  split[3] = 2;
  EXPECT_DOUBLE_EQ(service::latency_percentile_us(split, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(service::latency_percentile_us(split, 0.99), 14.0);
}

/// RAII save/restore of the obs runtime flags plus a full telemetry wipe on
/// both ends, so observability tests cannot leak state into each other.
struct ObsStateGuard {
  bool enabled = obs::enabled();
  bool deterministic = obs::deterministic();
  ObsStateGuard() { wipe(); }
  ~ObsStateGuard() {
    wipe();
    obs::set_deterministic(deterministic);
    obs::set_enabled(enabled);
  }
  static void wipe() {
    obs::reset();
    obs::metrics_reset();
    obs::flight_clear();
  }
};

TEST(ServiceObservability, DeterministicArtifactsBitIdenticalAcrossWorkers) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  ObsStateGuard guard;
  obs::set_enabled(true);
  obs::set_deterministic(true);

  struct Artifacts {
    std::vector<std::string> spans;
    std::string prometheus;
    std::string metrics;
    std::string flight;
  };

  // Saturating mixed traffic: more jobs than any worker count drains
  // instantly (all submitted before the first wait), across several designs,
  // configs, sweeps, a small design run, and a yield run.
  const auto run = [&](std::size_t workers) {
    ObsStateGuard::wipe();
    Artifacts art;
    std::vector<TargetJob> jobs = background_jobs(10);
    jobs.push_back({"design", "design",
                    R"({"seed":21,"de_generations":2,"de_population":8,)"
                    R"("polish_evaluations":30})"});
    jobs.push_back({"yield", "yield",
                    R"({"seed":22,"samples":16,"sampler":"sobol"})"});
    service::SchedulerOptions options;
    options.workers = workers;
    options.queue_capacity = 256;
    options.max_queued_per_client = 256;
    service::Scheduler scheduler(options);
    std::vector<service::Scheduler::TicketPtr> tickets;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      auto t = scheduler.submit("det-" + std::to_string(i % 3), jobs[i].type,
                                parse_or_die(jobs[i].params_text),
                                /*timeout_s=*/0.0, {}, {},
                                /*want_spans=*/true);
      EXPECT_NE(t, nullptr) << jobs[i].label;
      if (t != nullptr) tickets.push_back(std::move(t));
    }
    for (auto& t : tickets) {
      const service::JobOutcome& outcome = t->wait();
      EXPECT_EQ(outcome.status, "ok");
      art.spans.push_back(outcome.spans.dump());
    }
    scheduler.shutdown();
    art.prometheus = service::metrics_prometheus(true);
    art.metrics = service::metrics_json(true).dump();
    art.flight = service::flight_json(true).dump();
    return art;
  };

  const Artifacts one = run(1);
  ASSERT_EQ(one.spans.size(), 12u);
  EXPECT_NE(one.spans.front().find("service.job.run"), std::string::npos);
  EXPECT_NE(one.prometheus.find("gnsslna_service_completed 12"),
            std::string::npos)
      << one.prometheus;
  EXPECT_NE(one.flight.find("\"complete\""), std::string::npos);

  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    const Artifacts other = run(workers);
    EXPECT_EQ(one.spans, other.spans) << workers << " workers";
    EXPECT_EQ(one.prometheus, other.prometheus) << workers << " workers";
    EXPECT_EQ(one.metrics, other.metrics) << workers << " workers";
    EXPECT_EQ(one.flight, other.flight) << workers << " workers";
  }
}

TEST(ServiceObservability, DeadlineMissedOutcomeCarriesFlightEvents) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  ObsStateGuard guard;
  obs::set_enabled(true);

  service::SchedulerOptions options;
  options.workers = 1;
  service::Scheduler scheduler(options);
  auto ticket = scheduler.submit("impatient", "design",
                                 parse_or_die(slow_design_params()), 1e-6);
  ASSERT_NE(ticket, nullptr);
  const service::JobOutcome outcome = ticket->wait();
  scheduler.shutdown();

  EXPECT_EQ(outcome.status, "timeout");
  ASSERT_TRUE(outcome.flight.is_array()) << outcome.flight.dump();
  bool saw_admit = false;
  bool saw_start = false;
  bool saw_miss = false;
  for (std::size_t i = 0; i < outcome.flight.size(); ++i) {
    const std::string type = outcome.flight.at(i).string_at("type");
    saw_admit |= type == "admit";
    saw_start |= type == "start";
    saw_miss |= type == "deadline_miss";
  }
  EXPECT_TRUE(saw_admit) << outcome.flight.dump();
  EXPECT_TRUE(saw_start) << outcome.flight.dump();
  EXPECT_TRUE(saw_miss) << outcome.flight.dump();
}

TEST_F(ServicePipeTest, MetricsAndFlightOpsAnswerInEveryBuild) {
  // Both ops must answer well-formed frames whether or not instrumentation
  // is compiled in; GNSSLNA_OBS=OFF builds report enabled=false with empty
  // payloads rather than an error.
  ASSERT_TRUE(client_->send(
      parse_or_die(R"({"op":"metrics","deterministic":true})")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "metrics") << reply.dump();
  const Json* metrics = reply.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
  if (!obs::compiled_in()) {
    EXPECT_FALSE(reply.bool_at("enabled", true));
    EXPECT_TRUE(reply.string_at("prometheus").empty());
  }

  ASSERT_TRUE(client_->send(
      parse_or_die(R"({"op":"flight","deterministic":true})")));
  ASSERT_TRUE(client_->next(&reply));
  EXPECT_EQ(reply.string_at("event"), "flight") << reply.dump();
  const Json* events = reply.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  if (!obs::compiled_in()) {
    EXPECT_FALSE(reply.bool_at("enabled", true));
    EXPECT_EQ(events->size(), 0u);
  }
}

TEST_F(ServicePipeTest, SpansFlagReturnsTheJobSpanTree) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  ObsStateGuard guard;
  obs::set_enabled(true);

  // Plain submit: no spans member in the result frame.
  ASSERT_TRUE(client_->send(parse_or_die(
      R"({"op":"submit","id":1,"type":"evaluate","params":{}})")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  ASSERT_EQ(reply.string_at("event"), "result") << reply.dump();
  EXPECT_EQ(reply.string_at("status"), "ok");
  EXPECT_EQ(reply.find("spans"), nullptr);

  // spans:true: the result frame gains the aggregated per-job span tree.
  ASSERT_TRUE(client_->send(parse_or_die(
      R"({"op":"submit","id":2,"type":"evaluate","spans":true,"params":{}})")));
  ASSERT_TRUE(client_->next(&reply));
  ASSERT_EQ(reply.string_at("event"), "result") << reply.dump();
  EXPECT_EQ(reply.string_at("status"), "ok");
  const Json* spans = reply.find("spans");
  ASSERT_NE(spans, nullptr) << reply.dump();
  EXPECT_EQ(spans->string_at("name"), "job");
  EXPECT_NE(spans->dump().find("service.job.run"), std::string::npos)
      << spans->dump();
}

TEST_F(ServicePipeTest, DeadlineMissedResultFrameCarriesFlight) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs compiled out";
  ObsStateGuard guard;
  obs::set_enabled(true);

  ASSERT_TRUE(client_->send(parse_or_die(
      R"({"op":"submit","id":7,"type":"design","timeout_s":1e-6,"params":)" +
      slow_design_params() + "}")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  ASSERT_EQ(reply.string_at("event"), "result") << reply.dump();
  EXPECT_EQ(reply.string_at("status"), "timeout");
  const Json* flight = reply.find("flight");
  ASSERT_NE(flight, nullptr) << reply.dump();
  ASSERT_TRUE(flight->is_array());
  EXPECT_NE(flight->dump().find("\"deadline_miss\""), std::string::npos)
      << flight->dump();
}

TEST_F(ServicePipeTest, StatsOpReportsTheSloArray) {
  ASSERT_TRUE(client_->send(parse_or_die(R"({"op":"stats"})")));
  Json reply;
  ASSERT_TRUE(client_->next(&reply));
  ASSERT_EQ(reply.string_at("event"), "stats") << reply.dump();
  const Json* stats = reply.find("stats");
  ASSERT_NE(stats, nullptr) << reply.dump();
  const Json* slo = stats->find("slo");
  ASSERT_NE(slo, nullptr) << reply.dump();
  ASSERT_TRUE(slo->is_array());
  ASSERT_EQ(slo->size(), 4u);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < slo->size(); ++i) {
    names.push_back(slo->at(i).string_at("name"));
    // Every entry is fully populated; with no traffic (or obs off) each
    // objective is vacuously attained.
    EXPECT_FALSE(slo->at(i).string_at("kind").empty());
    EXPECT_GT(slo->at(i).number_at("limit", 0.0), 0.0);
  }
  const std::vector<std::string> expected = {"latency_p50", "latency_p99",
                                             "rejection_rate", "error_rate"};
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace gnsslna
