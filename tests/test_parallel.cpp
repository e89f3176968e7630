// The deterministic-parallelism contract: thread count changes wall-clock
// time, never answers.  ThreadPool unit tests plus bit-identity checks of
// every fan-out hot path (DE, NSGA-II, SA restarts, Monte-Carlo yield,
// corner analysis) across 1/2/4/8 threads, and the per-thread slot owner
// behind the objective caches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "amplifier/corners.h"
#include "amplifier/objectives.h"
#include "amplifier/yield.h"
#include "optimize/goal_attainment.h"
#include "numeric/parallel.h"
#include "numeric/rng.h"
#include "obs/obs.h"
#include "optimize/differential_evolution.h"
#include "optimize/nsga2.h"
#include "optimize/simulated_annealing.h"

namespace gnsslna {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests.

TEST(ThreadPool, EmptyRangeRunsNothing) {
  numeric::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  numeric::ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  numeric::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::size_t sum = 0;  // serial by construction, no atomics needed
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  numeric::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 137) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolIsReusableAfterAnException) {
  numeric::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.parallel_for(64, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  numeric::ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<int> calls{0};
    pool.parallel_for(97, [&](std::size_t) { ++calls; });
    ASSERT_EQ(calls.load(), 97) << "job " << job;
  }
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  constexpr std::size_t outer = 16, inner = 32;
  std::vector<std::atomic<int>> hits(outer * inner);
  numeric::parallel_for(4, outer, [&](std::size_t i) {
    // A nested use of the shared pool must degrade to a serial loop on the
    // worker rather than block on the already-busy pool.
    numeric::parallel_for(4, inner,
                          [&](std::size_t j) { ++hits[i * inner + j]; });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(ThreadPool, MaxThreadsCapsConcurrency) {
  numeric::ThreadPool pool(8);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  pool.parallel_for(
      256,
      [&](std::size_t) {
        const int now = ++active;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        volatile int spin = 0;
        while (spin < 1000) {
          spin = spin + 1;
        }
        --active;
      },
      2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ParallelHelpers, ResolveThreadsFollowsTheConvention) {
  EXPECT_EQ(numeric::resolve_threads(0), numeric::hardware_threads());
  EXPECT_EQ(numeric::resolve_threads(1), 1u);
  EXPECT_EQ(numeric::resolve_threads(7), 7u);
  EXPECT_GE(numeric::hardware_threads(), 1u);
}

TEST(ParallelHelpers, ParallelMapReturnsValuesInIndexOrder) {
  const std::vector<double> out = numeric::parallel_map(
      4, 1000, [](std::size_t i) { return std::sqrt(double(i)); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::sqrt(double(i)));
  }
}

// ---------------------------------------------------------------------------
// Counter-based RNG streams.

TEST(RngSplit, IsAPureFunctionOfStateAndIndex) {
  numeric::Rng rng(42);
  rng.next_u64();
  numeric::Rng a = rng.split(7);
  numeric::Rng b = rng.split(7);
  for (int k = 0; k < 16; ++k) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSplit, DoesNotAdvanceTheParent) {
  numeric::Rng rng(42);
  numeric::Rng copy = rng;
  (void)rng.split(0);
  (void)rng.split(123456);
  for (int k = 0; k < 16; ++k) ASSERT_EQ(rng.next_u64(), copy.next_u64());
}

TEST(RngSplit, StreamsAreDistinct) {
  numeric::Rng rng(42);
  numeric::Rng a = rng.split(0);
  numeric::Rng b = rng.split(1);
  // Equality of the first draw would be a 2^-64 coincidence.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------------------------------------------------------------------------
// PerThreadSlots: the owner-held per-thread memo behind the objective caches.

/// Slot type that counts its live instances.
struct CountedSlot {
  static std::atomic<int> live;
  CountedSlot() { ++live; }
  ~CountedSlot() { --live; }
  CountedSlot(const CountedSlot&) = delete;
  CountedSlot& operator=(const CountedSlot&) = delete;
  std::size_t touches = 0;
};
std::atomic<int> CountedSlot::live{0};

TEST(PerThreadSlots, DestroyingTheOwnerFreesTheSlotsOfEveryThread) {
  // Four pool threads (the caller plus three workers) each touch the owner
  // several times; a barrier holds every body until all four have arrived,
  // so each index runs on a distinct thread.
  constexpr std::size_t kThreads = 4;
  numeric::ThreadPool pool(kThreads - 1);
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::thread::id> seen;
  {
    numeric::PerThreadSlots<CountedSlot> slots;
    pool.parallel_for(kThreads, [&](std::size_t) {
      CountedSlot& slot = slots.local();
      for (int k = 0; k < 3; ++k) {
        // Every later touch on this thread finds the same slot; two
        // threads sharing one would also race on `touches` (TSan job).
        EXPECT_EQ(&slots.local(), &slot);
        ++slot.touches;
      }
      std::unique_lock<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10),
                  [&] { return seen.size() == kThreads; });
    }, kThreads);
    EXPECT_EQ(seen.size(), kThreads);
    EXPECT_EQ(CountedSlot::live.load(), static_cast<int>(kThreads));
  }
  EXPECT_EQ(CountedSlot::live.load(), 0);
}

TEST(PerThreadSlots, ANewOwnerNeverSeesAStaleSlot) {
  // Owners are keyed by a unique instance id, not by address: an owner
  // built where a destroyed one lived starts from a fresh slot.
  for (int round = 0; round < 8; ++round) {
    numeric::PerThreadSlots<CountedSlot> slots;
    EXPECT_EQ(slots.local().touches, 0u) << "round " << round;
    slots.local().touches = 42;
  }
  EXPECT_EQ(CountedSlot::live.load(), 0);
}

// ---------------------------------------------------------------------------
// Determinism of the optimizer fan-outs: identical seed => bit-identical
// result for every thread count.

double rosenbrock(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    s += 100.0 * a * a + b * b;
  }
  return s;
}

optimize::Bounds box3() {
  return optimize::Bounds({-2.0, -2.0, -2.0}, {2.0, 2.0, 2.0});
}

void expect_identical(const optimize::Result& a, const optimize::Result& b,
                      std::size_t threads) {
  EXPECT_EQ(a.value, b.value) << threads << " threads";
  EXPECT_EQ(a.evaluations, b.evaluations) << threads << " threads";
  EXPECT_EQ(a.iterations, b.iterations) << threads << " threads";
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << threads << " threads, coordinate " << i;
  }
}

class ThreadCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadCountSweep, DifferentialEvolutionIsBitIdentical) {
  optimize::DifferentialEvolutionOptions opt;
  opt.max_generations = 40;
  numeric::Rng serial_rng(7);
  const optimize::Result serial =
      differential_evolution(rosenbrock, box3(), serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(7);
  const optimize::Result r =
      differential_evolution(rosenbrock, box3(), rng, opt);
  expect_identical(serial, r, opt.threads);
}

TEST_P(ThreadCountSweep, AnnealingRestartsAreBitIdentical) {
  optimize::SimulatedAnnealingOptions opt;
  opt.max_evaluations = 4000;
  opt.restarts = 4;
  numeric::Rng serial_rng(9);
  const optimize::Result serial =
      simulated_annealing(rosenbrock, box3(), serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(9);
  const optimize::Result r =
      simulated_annealing(rosenbrock, box3(), rng, opt);
  expect_identical(serial, r, opt.threads);
}

TEST_P(ThreadCountSweep, Nsga2IsBitIdentical) {
  // ZDT1 on 4 variables.
  const optimize::VectorObjectiveFn zdt1 =
      [](const std::vector<double>& x) -> std::vector<double> {
    double g = 1.0;
    for (std::size_t i = 1; i < x.size(); ++i) {
      g += 9.0 * x[i] / double(x.size() - 1);
    }
    const double f1 = x[0];
    return {f1, g * (1.0 - std::sqrt(f1 / g))};
  };
  const optimize::Bounds bounds(std::vector<double>(4, 0.0),
                                std::vector<double>(4, 1.0));
  optimize::Nsga2Options opt;
  opt.population = 24;
  opt.generations = 20;

  numeric::Rng serial_rng(10);
  const optimize::Nsga2Result serial =
      nsga2(zdt1, 2, bounds, {}, serial_rng, opt);

  opt.threads = GetParam();
  numeric::Rng rng(10);
  const optimize::Nsga2Result r = nsga2(zdt1, 2, bounds, {}, rng, opt);

  EXPECT_EQ(serial.evaluations, r.evaluations);
  ASSERT_EQ(serial.front.size(), r.front.size());
  for (std::size_t i = 0; i < serial.front.size(); ++i) {
    ASSERT_EQ(serial.front[i].x, r.front[i].x) << "individual " << i;
    ASSERT_EQ(serial.front[i].f, r.front[i].f) << "individual " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}));

// ---------------------------------------------------------------------------
// Determinism of the amplifier-level fan-outs (full netlist evaluations, so
// sample counts are kept small).

TEST(ParallelAmplifier, MonteCarloYieldIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  amplifier::DesignGoals goals;
  goals.nf_goal_db = 10.0;
  goals.gain_goal_db = 0.0;
  goals.s11_goal_db = 0.0;
  goals.s22_goal_db = 0.0;
  goals.mu_margin = 0.0;

  numeric::Rng serial_rng(88);
  const amplifier::YieldReport serial = amplifier::monte_carlo_yield(
      dev, config, amplifier::DesignVector{}, goals, 6, serial_rng, {}, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    numeric::Rng rng(88);
    const amplifier::YieldReport rep = amplifier::monte_carlo_yield(
        dev, config, amplifier::DesignVector{}, goals, 6, rng, {}, threads);
    EXPECT_EQ(serial.samples, rep.samples) << threads << " threads";
    EXPECT_EQ(serial.passes, rep.passes) << threads << " threads";
    EXPECT_EQ(serial.pass_rate, rep.pass_rate) << threads << " threads";
    EXPECT_EQ(serial.nf_avg_p95_db, rep.nf_avg_p95_db) << threads;
    EXPECT_EQ(serial.gt_min_p5_db, rep.gt_min_p5_db) << threads;
    EXPECT_EQ(serial.nf_avg_mean_db, rep.nf_avg_mean_db) << threads;
    EXPECT_EQ(serial.gt_min_mean_db, rep.gt_min_mean_db) << threads;
  }
}

TEST(ParallelAmplifier, CornerAnalysisIsBitIdenticalAcrossThreadCounts) {
  const device::Phemt dev = device::Phemt::reference_device();
  amplifier::AmplifierConfig config;
  config.resolve();
  const amplifier::DesignGoals goals;
  const std::vector<amplifier::Corner> corners =
      amplifier::standard_corners();

  const std::vector<amplifier::CornerRow> serial = amplifier::corner_analysis(
      dev, config, amplifier::DesignVector{}, goals, corners, 1);
  const std::vector<amplifier::CornerRow> par = amplifier::corner_analysis(
      dev, config, amplifier::DesignVector{}, goals, corners, 4);

  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].corner.name, par[i].corner.name);
    EXPECT_EQ(serial[i].meets_goals, par[i].meets_goals);
    EXPECT_EQ(serial[i].report.nf_avg_db, par[i].report.nf_avg_db);
    EXPECT_EQ(serial[i].report.gt_min_db, par[i].report.gt_min_db);
    EXPECT_EQ(serial[i].report.s11_worst_db, par[i].report.s11_worst_db);
    EXPECT_EQ(serial[i].report.mu_min, par[i].report.mu_min);
    EXPECT_EQ(serial[i].report.id_a, par[i].report.id_a);
  }
}

// The objective/constraint closures of a goal problem share one report
// cache and are fanned out concurrently by the optimizers — regression
// test for the memo-slot race that made pareto_sweep thread-count
// dependent.
TEST(ParallelAmplifier, NfGainProblemEvaluationIsBitIdenticalAcrossThreads) {
  const device::Phemt dev = device::Phemt::reference_device();
  const optimize::GoalProblem problem = amplifier::make_nf_gain_problem(
      dev, amplifier::AmplifierConfig{}, amplifier::DesignGoals{});

  numeric::Rng rng(2024);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 12; ++i) points.push_back(problem.bounds.sample(rng));

  auto evaluate_all = [&](std::size_t threads) {
    return numeric::parallel_map(threads, points.size(), [&](std::size_t i) {
      std::vector<double> row = problem.objectives(points[i]);
      for (const auto& constraint : problem.constraints) {
        row.push_back(constraint(points[i]));
      }
      return row;
    });
  };

  const std::vector<std::vector<double>> serial = evaluate_all(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(serial, evaluate_all(threads)) << threads << " threads";
  }
}

#if defined(GNSSLNA_OBS_ENABLED)

// The telemetry layer promises that counter TOTALS are bit-identical for
// any thread count (thread-local shards + commutative integer merge).  The
// only exceptions are the counters tracking per-thread evaluator rebind
// and workspace state — which design a thread's persistent evaluation
// plan saw last, and how much arena each thread's workspace committed,
// depend on work distribution by construction.
TEST(ParallelObs, EvaluationCounterTotalsAreBitIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  const device::Phemt dev = device::Phemt::reference_device();
  const auto make_problem = [&] {
    return amplifier::make_nf_gain_problem(dev, amplifier::AmplifierConfig{},
                                           amplifier::DesignGoals{});
  };
  numeric::Rng rng(2024);
  std::vector<std::vector<double>> points;
  const optimize::Bounds bounds = make_problem().bounds;
  for (int i = 0; i < 8; ++i) points.push_back(bounds.sample(rng));

  const auto is_rebind_counter = [](const std::string& name) {
    return name == "circuit.batch.workspace_reuses" ||
           name == "circuit.batch.arena_bytes_hwm";
  };
  const auto run = [&](std::size_t threads) {
    // A fresh problem per thread count: every thread's report-cache slot
    // starts cold, so no run can hit on the previous run's last point.
    const optimize::GoalProblem problem = make_problem();
    obs::reset();
    numeric::parallel_for(threads, points.size(), [&](std::size_t i) {
      (void)problem.objectives(points[i]);
      for (const auto& constraint : problem.constraints) {
        (void)constraint(points[i]);
      }
    });
    std::vector<obs::CounterValue> out;
    for (obs::CounterValue& c : obs::counter_snapshot()) {
      if (!is_rebind_counter(c.name)) out.push_back(std::move(c));
    }
    return out;
  };

  const auto serial = run(1);
  const auto named = [&](const char* name) {
    for (const obs::CounterValue& c : serial) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  // The workload must actually exercise the instrumented evaluation path
  // (the batched core by default).
  EXPECT_GT(named("amplifier.band_evaluations"), 0u);
  EXPECT_GT(named("circuit.batch.solves"), 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto par = run(threads);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].name, par[i].name);
      EXPECT_EQ(serial[i].value, par[i].value)
          << serial[i].name << " at " << threads << " threads";
    }
  }

  obs::reset();
  obs::set_enabled(was_enabled);
}

#endif  // GNSSLNA_OBS_ENABLED

}  // namespace
}  // namespace gnsslna
