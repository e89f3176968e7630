// Zero-allocation regression test for the batched evaluation core.
//
// Built as its OWN executable: GNSSLNA_BENCH_COUNT_ALLOCS below installs
// the program-wide counting operator new from bench_util.h, which must not
// leak into the main test binary.  The contract under test (see
// DESIGN.md, "Batched evaluation core"): after the first evaluation has
// warmed the plan, tables, and workspace arena, a BandEvaluator::evaluate
// call performs ZERO heap allocations — element re-tabulation writes into
// preallocated SoA tables, and factor/solve/extract run entirely out of
// the workspace arena.
#define GNSSLNA_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <gtest/gtest.h>

#include "amplifier/lna.h"
#include "amplifier/yield.h"
#include "circuit/batched.h"
#include "device/phemt.h"
#include "reference_band.h"

namespace gnsslna::amplifier {
namespace {

/// Allocation count of one evaluate() call, measured tightly around it.
std::uint64_t allocs_of(BandEvaluator& ev, const DesignVector& d) {
  const std::uint64_t count0 = bench::alloc_count();
  const BandReport r = ev.evaluate(d);
  const std::uint64_t allocs = bench::alloc_count() - count0;
  // Keep the report observable so the call cannot be elided.
  EXPECT_GT(r.id_a, 0.0);
  return allocs;
}

TEST(AllocFree, SteadyStateBandEvaluationDoesNotTouchTheHeap) {
  BandEvaluator ev(device::Phemt::reference_device(), AmplifierConfig{});
  DesignVector d;

  // Cold call: builds the plan, tabulates every element, sizes the arena.
  // It MUST allocate — this also proves the counter is wired up.
  EXPECT_GT(allocs_of(ev, d), 0u);
  // Two more warm-up calls, covering a re-tabulation and a bias step:
  // the first pass through each code path lazily registers its obs
  // counters (function-local statics), a one-time cost that is not part
  // of the steady-state contract.
  d.l_in_m += 1e-5;
  (void)ev.evaluate(d);
  d.vgs += 0.01;
  (void)ev.evaluate(d);

  // Steady state: same design, single-field steps of every character the
  // optimizer makes (line length, chip passive, bias voltage, resistor),
  // and a full design step.  None may allocate.
  EXPECT_EQ(allocs_of(ev, d), 0u) << "same-design re-evaluation";
  for (int i = 0; i < 50; ++i) {
    d.l_in_m += 1e-5;
    EXPECT_EQ(allocs_of(ev, d), 0u) << "line-length step " << i;
  }
  d.c_mid_f = 1.3e-12;
  EXPECT_EQ(allocs_of(ev, d), 0u) << "chip-capacitor step";
  d.r_fb_ohm = 750.0;
  EXPECT_EQ(allocs_of(ev, d), 0u) << "feedback-resistor step";
  d.vgs += 0.02;
  EXPECT_EQ(allocs_of(ev, d), 0u) << "bias step (vgs)";
  d.vds += 0.1;
  EXPECT_EQ(allocs_of(ev, d), 0u) << "bias step (vds)";
  d.c_in_f = 2.2e-12;
  d.l_shunt_h = 5.1e-9;
  d.l_in_m = 7.7e-3;
  EXPECT_EQ(allocs_of(ev, d), 0u) << "multi-field step";
}

TEST(AllocFree, WorkspaceHighWaterMarkIsPinned) {
  // The workspace arena must stop growing after the first evaluation, and
  // its footprint is pinned exactly: any layout change that silently
  // inflates the per-thread scratch shows up here as a failure to update
  // deliberately.
  BandEvaluator ev(device::Phemt::reference_device(), AmplifierConfig{});
  DesignVector d;
  (void)ev.evaluate(d);
  const std::size_t after_first = ev.workspace_high_water();
  // 16 lanes (7 band + 9 stability), 15 unknowns, 67 filled positions:
  // compact store + pivot reciprocals + column maxima + dense-path flags +
  // port / transfer / noise-sweep lanes as laid out by BatchedPlan::bind.
  EXPECT_EQ(after_first, 43168u);

  for (int i = 0; i < 20; ++i) {
    d.l_in_m += 1e-4;
    (void)ev.evaluate(d);
    ASSERT_EQ(ev.workspace_high_water(), after_first) << "step " << i;
  }
}

TEST(AllocFree, DensePathRefactorDoesNotTouchTheHeap) {
  // A lane whose diagonal pivot collapses is factored and solved through
  // the workspace's LuDecomposition; once the first flagged factor has
  // sized its buffers, re-factoring after a value change reuses them.
  const std::vector<double> grid = {1.1e9, 1.5e9, 1.9e9};
  circuit::BatchedPlan plan(reference::collapsing_pivot_netlist(1.5e9), grid);
  circuit::EvalWorkspace ws;
  const auto pass = [&] {
    plan.factor(ws, 0, grid.size());
    plan.solve_ports(ws);
    plan.solve_output_transfer(ws, 1);
  };
  pass();  // cold: carves the arena, sizes the dense-path buffers
  plan.mark_values_dirty();
  pass();  // warm-up for lazily registered obs counters
  for (int i = 0; i < 5; ++i) {
    plan.mark_values_dirty();
    const std::uint64_t count0 = bench::alloc_count();
    pass();
    EXPECT_EQ(bench::alloc_count() - count0, 0u) << "refactor " << i;
    EXPECT_TRUE(ws.repivoted(1));
    EXPECT_FALSE(ws.repivoted(0));
  }
}

TEST(AllocFree, SteadyStateYieldTrialDoesNotTouchTheHeap) {
  // The yield engine's per-trial contract: after the first evaluate() has
  // warmed the plan tables and workspace arena, every subsequent trial —
  // a FULL re-stamp of all tolerance-perturbed tables plus one batched
  // evaluate — performs zero heap allocations, even though each trial
  // carries a fresh design AND a fresh substrate.
  const AmplifierConfig config = [] {
    AmplifierConfig c;
    c.resolve();
    return c;
  }();
  const DesignVector nominal;
  YieldTrialEvaluator ev(device::Phemt::reference_device(), config, nominal);
  DesignGoals goals;
  goals.nf_goal_db = 10.0;
  goals.gain_goal_db = 0.0;
  goals.s11_goal_db = 0.0;
  goals.s22_goal_db = 0.0;
  goals.mu_margin = 0.0;
  const numeric::Rng root(1234);

  // Cold trial sizes the arena; a second warm-up covers lazily registered
  // obs counters (function-local statics), as in the BandEvaluator test.
  const TrialDraw warm =
      pseudo_trial_draw(root, 0, nominal, config.substrate, {});
  (void)ev.evaluate(warm, goals);
  (void)ev.evaluate(warm, goals);

  const std::size_t high_water = ev.workspace_high_water();
  for (std::uint64_t trial = 1; trial <= 40; ++trial) {
    const TrialDraw draw =
        pseudo_trial_draw(root, trial, nominal, config.substrate, {});
    const std::uint64_t count0 = bench::alloc_count();
    const TrialOutcome out = ev.evaluate(draw, goals);
    const std::uint64_t allocs = bench::alloc_count() - count0;
    EXPECT_EQ(allocs, 0u) << "trial " << trial;
    EXPECT_FALSE(out.failed) << "trial " << trial;
    EXPECT_GT(out.gt_min_db, -50.0);  // keep the result observable
    ASSERT_EQ(ev.workspace_high_water(), high_water) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gnsslna::amplifier
