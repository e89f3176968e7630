// Frequency-batched evaluation kernels.
//
// NOTE ON ARITHMETIC: this file re-implements complex multiply on raw
// re/im doubles so the lane loops vectorize, in the naive form the scalar
// path evaluates through std::complex.  This file is compiled with
// -ffp-contract=off (see src/circuit/CMakeLists.txt) so FMA-capable hosts
// cannot contract a*b-c*d expressions into fused forms, which keeps every
// result independent of the host.
#include "circuit/batched.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "rf/units.h"

namespace gnsslna::circuit {

// The lane loops below are plain IEEE mul/add/sub streams, so running them
// through wider SIMD units changes nothing about the results — packed
// double arithmetic is correctly rounded exactly like scalar, and
// -ffp-contract=off keeps FMA contraction off in every clone.  Function
// multiversioning therefore lets the default (bit-portable, baseline
// x86-64) build use AVX2/AVX-512 lanes when the host has them, dispatched
// once at load time, with bit-identical output on every path.
//
// ThreadSanitizer is excluded: GCC's target_clones IFUNC resolvers run
// before the TSan runtime is initialized and segfault at load time (a
// 3-line reproducer crashes identically).  Dispatch never changes
// results, so the TSan build just runs the baseline clone.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__)
#define GNSSLNA_BATCHED_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define GNSSLNA_BATCHED_CLONES
#endif

// ---------------------------------------------------------------------------
// Construction and tabulation

namespace {
// Starts above EvalWorkspace's initial seen revision (0).
std::atomic<std::uint64_t> g_next_revision{1};

constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
}  // namespace

std::uint64_t BatchedPlan::next_revision() {
  return g_next_revision.fetch_add(1);
}

BatchedPlan::BatchedPlan(const Netlist& netlist, std::vector<double> grid_hz)
    : grid_(std::move(grid_hz)) {
  for (const double f : grid_) {
    if (f <= 0.0) {
      throw std::invalid_argument("BatchedPlan: grid frequencies must be > 0");
    }
  }
  ports_ = netlist.ports();
  unknowns_ = netlist.node_count() - 1;
  const std::size_t n = unknowns_;

  // The flat scatter list in Netlist::assemble_terminated order, with
  // ground-touching terms dropped; every slot it writes is structural.
  std::vector<bool> assembled(n * n, false);
  const auto scatter = [&](NodeId row, NodeId col, std::uint32_t table,
                           Source source, TpKind kind, bool subtract) {
    if (row == kGround || col == kGround) return;
    const std::size_t slot = (row - 1) * n + (col - 1);
    scatter_.push_back({0, static_cast<std::uint32_t>(slot), table, source,
                        kind, subtract, !assembled[slot]});
    assembled[slot] = true;
  };

  stamps_.resize(netlist.stamps_.size());
  for (std::size_t si = 0; si < stamps_.size(); ++si) {
    const Netlist::Stamp& st = netlist.stamps_[si];
    StampTable& t = stamps_[si];
    t.frequency_independent = st.frequency_independent;
    // Netlist::assemble bump order: (out_p,in_p,+) (out_p,in_n,-)
    // (out_n,in_p,-) (out_n,in_n,+).
    const auto idx = static_cast<std::uint32_t>(si);
    scatter(st.out_p, st.in_p, idx, Source::kStamp, TpKind::kY11, false);
    scatter(st.out_p, st.in_n, idx, Source::kStamp, TpKind::kY11, true);
    scatter(st.out_n, st.in_p, idx, Source::kStamp, TpKind::kY11, true);
    scatter(st.out_n, st.in_n, idx, Source::kStamp, TpKind::kY11, false);
    if (!grid_.empty()) {
      t.values.resize(t.frequency_independent ? 1 : grid_.size());
      for (std::size_t k = 0; k < t.values.size(); ++k) {
        t.values[k] = st.value(grid_[k]);
      }
    }
  }

  twoports_.resize(netlist.twoports_.size());
  for (std::size_t ti = 0; ti < twoports_.size(); ++ti) {
    const Netlist::TwoPortStamp& tp = netlist.twoports_[ti];
    TwoPortTable& t = twoports_[ti];
    // The nine bump() calls of Netlist::assemble's two-port expansion, in
    // order.
    const NodeId a = tp.t1, b = tp.t2, c = tp.common;
    const NodeId rows[9] = {a, a, a, b, b, b, c, c, c};
    const NodeId cols[9] = {a, b, c, a, b, c, a, b, c};
    for (int k = 0; k < 9; ++k) {
      scatter(rows[k], cols[k], static_cast<std::uint32_t>(ti),
              Source::kTwoPort, static_cast<TpKind>(k), false);
    }
    t.values.resize(grid_.size());
    t.kind_re.resize(9 * grid_.size());
    t.kind_im.resize(9 * grid_.size());
    const TwoPortView v = twoport_view(ti);
    for (std::size_t fi = 0; fi < grid_.size(); ++fi) {
      v.set(fi, tp.y(grid_[fi]));
    }
  }

  for (std::size_t pi = 0; pi < ports_.size(); ++pi) {
    scatter(ports_[pi].node, ports_[pi].node, static_cast<std::uint32_t>(pi),
            Source::kPort, TpKind::kY11, false);
  }
  compile_program(assembled);

  noise_.resize(netlist.noise_groups_.size());
  for (std::size_t gi = 0; gi < noise_.size(); ++gi) {
    const NoiseGroup& g = netlist.noise_groups_[gi];
    NoiseTable& t = noise_[gi];
    t.injections = g.injections;
    t.order = g.injections.size();
    const std::size_t k = t.order;
    t.csd.resize(grid_.size() * k * k);
    for (std::size_t fi = 0; fi < grid_.size(); ++fi) {
      const numeric::ComplexMatrix m = g.csd(grid_[fi]);
      if (m.rows() != k || m.cols() != k) {
        throw std::invalid_argument("noise_analysis: CSD size mismatch in '" +
                                    g.label + "'");
      }
      for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
          t.csd[fi * k * k + r * k + c] = m(r, c);
        }
      }
    }
  }

  max_injections_ = 1;
  for (const NoiseTable& g : noise_) {
    max_injections_ = std::max(max_injections_, g.injections.size());
  }
}

void BatchedPlan::compile_program(const std::vector<bool>& assembled) {
  const std::size_t n = unknowns_;
  // Symbolic elimination in diagonal order: step k fills (i, j) wherever
  // (i, k) and (k, j) are filled below and right of the pivot.  Every
  // diagonal position is in the store: one that is structurally zero is a
  // fill position no update reaches, so its pivot stays 0 and fails the
  // health check in every lane, which sends every lane to the dense path.
  std::vector<bool> filled = assembled;
  for (std::size_t k = 0; k < n; ++k) filled[k * n + k] = true;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!filled[i * n + k]) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        if (filled[k * n + j]) filled[i * n + j] = true;
      }
    }
  }
  std::vector<std::uint32_t> pos(n * n, 0);
  positions_ = 0;
  for (std::size_t s = 0; s < n * n; ++s) {
    if (filled[s]) pos[s] = static_cast<std::uint32_t>(positions_++);
  }
  diag_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) diag_[k] = pos[k * n + k];

  // Line i of a row list is row i (entries ordered by column); of a column
  // list, column i (ordered by row).  `keep` selects the entries.
  const auto build = [&](LineLists& lists, const std::vector<bool>& pattern,
                         bool by_row, auto keep) {
    lists = {};
    lists.pos.reserve(positions_);
    lists.index.reserve(positions_);
    lists.start.reserve(n + 1);
    lists.start.push_back(0);
    for (std::size_t line = 0; line < n; ++line) {
      for (std::size_t other = 0; other < n; ++other) {
        const std::size_t r = by_row ? line : other;
        const std::size_t c = by_row ? other : line;
        if (pattern[r * n + c] && keep(r, c)) {
          lists.pos.push_back(pos[r * n + c]);
          lists.index.push_back(static_cast<std::uint32_t>(other));
        }
      }
      lists.start.push_back(static_cast<std::uint32_t>(lists.pos.size()));
    }
  };
  const auto lower = [](std::size_t r, std::size_t c) { return r > c; };
  const auto upper = [](std::size_t r, std::size_t c) { return r < c; };
  build(lower_rows_, filled, true, lower);
  build(upper_rows_, filled, true, upper);
  build(lower_cols_, filled, false, lower);
  build(upper_cols_, filled, false, upper);
  build(assembled_cols_, assembled, false,
        [](std::size_t, std::size_t) { return true; });

  std::size_t update_count = 0;
  for (std::size_t k = 0; k < n; ++k) {
    update_count += std::size_t{lower_cols_.start[k + 1] - lower_cols_.start[k]} *
                    (upper_rows_.start[k + 1] - upper_rows_.start[k]);
  }
  updates_.clear();
  updates_.reserve(update_count);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::uint32_t e = lower_cols_.start[k]; e < lower_cols_.start[k + 1];
         ++e) {
      const std::size_t i = lower_cols_.index[e];
      for (std::uint32_t u = upper_rows_.start[k];
           u < upper_rows_.start[k + 1]; ++u) {
        updates_.push_back(pos[i * n + upper_rows_.index[u]]);
      }
    }
  }
  fill_.clear();
  fill_.reserve(positions_);
  for (std::size_t s = 0; s < n * n; ++s) {
    if (filled[s] && !assembled[s]) fill_.push_back(pos[s]);
  }
  for (Scatter& sc : scatter_) sc.pos = pos[sc.slot];
}

BatchedPlan::StampView BatchedPlan::stamp_view(std::size_t stamp_index) {
  StampTable& t = stamps_.at(stamp_index);
  return {t.values.data(), t.values.size()};
}

BatchedPlan::TwoPortView BatchedPlan::twoport_view(std::size_t twoport_index) {
  TwoPortTable& t = twoports_.at(twoport_index);
  return {t.values.data(), t.values.size(), t.kind_re.data(),
          t.kind_im.data()};
}

BatchedPlan::NoiseView BatchedPlan::noise_view(std::size_t group_index) {
  NoiseTable& t = noise_.at(group_index);
  return {t.csd.data(), t.order, grid_.size()};
}

// ---------------------------------------------------------------------------
// Workspace binding

void BatchedPlan::bind(EvalWorkspace& ws, std::size_t f_begin,
                       std::size_t f_end) const {
  if (f_begin >= f_end || f_end > grid_.size()) {
    throw std::out_of_range("BatchedPlan: lane range out of range");
  }
  const std::size_t n = unknowns_;
  const std::size_t lanes = f_end - f_begin;
  const bool same_shape = ws.plan_ == this && ws.bound_unknowns_ == n &&
                          ws.bound_positions_ == positions_ &&
                          ws.lanes_ == lanes &&
                          ws.bound_max_inj_ == max_injections_;
  const bool same_range = same_shape && ws.f_begin_ == f_begin;
  if (!same_range) {
    // Re-carve.  The arena only touches the heap when the required
    // footprint exceeds what previous bindings committed.
    const std::size_t cap_before = ws.arena_.capacity();
    numeric::Arena& a = ws.arena_;
    a.reset();
    ws.v_re_ = a.alloc_array<double>(positions_ * lanes);
    ws.v_im_ = a.alloc_array<double>(positions_ * lanes);
    ws.dinv_re_ = a.alloc_array<double>(n * lanes);
    ws.dinv_im_ = a.alloc_array<double>(n * lanes);
    ws.colmax_ = a.alloc_array<double>(n * lanes);
    ws.dense_ = a.alloc_array<double>(lanes);
    ws.sol_re_ = a.alloc_array<double>(2 * n * lanes);
    ws.sol_im_ = a.alloc_array<double>(2 * n * lanes);
    ws.w_re_ = a.alloc_array<double>(n * lanes);
    ws.w_im_ = a.alloc_array<double>(n * lanes);
    ws.h_ = a.alloc_array<Complex>(max_injections_);
    ws.nh_re_ = a.alloc_array<double>(max_injections_ * lanes);
    ws.nh_im_ = a.alloc_array<double>(max_injections_ * lanes);
    ws.nacc_ = a.alloc_array<double>(lanes);
    ws.npsd_ = a.alloc_array<double>(lanes);
    ws.plan_ = this;
    ws.bound_unknowns_ = n;
    ws.bound_positions_ = positions_;
    ws.bound_max_inj_ = max_injections_;
    ws.lanes_ = lanes;
    ws.f_begin_ = f_begin;
    ws.f_end_ = f_end;
    ws.factored_ = false;
    if (ws.arena_.capacity() == cap_before) {
      GNSSLNA_OBS_COUNT("circuit.batch.workspace_reuses");
    }
    if (ws.arena_.high_water() > ws.reported_hwm_) {
      GNSSLNA_OBS_COUNT_N("circuit.batch.arena_bytes_hwm",
                          ws.arena_.high_water() - ws.reported_hwm_);
      ws.reported_hwm_ = ws.arena_.high_water();
    }
  } else {
    GNSSLNA_OBS_COUNT("circuit.batch.workspace_reuses");
  }
}

// ---------------------------------------------------------------------------
// Assembly

GNSSLNA_BATCHED_CLONES
void BatchedPlan::assemble(EvalWorkspace& ws) const {
  const std::size_t L = ws.lanes_;
  const std::size_t fb = ws.f_begin_;
  const std::size_t G = grid_.size();
  double* const vre = ws.v_re_;
  double* const vim = ws.v_im_;

  // Fill-in positions start at zero; assembled ones are zeroed on their
  // first write, which replays the zero-initialized accumulator of
  // Netlist::assemble.
  for (const std::uint32_t p : fill_) {
    std::fill_n(vre + std::size_t{p} * L, L, 0.0);
    std::fill_n(vim + std::size_t{p} * L, L, 0.0);
  }
  for (const Scatter& sc : scatter_) {
    double* const re = vre + std::size_t{sc.pos} * L;
    double* const im = vim + std::size_t{sc.pos} * L;
    if (sc.first) {
      std::fill_n(re, L, 0.0);
      std::fill_n(im, L, 0.0);
    }
    switch (sc.source) {
      case Source::kStamp: {
        const StampTable& t = stamps_[sc.table];
        if (t.frequency_independent) {
          const double vr = t.values[0].real();
          const double vi = t.values[0].imag();
          if (!sc.subtract) {
            for (std::size_t l = 0; l < L; ++l) {
              re[l] += vr;
              im[l] += vi;
            }
          } else {
            for (std::size_t l = 0; l < L; ++l) {
              re[l] -= vr;
              im[l] -= vi;
            }
          }
        } else {
          const Complex* const v = t.values.data() + fb;
          if (!sc.subtract) {
            for (std::size_t l = 0; l < L; ++l) {
              re[l] += v[l].real();
              im[l] += v[l].imag();
            }
          } else {
            for (std::size_t l = 0; l < L; ++l) {
              re[l] -= v[l].real();
              im[l] -= v[l].imag();
            }
          }
        }
        break;
      }
      case Source::kTwoPort: {
        // The expanded kind rows already hold exactly the complex value
        // Netlist::assemble forms for this term (see TwoPortView::set), so
        // the lane loop is a contiguous add just like the stamp path.
        const TwoPortTable& t = twoports_[sc.table];
        const std::size_t kk = static_cast<std::size_t>(sc.kind);
        const double* const vr = t.kind_re.data() + kk * G + fb;
        const double* const vi = t.kind_im.data() + kk * G + fb;
        for (std::size_t l = 0; l < L; ++l) {
          re[l] += vr[l];
          im[l] += vi[l];
        }
        break;
      }
      case Source::kPort: {
        const double g = 1.0 / ports_[sc.table].z0;
        for (std::size_t l = 0; l < L; ++l) {
          re[l] += g;
          im[l] += 0.0;
        }
        break;
      }
    }
  }

  // Column maxima of the assembled one-norms, for the health check.  A NaN
  // entry makes its column's maximum NaN, which fails every comparison.
  for (std::size_t j = 0; j < unknowns_; ++j) {
    double* const cm = ws.colmax_ + j * L;
    std::fill_n(cm, L, 0.0);
    for (std::uint32_t e = assembled_cols_.start[j];
         e < assembled_cols_.start[j + 1]; ++e) {
      const double* const re = vre + std::size_t{assembled_cols_.pos[e]} * L;
      const double* const im = vim + std::size_t{assembled_cols_.pos[e]} * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double m = std::abs(re[l]) + std::abs(im[l]);
        cm[l] = (m > cm[l] || std::isnan(m)) ? m : cm[l];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Static-order LU program with per-lane health check

namespace {

// Health-check thresholds (DESIGN.md, "Batched evaluation core"): a lane
// passes when every pivot's one-norm exceeds kPivotRatio times the maximum
// one-norm of its assembled column and no U entry's one-norm exceeds
// kGrowthBound times that of its column.
constexpr double kPivotRatio = 1e-3;
constexpr double kGrowthBound = 1e3;

// One line of a LineLists, as raw pointers for the kernels.
struct Lines {
  const std::uint32_t* pos;
  const std::uint32_t* index;
  const std::uint32_t* start;
};

template <typename LineLists>
Lines lines(const LineLists& l) {
  return {l.pos.data(), l.index.data(), l.start.data()};
}

// The two complex lane operations every kernel below is built from, over
// L lanes (LF = compile-time count, 0 = runtime L_rt).  Their operands are
// always distinct positions of the store and solution vectors, which
// __restrict tells the vectorizer (no runtime overlap check per call).

/// t -= a * b.
template <std::size_t LF>
inline __attribute__((always_inline)) void sub_mul_lanes(
    const std::size_t L_rt, double* __restrict tr, double* __restrict ti,
    const double* __restrict ar, const double* __restrict ai,
    const double* __restrict br, const double* __restrict bi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  for (std::size_t l = 0; l < L; ++l) {
    tr[l] -= ar[l] * br[l] - ai[l] * bi[l];
    ti[l] -= ar[l] * bi[l] + ai[l] * br[l];
  }
}

/// x *= p in place.
template <std::size_t LF>
inline __attribute__((always_inline)) void mul_lanes(
    const std::size_t L_rt, double* __restrict xr, double* __restrict xi,
    const double* __restrict pr, const double* __restrict pi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  for (std::size_t l = 0; l < L; ++l) {
    const double a = xr[l];
    const double b = xi[l];
    xr[l] = a * pr[l] - b * pi[l];
    xi[l] = a * pi[l] + b * pr[l];
  }
}

// LF is a compile-time lane count (0 = use the runtime count).  The band
// evaluator always binds 16-lane workspaces, and a constant trip count
// turns every inner lane loop into straight-line vector code with no
// remainder handling.  The bodies are force-inlined into the cloned
// wrappers below, so each ISA clone compiles them at its own vector
// width; every instantiation performs the identical arithmetic in the
// identical order, so the specialization is invisible in the results.
//
// Step k: check pivot (k, k) and U row k (final once steps < k have run),
// store the pivot reciprocal, scale L column k and apply the rank-1 update
// of each L entry with U row k at the targets the plan listed.  `dense`
// gets 1 in every lane that fails a check; NaN fails every comparison.
template <std::size_t LF>
inline __attribute__((always_inline)) void factor_lanes_body(
    const std::size_t n, const std::size_t L_rt,
    const std::uint32_t* const diag, const Lines lcols, const Lines urows,
    const std::uint32_t* target, double* const vr, double* const vi,
    double* const dr, double* const di, const double* const cm,
    double* const dense) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  for (std::size_t k = 0; k < n; ++k) {
    const double* const zr = vr + std::size_t{diag[k]} * L;
    const double* const zi = vi + std::size_t{diag[k]} * L;
    const double* const ck = cm + k * L;
    double* const pr = dr + k * L;
    double* const pi = di + k * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double m = std::abs(zr[l]) + std::abs(zi[l]);
      const bool ok = m > kPivotRatio * ck[l] && m <= kGrowthBound * ck[l];
      dense[l] = ok ? dense[l] : 1.0;
      const double d = zr[l] * zr[l] + zi[l] * zi[l];
      const double s = 1.0 / d;
      pr[l] = zr[l] * s;
      pi[l] = -zi[l] * s;
    }
    const std::uint32_t u0 = urows.start[k], u1 = urows.start[k + 1];
    for (std::uint32_t u = u0; u < u1; ++u) {
      const double* const ur = vr + std::size_t{urows.pos[u]} * L;
      const double* const ui = vi + std::size_t{urows.pos[u]} * L;
      const double* const cj = cm + std::size_t{urows.index[u]} * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double m = std::abs(ur[l]) + std::abs(ui[l]);
        dense[l] = m <= kGrowthBound * cj[l] ? dense[l] : 1.0;
      }
    }
    for (std::uint32_t e = lcols.start[k]; e < lcols.start[k + 1]; ++e) {
      double* const lr = vr + std::size_t{lcols.pos[e]} * L;
      double* const li = vi + std::size_t{lcols.pos[e]} * L;
      mul_lanes<LF>(L, lr, li, pr, pi);
      for (std::uint32_t u = u0; u < u1; ++u, ++target) {
        const std::size_t t = std::size_t{*target} * L;
        const std::size_t p = std::size_t{urows.pos[u]} * L;
        sub_mul_lanes<LF>(L, vr + t, vi + t, lr, li, vr + p, vi + p);
      }
    }
  }
}

GNSSLNA_BATCHED_CLONES
void factor_lanes_kernel(const std::size_t n, const std::size_t L,
                         const std::uint32_t* const diag, const Lines lcols,
                         const Lines urows, const std::uint32_t* const updates,
                         double* const vr, double* const vi, double* const dr,
                         double* const di, const double* const cm,
                         double* const dense) {
  if (L == 16) {
    factor_lanes_body<16>(n, L, diag, lcols, urows, updates, vr, vi, dr, di,
                          cm, dense);
  } else {
    factor_lanes_body<0>(n, L, diag, lcols, urows, updates, vr, vi, dr, di,
                         cm, dense);
  }
}

}  // namespace

void BatchedPlan::dense_factor(EvalWorkspace& ws, std::size_t lane) const {
  if (ws.lu_lane_ == lane) return;
  // Netlist::assemble_terminated's additions, in its order, from the
  // tables: the oracle's matrix bit for bit, factored by the oracle's LU.
  const std::size_t n = unknowns_;
  const std::size_t G = grid_.size();
  const std::size_t fi = ws.f_begin_ + lane;
  numeric::ComplexMatrix& a = ws.dense_a_;
  if (a.rows() != n) {
    a = numeric::ComplexMatrix(n, n);
  } else {
    a.fill();
  }
  for (const Scatter& sc : scatter_) {
    Complex& y = a(sc.slot / n, sc.slot % n);
    switch (sc.source) {
      case Source::kStamp: {
        const StampTable& t = stamps_[sc.table];
        const Complex v = t.values[t.frequency_independent ? 0 : fi];
        if (sc.subtract) {
          y -= v;
        } else {
          y += v;
        }
        break;
      }
      case Source::kTwoPort: {
        const TwoPortTable& t = twoports_[sc.table];
        const std::size_t at = static_cast<std::size_t>(sc.kind) * G + fi;
        y += Complex{t.kind_re[at], t.kind_im[at]};
        break;
      }
      case Source::kPort:
        y += Complex{1.0 / ports_[sc.table].z0, 0.0};
        break;
    }
  }
  ws.lu_lane_ = kNoLane;
  ws.lu_.refactor(a);
  ws.lu_lane_ = lane;
}

void BatchedPlan::factor(EvalWorkspace& ws, std::size_t f_begin,
                         std::size_t f_end) const {
  bind(ws, f_begin, f_end);
  if (ws.factored_ && ws.seen_revision_ == revision_) {
    return;
  }
  ws.factored_ = false;
  ws.lu_lane_ = kNoLane;
  const std::size_t L = ws.lanes_;
  std::fill_n(ws.dense_, L, 0.0);
  assemble(ws);
  factor_lanes_kernel(unknowns_, L, diag_.data(), lines(lower_cols_),
                      lines(upper_rows_), updates_.data(), ws.v_re_, ws.v_im_,
                      ws.dinv_re_, ws.dinv_im_, ws.colmax_, ws.dense_);
  std::size_t repivots = 0;
  for (std::size_t l = 0; l < L; ++l) {
    if (ws.dense_[l] == 0.0) continue;
    dense_factor(ws, l);  // throws std::domain_error if singular
    ++repivots;
  }
  if (repivots != 0) GNSSLNA_OBS_COUNT_N("circuit.batch.repivots", repivots);
  ws.factored_ = true;
  ws.seen_revision_ = revision_;
  ws.have_ports_ = false;
  ws.have_w_ = false;
}

// ---------------------------------------------------------------------------
// Batched substitutions through the static factors (no permutation)

namespace {

// Forward and back substitution for the two port right-hand sides
// v0 * e_src0 and v1 * e_src1 (laid out [rhs * n + row], substituted in
// place), over one block of at most kBlock lanes whose pointers are offset
// to its first lane (the stride between rows stays L).  The row being
// reduced is accumulated in block-sized locals (registers once the lane
// loops unroll) instead of being re-loaded and re-stored through x on
// every term: the compiler cannot prove x[i] and x[j] never alias, the
// locals make it structural.  A side's forward pass leaves every row above
// its source zero, so it starts below its source: rows between the two
// sources carry the earlier side alone, later rows both, each factor row
// streamed from cache once for both.  LF pins the stride and block width
// at compile time for the band evaluator's 16-lane grid (0 = runtime L
// and W); every instantiation performs the same per-lane operations in the
// same order.
constexpr std::size_t kBlock = 16;

template <std::size_t LF>
inline __attribute__((always_inline)) void substitute_ports_block(
    const std::size_t n, const std::size_t L_rt, const std::size_t W_rt,
    const Lines lrows, const Lines urows, std::size_t src0,
    std::size_t src1, const double v0, const double v1,
    const double* const vr, const double* const vi, const double* const dr,
    const double* const di, double* xr0, double* xi0, double* xr1,
    double* xi1) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  const std::size_t W = LF != 0 ? LF : W_rt;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      xr0[i * L + l] = i == src0 ? v0 : 0.0;
      xi0[i * L + l] = 0.0;
      xr1[i * L + l] = i == src1 ? v1 : 0.0;
      xi1[i * L + l] = 0.0;
    }
  }
  if (src1 < src0) {  // side 0 is the one whose forward pass starts first
    std::swap(src0, src1);
    std::swap(xr0, xr1);
    std::swap(xi0, xi1);
  }
  double ar0[kBlock], ai0[kBlock], ar1[kBlock], ai1[kBlock];
  // Forward substitution with unit-lower L.
  for (std::size_t i = src0 + 1; i < n; ++i) {
    const bool both = i > src1;
    for (std::size_t l = 0; l < W; ++l) {
      ar0[l] = xr0[i * L + l];
      ai0[l] = xi0[i * L + l];
    }
    if (both) {
      for (std::size_t l = 0; l < W; ++l) {
        ar1[l] = xr1[i * L + l];
        ai1[l] = xi1[i * L + l];
      }
    }
    for (std::uint32_t e = lrows.start[i]; e < lrows.start[i + 1]; ++e) {
      const std::size_t p = std::size_t{lrows.pos[e]} * L;
      const std::size_t j = std::size_t{lrows.index[e]} * L;
      sub_mul_lanes<LF>(W, ar0, ai0, vr + p, vi + p, xr0 + j, xi0 + j);
      if (both) {
        sub_mul_lanes<LF>(W, ar1, ai1, vr + p, vi + p, xr1 + j, xi1 + j);
      }
    }
    for (std::size_t l = 0; l < W; ++l) {
      xr0[i * L + l] = ar0[l];
      xi0[i * L + l] = ai0[l];
    }
    if (both) {
      for (std::size_t l = 0; l < W; ++l) {
        xr1[i * L + l] = ar1[l];
        xi1[i * L + l] = ai1[l];
      }
    }
  }
  // Back substitution with U; the reciprocal-diagonal multiply is applied
  // to the accumulators before the single store.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t l = 0; l < W; ++l) {
      ar0[l] = xr0[ii * L + l];
      ai0[l] = xi0[ii * L + l];
      ar1[l] = xr1[ii * L + l];
      ai1[l] = xi1[ii * L + l];
    }
    for (std::uint32_t e = urows.start[ii]; e < urows.start[ii + 1]; ++e) {
      const std::size_t p = std::size_t{urows.pos[e]} * L;
      const std::size_t j = std::size_t{urows.index[e]} * L;
      sub_mul_lanes<LF>(W, ar0, ai0, vr + p, vi + p, xr0 + j, xi0 + j);
      sub_mul_lanes<LF>(W, ar1, ai1, vr + p, vi + p, xr1 + j, xi1 + j);
    }
    const double* const pr = dr + ii * L;
    const double* const pi = di + ii * L;
    for (std::size_t l = 0; l < W; ++l) {
      xr0[ii * L + l] = ar0[l] * pr[l] - ai0[l] * pi[l];
      xi0[ii * L + l] = ar0[l] * pi[l] + ai0[l] * pr[l];
    }
    for (std::size_t l = 0; l < W; ++l) {
      xr1[ii * L + l] = ar1[l] * pr[l] - ai1[l] * pi[l];
      xi1[ii * L + l] = ar1[l] * pi[l] + ai1[l] * pr[l];
    }
  }
}

GNSSLNA_BATCHED_CLONES
void substitute_ports_kernel(const std::size_t n, const std::size_t L,
                             const Lines lrows, const Lines urows,
                             const std::size_t src0, const std::size_t src1,
                             const double v0, const double v1,
                             const double* const vr, const double* const vi,
                             const double* const dr, const double* const di,
                             double* const xr0, double* const xi0,
                             double* const xr1, double* const xi1) {
  if (L == kBlock) {
    substitute_ports_block<kBlock>(n, L, L, lrows, urows, src0, src1, v0, v1,
                                   vr, vi, dr, di, xr0, xi0, xr1, xi1);
    return;
  }
  for (std::size_t b = 0; b < L; b += kBlock) {
    substitute_ports_block<0>(n, L, std::min(kBlock, L - b), lrows, urows,
                              src0, src1, v0, v1, vr + b, vi + b, dr + b,
                              di + b, xr0 + b, xi0 + b, xr1 + b, xi1 + b);
  }
}

// Transposed substitution for e_out, in place: U^T forward with the
// reciprocals, then unit L^T back, over SL lanes of stride L whose
// pointers are offset to the first solved lane.  U^T's forward pass leaves
// every row above out_row zero, so it starts there.  LF/SLF pin the stride
// and width at compile time for the band evaluator's shapes (the full
// 16-lane range and the 7-lane in-band slice).  Block-sized accumulators,
// as in the port solve, measured slower here.
template <std::size_t LF, std::size_t SLF>
inline __attribute__((always_inline)) void transpose_substitute_body(
    const std::size_t n, const std::size_t L_rt, const std::size_t SL_rt,
    const std::size_t out_row, const Lines ucols, const Lines lcols,
    const double* const vr, const double* const vi, const double* const dr,
    const double* const di, double* const wr, double* const wi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  const std::size_t SL = SLF != 0 ? SLF : SL_rt;
  for (std::size_t i = 0; i < n; ++i) {
    double* const tr = wr + i * L;
    double* const ti = wi + i * L;
    const double b0 = i == out_row ? 1.0 : 0.0;
    for (std::size_t l = 0; l < SL; ++l) {
      tr[l] = b0;
      ti[l] = 0.0;
    }
    if (i < out_row) continue;
    for (std::uint32_t e = ucols.start[i]; e < ucols.start[i + 1]; ++e) {
      const std::size_t p = std::size_t{ucols.pos[e]} * L;
      const std::size_t j = std::size_t{ucols.index[e]} * L;
      sub_mul_lanes<SLF>(SL, tr, ti, vr + p, vi + p, wr + j, wi + j);
    }
    mul_lanes<SLF>(SL, tr, ti, dr + i * L, di + i * L);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::uint32_t e = lcols.start[ii]; e < lcols.start[ii + 1]; ++e) {
      const std::size_t p = std::size_t{lcols.pos[e]} * L;
      const std::size_t j = std::size_t{lcols.index[e]} * L;
      sub_mul_lanes<SLF>(SL, wr + ii * L, wi + ii * L, vr + p, vi + p,
                         wr + j, wi + j);
    }
  }
}

GNSSLNA_BATCHED_CLONES
void transpose_substitute_kernel(const std::size_t n, const std::size_t L,
                                 const std::size_t SL,
                                 const std::size_t out_row, const Lines ucols,
                                 const Lines lcols, const double* const vr,
                                 const double* const vi,
                                 const double* const dr,
                                 const double* const di, double* const wr,
                                 double* const wi) {
  if (L == 16 && SL == 16) {
    transpose_substitute_body<16, 16>(n, L, SL, out_row, ucols, lcols, vr, vi,
                                      dr, di, wr, wi);
  } else if (L == 16 && SL == 7) {
    transpose_substitute_body<16, 7>(n, L, SL, out_row, ucols, lcols, vr, vi,
                                     dr, di, wr, wi);
  } else {
    transpose_substitute_body<0, 0>(n, L, SL, out_row, ucols, lcols, vr, vi,
                                    dr, di, wr, wi);
  }
}

}  // namespace

void BatchedPlan::solve_ports(EvalWorkspace& ws) const {
  if (ports_.size() != 2) {
    throw std::invalid_argument("s_params: netlist must have exactly 2 ports");
  }
  if (ports_[0].z0 != ports_[1].z0) {
    throw std::invalid_argument("s_params: ports must share one z0");
  }
  if (ws.plan_ != this || !ws.factored_ || ws.seen_revision_ != revision_) {
    throw std::logic_error("BatchedPlan::solve_ports: workspace not factored");
  }
  const std::size_t n = unknowns_;
  const std::size_t L = ws.lanes_;
  const std::size_t src[2] = {ports_[0].node - 1, ports_[1].node - 1};
  const double v[2] = {2.0 / std::sqrt(ports_[0].z0),
                       2.0 / std::sqrt(ports_[1].z0)};

  GNSSLNA_OBS_SPAN("circuit.batch.solve");
  GNSSLNA_OBS_COUNT_N("circuit.batch.solves", 2 * L);
  substitute_ports_kernel(n, L, lines(lower_rows_), lines(upper_rows_), src[0],
                          src[1], v[0], v[1], ws.v_re_, ws.v_im_, ws.dinv_re_,
                          ws.dinv_im_, ws.sol_re_, ws.sol_im_,
                          ws.sol_re_ + n * L, ws.sol_im_ + n * L);
  // Dense-path lanes: the oracle's solve_into for each port excitation.
  for (std::size_t l = 0; l < L; ++l) {
    if (ws.dense_[l] == 0.0) continue;
    dense_factor(ws, l);
    for (std::size_t side = 0; side < 2; ++side) {
      ws.rhs_.assign(n, Complex{0.0, 0.0});
      ws.rhs_[src[side]] = Complex{v[side], 0.0};
      ws.lu_.solve_into(ws.rhs_, ws.x_);
      for (std::size_t i = 0; i < n; ++i) {
        ws.sol_re_[(side * n + i) * L + l] = ws.x_[i].real();
        ws.sol_im_[(side * n + i) * L + l] = ws.x_[i].imag();
      }
    }
  }
  ws.have_ports_ = true;
}

void BatchedPlan::solve_output_transfer(EvalWorkspace& ws,
                                        std::size_t output_port,
                                        std::size_t f_begin,
                                        std::size_t f_end) const {
  if (ports_.size() < 2) {
    throw std::invalid_argument("noise_analysis: not enough ports");
  }
  if (output_port >= ports_.size()) {
    throw std::invalid_argument("noise_analysis: bad port indices");
  }
  if (ws.plan_ != this || !ws.factored_ || ws.seen_revision_ != revision_) {
    throw std::logic_error(
        "BatchedPlan::solve_output_transfer: workspace not factored");
  }
  if (f_begin == kWholeRange) f_begin = ws.f_begin_;
  if (f_end == kWholeRange) f_end = ws.f_end_;
  if (f_begin < ws.f_begin_ || f_end > ws.f_end_ || f_begin >= f_end) {
    throw std::out_of_range(
        "BatchedPlan::solve_output_transfer: lane range out of range");
  }
  const std::size_t n = unknowns_;
  const std::size_t L = ws.lanes_;
  const std::size_t s0 = f_begin - ws.f_begin_;  // lane sub-slice, relative
  const std::size_t SL = f_end - f_begin;
  const std::size_t out_row = ports_[output_port].node - 1;

  GNSSLNA_OBS_COUNT_N("circuit.batch.solves", SL);
  transpose_substitute_kernel(n, L, SL, out_row, lines(upper_cols_),
                              lines(lower_cols_), ws.v_re_ + s0, ws.v_im_ + s0,
                              ws.dinv_re_ + s0, ws.dinv_im_ + s0,
                              ws.w_re_ + s0, ws.w_im_ + s0);
  // Dense-path lanes: the oracle's solve_transposed_into with e_out.
  for (std::size_t l = s0; l < s0 + SL; ++l) {
    if (ws.dense_[l] == 0.0) continue;
    dense_factor(ws, l);
    ws.rhs_.assign(n, Complex{0.0, 0.0});
    ws.rhs_[out_row] = Complex{1.0, 0.0};
    ws.lu_.solve_transposed_into(ws.rhs_, ws.x_, ws.work_);
    for (std::size_t i = 0; i < n; ++i) {
      ws.w_re_[i * L + l] = ws.x_[i].real();
      ws.w_im_[i * L + l] = ws.x_[i].imag();
    }
  }
  ws.have_w_ = true;
  ws.w_port_ = output_port;
  ws.w_begin_ = f_begin;
  ws.w_end_ = f_end;
}

// ---------------------------------------------------------------------------
// Per-frequency result extraction (scalar std::complex arithmetic, exactly
// as circuit::s_matrix / noise_analysis compute it from their solutions)

rf::SParams BatchedPlan::s_params_at(const EvalWorkspace& ws,
                                     std::size_t fi) const {
  if (ws.plan_ != this || !ws.have_ports_ ||
      ws.seen_revision_ != revision_ || fi < ws.f_begin_ ||
      fi >= ws.f_end_) {
    throw std::logic_error("BatchedPlan::s_params_at: lane not solved");
  }
  const std::size_t n = unknowns_;
  const std::size_t L = ws.lanes_;
  const std::size_t l = fi - ws.f_begin_;
  const double sqrt_z0[2] = {std::sqrt(ports_[0].z0), std::sqrt(ports_[1].z0)};
  Complex sm[2][2];
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < 2; ++i) {
      const std::size_t row = ports_[i].node - 1;
      const Complex sol{ws.sol_re_[(j * n + row) * L + l],
                        ws.sol_im_[(j * n + row) * L + l]};
      sm[i][j] = sol / sqrt_z0[i] -
                 (i == j ? Complex{1.0, 0.0} : Complex{0.0, 0.0});
    }
  }
  rf::SParams out;
  out.frequency_hz = grid_[fi];
  out.z0 = ports_[0].z0;
  out.s11 = sm[0][0];
  out.s12 = sm[0][1];
  out.s21 = sm[1][0];
  out.s22 = sm[1][1];
  return out;
}

NoiseResult BatchedPlan::noise_at(const EvalWorkspace& ws, std::size_t fi,
                                  std::size_t input_port,
                                  std::size_t output_port,
                                  double t_source_k) const {
  if (ports_.size() < 2) {
    throw std::invalid_argument("noise_analysis: not enough ports");
  }
  if (input_port >= ports_.size() || output_port >= ports_.size() ||
      input_port == output_port) {
    throw std::invalid_argument("noise_analysis: bad port indices");
  }
  if (ws.plan_ != this || !ws.have_w_ || ws.w_port_ != output_port ||
      ws.seen_revision_ != revision_ || fi < ws.w_begin_ ||
      fi >= ws.w_end_) {
    throw std::logic_error("BatchedPlan::noise_at: lane not solved");
  }
  const std::size_t L = ws.lanes_;
  const std::size_t l = fi - ws.f_begin_;
  const Port& in = ports_[input_port];
  const Complex y_source{1.0 / in.z0, 0.0};

  const auto transfer = [&](NodeId from, NodeId to) -> Complex {
    const Complex vf = from == kGround
                           ? Complex{0.0, 0.0}
                           : Complex{ws.w_re_[(from - 1) * L + l],
                                     ws.w_im_[(from - 1) * L + l]};
    const Complex vt = to == kGround
                           ? Complex{0.0, 0.0}
                           : Complex{ws.w_re_[(to - 1) * L + l],
                                     ws.w_im_[(to - 1) * L + l]};
    return vf - vt;
  };

  double psd_network = 0.0;
  for (const NoiseTable& group : noise_) {
    const std::size_t k = group.order;
    const Complex* const csd = group.csd.data() + fi * k * k;
    for (std::size_t j = 0; j < k; ++j) {
      ws.h_[j] =
          transfer(group.injections[j].first, group.injections[j].second);
    }
    Complex acc{0.0, 0.0};
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        acc += ws.h_[i] * csd[i * k + j] * std::conj(ws.h_[j]);
      }
    }
    psd_network += acc.real();
  }

  const Complex h_src = transfer(in.node, kGround);
  const double psd_source = 4.0 * rf::kBoltzmann * t_source_k *
                            std::max(y_source.real(), 0.0) *
                            std::norm(h_src);
  if (psd_source <= 0.0) {
    throw std::domain_error(
        "noise_analysis: source noise does not reach the output (no signal "
        "path, or a lossless source?)");
  }

  NoiseResult r;
  r.source_noise_psd = psd_source;
  r.output_noise_psd = psd_source + psd_network;
  r.noise_factor = r.output_noise_psd / r.source_noise_psd;
  r.noise_figure_db = rf::db_from_ratio(r.noise_factor);
  return r;
}

void BatchedPlan::noise_sweep(const EvalWorkspace& ws, std::size_t input_port,
                              std::size_t output_port, NoiseResult* out,
                              double t_source_k) const {
  if (ports_.size() < 2) {
    throw std::invalid_argument("noise_analysis: not enough ports");
  }
  if (input_port >= ports_.size() || output_port >= ports_.size() ||
      input_port == output_port) {
    throw std::invalid_argument("noise_analysis: bad port indices");
  }
  if (ws.plan_ != this || !ws.have_w_ || ws.w_port_ != output_port ||
      ws.seen_revision_ != revision_) {
    throw std::logic_error("BatchedPlan::noise_sweep: lanes not solved");
  }
  const std::size_t L = ws.lanes_;
  const std::size_t s0 = ws.w_begin_ - ws.f_begin_;
  const std::size_t SL = ws.w_end_ - ws.w_begin_;
  const std::size_t f0 = ws.w_begin_;
  double* const hr = ws.nh_re_;
  double* const hi = ws.nh_im_;
  double* const acc = ws.nacc_;
  double* const psd = ws.npsd_;

  // Network noise: per group, the injection transfers for all lanes, then
  // the quadratic form h^H C h accumulated term by term in noise_at's
  // (i, j) order.  Within a lane every operation — including the expansion
  // of the two std::complex multiplies into naive re/im arithmetic and of
  // t * conj(h_j) into tr*hjr + ti*hji (IEEE subtraction of a negated
  // operand IS addition, bit for bit) — replays noise_at exactly.
  for (std::size_t l = 0; l < SL; ++l) psd[l] = 0.0;
  for (const NoiseTable& group : noise_) {
    const std::size_t k = group.order;
    const std::size_t kk = k * k;
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId from = group.injections[j].first;
      const NodeId to = group.injections[j].second;
      const double* const fr =
          from == kGround ? nullptr : ws.w_re_ + (from - 1) * L + s0;
      const double* const fi_ =
          from == kGround ? nullptr : ws.w_im_ + (from - 1) * L + s0;
      const double* const tr =
          to == kGround ? nullptr : ws.w_re_ + (to - 1) * L + s0;
      const double* const ti =
          to == kGround ? nullptr : ws.w_im_ + (to - 1) * L + s0;
      for (std::size_t l = 0; l < SL; ++l) {
        hr[j * SL + l] = (fr ? fr[l] : 0.0) - (tr ? tr[l] : 0.0);
        hi[j * SL + l] = (fi_ ? fi_[l] : 0.0) - (ti ? ti[l] : 0.0);
      }
    }
    for (std::size_t l = 0; l < SL; ++l) acc[l] = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const Complex* const cs = group.csd.data() + f0 * kk + i * k + j;
        const double* const air = hr + i * SL;
        const double* const aii = hi + i * SL;
        const double* const ajr = hr + j * SL;
        const double* const aji = hi + j * SL;
        for (std::size_t l = 0; l < SL; ++l) {
          const double cr = cs[l * kk].real();
          const double ci = cs[l * kk].imag();
          const double mr = air[l] * cr - aii[l] * ci;
          const double mi = air[l] * ci + aii[l] * cr;
          acc[l] += mr * ajr[l] + mi * aji[l];
        }
      }
    }
    for (std::size_t l = 0; l < SL; ++l) psd[l] += acc[l];
  }

  // Source noise and per-lane results, exactly noise_at's expressions; the
  // lane-invariant PSD prefix keeps noise_at's left-to-right association.
  const Port& in = ports_[input_port];
  const Complex y_source{1.0 / in.z0, 0.0};
  const double psd_prefix = 4.0 * rf::kBoltzmann * t_source_k *
                            std::max(y_source.real(), 0.0);
  const double* const sr = ws.w_re_ + (in.node - 1) * L + s0;
  const double* const si = ws.w_im_ + (in.node - 1) * L + s0;
  for (std::size_t l = 0; l < SL; ++l) {
    const double ar = sr[l] - 0.0;
    const double ai = si[l] - 0.0;
    const double psd_source = psd_prefix * (ar * ar + ai * ai);
    if (psd_source <= 0.0) {
      throw std::domain_error(
          "noise_analysis: source noise does not reach the output (no signal "
          "path, or a lossless source?)");
    }
    NoiseResult& r = out[l];
    r.source_noise_psd = psd_source;
    r.output_noise_psd = psd_source + psd[l];
    r.noise_factor = r.output_noise_psd / r.source_noise_psd;
    r.noise_figure_db = rf::db_from_ratio(r.noise_factor);
  }
}

}  // namespace gnsslna::circuit
