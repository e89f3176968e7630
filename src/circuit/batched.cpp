// Frequency-batched evaluation kernels.
//
// NOTE ON ARITHMETIC: this file re-implements complex multiply/divide on
// raw re/im doubles so the lane loops vectorize.  The naive forms used
// here are bit-identical to what the scalar path produces through
// std::complex (libgcc's __muldc3 fast path, and numeric::scalar_inverse)
// for the finite, non-NaN values circuit analysis produces.  This file is
// compiled with -ffp-contract=off (see src/circuit/CMakeLists.txt) so
// FMA-capable -march=native builds cannot contract a*b-c*d expressions
// into fused forms the scalar path does not use.
#include "circuit/batched.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/matrix.h"
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

BatchedPlan::BatchedPlan(const Netlist& netlist, std::vector<double> grid_hz)
    : grid_(std::move(grid_hz)) {
  for (const double f : grid_) {
    if (f <= 0.0) {
      throw std::invalid_argument("BatchedPlan: grid frequencies must be > 0");
    }
  }
  ports_ = netlist.ports();
  unknowns_ = netlist.node_count() - 1;

  stamps_.resize(netlist.stamps_.size());
  for (std::size_t si = 0; si < stamps_.size(); ++si) {
    const Netlist::Stamp& st = netlist.stamps_[si];
    StampTable& t = stamps_[si];
    t.frequency_independent = st.frequency_independent;
    // Netlist::assemble bump order: (out_p,in_p,+) (out_p,in_n,-) (out_n,in_p,-)
    // (out_n,in_n,+), ground-touching terms skipped.
    const NodeId rows[4] = {st.out_p, st.out_p, st.out_n, st.out_n};
    const NodeId cols[4] = {st.in_p, st.in_n, st.in_p, st.in_n};
    const double signs[4] = {1.0, -1.0, -1.0, 1.0};
    for (int b = 0; b < 4; ++b) {
      if (rows[b] == kGround || cols[b] == kGround) continue;
      t.bumps.push_back({static_cast<std::uint32_t>(rows[b] - 1),
                         static_cast<std::uint32_t>(cols[b] - 1), signs[b]});
    }
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
    // order, with ground-touching terms dropped at compile time.
    const NodeId a = tp.t1, b = tp.t2, c = tp.common;
    const NodeId rows[9] = {a, a, a, b, b, b, c, c, c};
    const NodeId cols[9] = {a, b, c, a, b, c, a, b, c};
    const TpKind kinds[9] = {TpKind::kY11,     TpKind::kY12,
                             TpKind::kNeg1112, TpKind::kY21,
                             TpKind::kY22,     TpKind::kNeg2122,
                             TpKind::kNeg1121, TpKind::kNeg1222,
                             TpKind::kSum};
    for (int k = 0; k < 9; ++k) {
      if (rows[k] == kGround || cols[k] == kGround) continue;
      t.terms.push_back({static_cast<std::uint32_t>(rows[k] - 1),
                         static_cast<std::uint32_t>(cols[k] - 1), kinds[k]});
    }
    t.values.resize(grid_.size());
    t.kind_re.resize(9 * grid_.size());
    t.kind_im.resize(9 * grid_.size());
    const TwoPortView v = twoport_view(ti);
    for (std::size_t fi = 0; fi < grid_.size(); ++fi) {
      v.set(fi, tp.y(grid_[fi]));
    }
  }

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
                          ws.lanes_ == lanes &&
                          ws.bound_max_inj_ == max_injections_;
  const bool same_range = same_shape && ws.f_begin_ == f_begin;
  if (!same_range) {
    // Re-carve.  The arena only touches the heap when the required
    // footprint exceeds what previous bindings committed.
    const std::size_t cap_before = ws.arena_.capacity();
    numeric::Arena& a = ws.arena_;
    a.reset();
    ws.a_re_ = a.alloc_array<double>(n * n * lanes);
    ws.a_im_ = a.alloc_array<double>(n * n * lanes);
    ws.dinv_re_ = a.alloc_array<double>(n * lanes);
    ws.dinv_im_ = a.alloc_array<double>(n * lanes);
    ws.perm_ = a.alloc_array<std::uint32_t>(n * lanes);
    ws.pivrow_ = a.alloc_array<std::uint32_t>(lanes);
    ws.pivmag_ = a.alloc_array<double>(lanes);
    ws.work_re_ = a.alloc_array<double>(n * lanes);
    ws.work_im_ = a.alloc_array<double>(n * lanes);
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
  const std::size_t n = unknowns_;
  const std::size_t L = ws.lanes_;
  const std::size_t fb = ws.f_begin_;
  const std::size_t G = grid_.size();
  double* const are = ws.a_re_;
  double* const aim = ws.a_im_;
  std::fill_n(are, n * n * L, 0.0);
  std::fill_n(aim, n * n * L, 0.0);

  for (const StampTable& t : stamps_) {
    for (const Bump& b : t.bumps) {
      double* re = are + (b.row * n + b.col) * L;
      double* im = aim + (b.row * n + b.col) * L;
      if (t.frequency_independent) {
        const double vr = t.values[0].real();
        const double vi = t.values[0].imag();
        if (b.sign > 0.0) {
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
        const Complex* v = t.values.data() + fb;
        if (b.sign > 0.0) {
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
    }
  }

  for (const TwoPortTable& t : twoports_) {
    for (const TpTerm& term : t.terms) {
      // The expanded kind rows already hold exactly the complex value
      // Netlist::assemble forms for this term (see TwoPortView::set), so
      // the lane loop is a contiguous add just like the stamp path.
      const std::size_t kk = static_cast<std::size_t>(term.kind);
      const double* const vr = t.kind_re.data() + kk * G + fb;
      const double* const vi = t.kind_im.data() + kk * G + fb;
      double* const re = are + (term.row * n + term.col) * L;
      double* const im = aim + (term.row * n + term.col) * L;
      for (std::size_t l = 0; l < L; ++l) {
        re[l] += vr[l];
        im[l] += vi[l];
      }
    }
  }

  for (const Port& p : ports_) {
    const std::size_t base = ((p.node - 1) * n + (p.node - 1)) * L;
    const double g = 1.0 / p.z0;
    for (std::size_t l = 0; l < L; ++l) {
      // Mirror `y += Complex{g, 0.0}`: the imaginary part also receives a
      // +0.0 addition (which normalizes a -0.0 accumulator, as the scalar
      // path's complex addition does).
      are[base + l] += g;
      aim[base + l] += 0.0;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked LU factorization (replays numeric::LuDecomposition per lane)

namespace {

// LF is a compile-time lane count (0 = use the runtime count).  The band
// evaluator always binds 16-lane workspaces, and a constant trip count
// turns every inner lane loop into straight-line vector code with no
// remainder handling.  The bodies are force-inlined into the cloned
// wrappers below, so each ISA clone compiles them at its own vector
// width; every instantiation performs the identical arithmetic in the
// identical order, so the specialization is invisible in the results.
template <std::size_t LF>
inline __attribute__((always_inline)) void factor_lanes_body(
    const std::size_t n, const std::size_t L_rt, double* const are,
    double* const aim, double* const dre, double* const dim,
    std::uint32_t* const perm, std::uint32_t* const piv, double* const mag) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      perm[i * L + l] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    // Per-lane partial pivoting with the shared pivot_magnitude rule.
    // Lanes usually agree on the pivot row (the sparsity pattern is
    // frequency-independent and magnitudes vary smoothly), enabling the
    // contiguous whole-vector swap below; disagreeing lanes fall back to
    // per-lane strided swaps.  Either way each lane performs exactly the
    // swaps the scalar factorization would.
    // Lane-innermost scan so the compare/select vectorizes; per lane this
    // is the identical strict-`>` running-max scan in the identical row
    // order, so each lane picks exactly the scalar kernel's pivot.
    for (std::size_t l = 0; l < L; ++l) {
      mag[l] = std::abs(are[(k * n + k) * L + l]) +
               std::abs(aim[(k * n + k) * L + l]);
      piv[l] = static_cast<std::uint32_t>(k);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double* const cr = are + (i * n + k) * L;
      const double* const ci = aim + (i * n + k) * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double m = std::abs(cr[l]) + std::abs(ci[l]);
        const bool better = m > mag[l];
        mag[l] = better ? m : mag[l];
        piv[l] = better ? static_cast<std::uint32_t>(i) : piv[l];
      }
    }
    bool uniform = true;
    for (std::size_t l = 0; l < L; ++l) {
      if (mag[l] == 0.0) {
        throw std::domain_error("LU: matrix is singular");
      }
      if (piv[l] != piv[0]) uniform = false;
    }
    if (uniform) {
      const std::uint32_t p = piv[0];
      if (p != k) {
        for (std::size_t j = 0; j < n; ++j) {
          std::swap_ranges(are + (k * n + j) * L, are + (k * n + j) * L + L,
                           are + (p * n + j) * L);
          std::swap_ranges(aim + (k * n + j) * L, aim + (k * n + j) * L + L,
                           aim + (p * n + j) * L);
        }
        for (std::size_t l = 0; l < L; ++l) {
          std::swap(perm[k * L + l], perm[p * L + l]);
        }
      }
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint32_t p = piv[l];
        if (p == k) continue;
        for (std::size_t j = 0; j < n; ++j) {
          std::swap(are[(k * n + j) * L + l], are[(p * n + j) * L + l]);
          std::swap(aim[(k * n + j) * L + l], aim[(p * n + j) * L + l]);
        }
        std::swap(perm[k * L + l], perm[p * L + l]);
      }
    }

    // Stored pivot reciprocal (numeric::scalar_inverse, per lane).
    double* const pr = dre + k * L;
    double* const pi = dim + k * L;
    for (std::size_t l = 0; l < L; ++l) {
      const double zr = are[(k * n + k) * L + l];
      const double zi = aim[(k * n + k) * L + l];
      const double d = zr * zr + zi * zi;
      const double s = 1.0 / d;
      pr[l] = zr * s;
      pi[l] = -zi * s;
    }

    // Column scale and rank-1 update.  The scalar kernel skips row i when
    // l(i,k) == 0; per lane that skip becomes "keep the original value",
    // with an all-lanes-zero early-out for structurally empty entries and
    // a branch-free fast path when every lane is nonzero.
    for (std::size_t i = k + 1; i < n; ++i) {
      double* const lre = are + (i * n + k) * L;
      double* const lim = aim + (i * n + k) * L;
      std::size_t nonzero = 0;
      for (std::size_t l = 0; l < L; ++l) {
        const double a = lre[l];
        const double b = lim[l];
        lre[l] = a * pr[l] - b * pi[l];
        lim[l] = a * pi[l] + b * pr[l];
        if (lre[l] != 0.0 || lim[l] != 0.0) ++nonzero;
      }
      if (nonzero == 0) continue;
      if (nonzero == L) {
        for (std::size_t j = k + 1; j < n; ++j) {
          const double* const ur = are + (k * n + j) * L;
          const double* const ui = aim + (k * n + j) * L;
          double* const tr = are + (i * n + j) * L;
          double* const ti = aim + (i * n + j) * L;
          for (std::size_t l = 0; l < L; ++l) {
            tr[l] -= lre[l] * ur[l] - lim[l] * ui[l];
            ti[l] -= lre[l] * ui[l] + lim[l] * ur[l];
          }
        }
      } else {
        for (std::size_t j = k + 1; j < n; ++j) {
          const double* const ur = are + (k * n + j) * L;
          const double* const ui = aim + (k * n + j) * L;
          double* const tr = are + (i * n + j) * L;
          double* const ti = aim + (i * n + j) * L;
          for (std::size_t l = 0; l < L; ++l) {
            if (lre[l] == 0.0 && lim[l] == 0.0) continue;
            tr[l] -= lre[l] * ur[l] - lim[l] * ui[l];
            ti[l] -= lre[l] * ui[l] + lim[l] * ur[l];
          }
        }
      }
    }
  }
}

GNSSLNA_BATCHED_CLONES
void factor_lanes_kernel(const std::size_t n, const std::size_t L,
                         double* const are, double* const aim,
                         double* const dre, double* const dim,
                         std::uint32_t* const perm, std::uint32_t* const piv,
                         double* const mag) {
  if (L == 16) {
    factor_lanes_body<16>(n, L, are, aim, dre, dim, perm, piv, mag);
  } else {
    factor_lanes_body<0>(n, L, are, aim, dre, dim, perm, piv, mag);
  }
}


}  // namespace

void BatchedPlan::factor_lanes(EvalWorkspace& ws) const {
  factor_lanes_kernel(unknowns_, ws.lanes_, ws.a_re_, ws.a_im_, ws.dinv_re_,
                      ws.dinv_im_, ws.perm_, ws.pivrow_, ws.pivmag_);
}

void BatchedPlan::factor(EvalWorkspace& ws, std::size_t f_begin,
                         std::size_t f_end) const {
  bind(ws, f_begin, f_end);
  if (ws.factored_ && ws.seen_revision_ == revision_) {
    return;
  }
  assemble(ws);
  factor_lanes(ws);
  ws.factored_ = true;
  ws.seen_revision_ = revision_;
  ws.have_ports_ = false;
  ws.have_w_ = false;
}

// ---------------------------------------------------------------------------
// Batched substitutions (replay LuDecomposition::solve_into /
// solve_transposed_into per lane)

namespace {

// Seeding plus forward and back substitution through the packed LU
// factors for the two port right-hand sides (lane-major, L lanes each,
// laid out [rhs * n + row], substituted in place).  The sides advance row
// step by row step in lock-step — each LU row is streamed from cache once
// and applied to both sides in separate lane loops — but within a side
// the operations and their order are exactly those of a standalone
// single-side substitution, so the fusion cannot change a bit of either
// solution.
template <std::size_t LF>
inline __attribute__((always_inline)) void substitute_ports_body(
    const std::size_t n, const std::size_t L_rt,
    const std::uint32_t* const perm, const std::uint32_t src0,
    const std::uint32_t src1, const double v0, const double v1,
    const double* const are, const double* const aim, const double* const dre,
    const double* const dim, double* const xr0, double* const xi0,
    double* const xr1, double* const xi1) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  // Seed both sides in place: x[i] = b[perm[i]] with b = v * e_src.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::uint32_t pi_ = perm[i * L + l];
      xr0[i * L + l] = pi_ == src0 ? v0 : 0.0;
      xi0[i * L + l] = 0.0;
      xr1[i * L + l] = pi_ == src1 ? v1 : 0.0;
      xi1[i * L + l] = 0.0;
    }
  }
  if constexpr (LF != 0) {
    // The row being reduced is accumulated in compile-time-sized locals
    // (registers once the lane loops unroll) instead of being re-loaded
    // and re-stored through x on every jj step: the compiler cannot
    // prove x[i] and x[jj] never alias, the locals make it structural.
    // The per-lane operations and their order are untouched, so the
    // values are bit-identical to the in-place form below.
    double ar0[LF], ai0[LF], ar1[LF], ai1[LF];
    // Forward substitution with unit-lower L.
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t l = 0; l < L; ++l) {
        ar0[l] = xr0[i * L + l];
        ai0[l] = xi0[i * L + l];
        ar1[l] = xr1[i * L + l];
        ai1[l] = xi1[i * L + l];
      }
      for (std::size_t jj = 0; jj < i; ++jj) {
        const double* const lr = are + (i * n + jj) * L;
        const double* const li = aim + (i * n + jj) * L;
        for (std::size_t l = 0; l < L; ++l) {
          ar0[l] -= lr[l] * xr0[jj * L + l] - li[l] * xi0[jj * L + l];
          ai0[l] -= lr[l] * xi0[jj * L + l] + li[l] * xr0[jj * L + l];
        }
        for (std::size_t l = 0; l < L; ++l) {
          ar1[l] -= lr[l] * xr1[jj * L + l] - li[l] * xi1[jj * L + l];
          ai1[l] -= lr[l] * xi1[jj * L + l] + li[l] * xr1[jj * L + l];
        }
      }
      for (std::size_t l = 0; l < L; ++l) {
        xr0[i * L + l] = ar0[l];
        xi0[i * L + l] = ai0[l];
        xr1[i * L + l] = ar1[l];
        xi1[i * L + l] = ai1[l];
      }
    }
    // Back substitution with U; the reciprocal-diagonal multiply is
    // applied to the register accumulators before the single store.
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t l = 0; l < L; ++l) {
        ar0[l] = xr0[ii * L + l];
        ai0[l] = xi0[ii * L + l];
        ar1[l] = xr1[ii * L + l];
        ai1[l] = xi1[ii * L + l];
      }
      for (std::size_t jj = ii + 1; jj < n; ++jj) {
        const double* const ur = are + (ii * n + jj) * L;
        const double* const ui = aim + (ii * n + jj) * L;
        for (std::size_t l = 0; l < L; ++l) {
          ar0[l] -= ur[l] * xr0[jj * L + l] - ui[l] * xi0[jj * L + l];
          ai0[l] -= ur[l] * xi0[jj * L + l] + ui[l] * xr0[jj * L + l];
        }
        for (std::size_t l = 0; l < L; ++l) {
          ar1[l] -= ur[l] * xr1[jj * L + l] - ui[l] * xi1[jj * L + l];
          ai1[l] -= ur[l] * xi1[jj * L + l] + ui[l] * xr1[jj * L + l];
        }
      }
      const double* const pr = dre + ii * L;
      const double* const pi = dim + ii * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double a = ar0[l];
        const double b = ai0[l];
        xr0[ii * L + l] = a * pr[l] - b * pi[l];
        xi0[ii * L + l] = a * pi[l] + b * pr[l];
      }
      for (std::size_t l = 0; l < L; ++l) {
        const double a = ar1[l];
        const double b = ai1[l];
        xr1[ii * L + l] = a * pr[l] - b * pi[l];
        xi1[ii * L + l] = a * pi[l] + b * pr[l];
      }
    }
  } else {
    // Runtime lane count (arbitrary chunk width): in-place form.
    // Forward substitution with unit-lower L.
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t jj = 0; jj < i; ++jj) {
        const double* const lr = are + (i * n + jj) * L;
        const double* const li = aim + (i * n + jj) * L;
        for (std::size_t l = 0; l < L; ++l) {
          xr0[i * L + l] -= lr[l] * xr0[jj * L + l] - li[l] * xi0[jj * L + l];
          xi0[i * L + l] -= lr[l] * xi0[jj * L + l] + li[l] * xr0[jj * L + l];
        }
        for (std::size_t l = 0; l < L; ++l) {
          xr1[i * L + l] -= lr[l] * xr1[jj * L + l] - li[l] * xi1[jj * L + l];
          xi1[i * L + l] -= lr[l] * xi1[jj * L + l] + li[l] * xr1[jj * L + l];
        }
      }
    }
    // Back substitution with U, multiplying by the stored reciprocals.
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t jj = ii + 1; jj < n; ++jj) {
        const double* const ur = are + (ii * n + jj) * L;
        const double* const ui = aim + (ii * n + jj) * L;
        for (std::size_t l = 0; l < L; ++l) {
          xr0[ii * L + l] -= ur[l] * xr0[jj * L + l] - ui[l] * xi0[jj * L + l];
          xi0[ii * L + l] -= ur[l] * xi0[jj * L + l] + ui[l] * xr0[jj * L + l];
        }
        for (std::size_t l = 0; l < L; ++l) {
          xr1[ii * L + l] -= ur[l] * xr1[jj * L + l] - ui[l] * xi1[jj * L + l];
          xi1[ii * L + l] -= ur[l] * xi1[jj * L + l] + ui[l] * xr1[jj * L + l];
        }
      }
      const double* const pr = dre + ii * L;
      const double* const pi = dim + ii * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double a = xr0[ii * L + l];
        const double b = xi0[ii * L + l];
        xr0[ii * L + l] = a * pr[l] - b * pi[l];
        xi0[ii * L + l] = a * pi[l] + b * pr[l];
      }
      for (std::size_t l = 0; l < L; ++l) {
        const double a = xr1[ii * L + l];
        const double b = xi1[ii * L + l];
        xr1[ii * L + l] = a * pr[l] - b * pi[l];
        xi1[ii * L + l] = a * pi[l] + b * pr[l];
      }
    }
  }
}

GNSSLNA_BATCHED_CLONES
void substitute_ports_kernel(const std::size_t n, const std::size_t L,
                             const std::uint32_t* const perm,
                             const std::uint32_t src0, const std::uint32_t src1,
                             const double v0, const double v1,
                             const double* const are, const double* const aim,
                             const double* const dre, const double* const dim,
                             double* const xr0, double* const xi0,
                             double* const xr1, double* const xi1) {
  if (L == 16) {
    substitute_ports_body<16>(n, L, perm, src0, src1, v0, v1, are, aim, dre,
                              dim, xr0, xi0, xr1, xi1);
  } else {
    substitute_ports_body<0>(n, L, perm, src0, src1, v0, v1, are, aim, dre,
                             dim, xr0, xi0, xr1, xi1);
  }
}

// Transposed substitution (U^T forward with reciprocals, then unit L^T
// back) for the e_out right-hand side, over SL lanes at stride L.  The
// base pointers are pre-offset to the first solved lane.  LF/SLF pin the
// stride and trip count at compile time for the band evaluator's hot
// shapes (full 16-lane range and the 7-lane in-band slice).
template <std::size_t LF, std::size_t SLF>
inline __attribute__((always_inline)) void transpose_substitute_body(
    const std::size_t n, const std::size_t L_rt, const std::size_t SL_rt,
    const std::size_t out_row, const double* const are,
    const double* const aim, const double* const dre, const double* const dim,
    double* const wr, double* const wi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  const std::size_t SL = SLF != 0 ? SLF : SL_rt;
  if constexpr (SLF != 0 && SLF % 16 == 0) {
    // Register accumulators for the row being reduced (see
    // substitute_ports_body): same per-lane operations in the same
    // order, so bit-identical to the in-place form below.  Only for the
    // full 16-lane width — narrower accumulator arrays measured slower
    // than the in-place loops on this kernel.
    double tr[SLF != 0 ? SLF : 1];
    double ti[SLF != 0 ? SLF : 1];
    // Forward substitution with U^T; b = e_out is used unpermuted.
    for (std::size_t i = 0; i < n; ++i) {
      const double b0 = i == out_row ? 1.0 : 0.0;
      for (std::size_t l = 0; l < SL; ++l) {
        tr[l] = b0;
        ti[l] = 0.0;
      }
      for (std::size_t j = 0; j < i; ++j) {
        const double* const ur = are + (j * n + i) * L;
        const double* const ui = aim + (j * n + i) * L;
        const double* const br = wr + j * L;
        const double* const bi = wi + j * L;
        for (std::size_t l = 0; l < SL; ++l) {
          tr[l] -= ur[l] * br[l] - ui[l] * bi[l];
          ti[l] -= ur[l] * bi[l] + ui[l] * br[l];
        }
      }
      const double* const pr = dre + i * L;
      const double* const pi = dim + i * L;
      for (std::size_t l = 0; l < SL; ++l) {
        const double a = tr[l];
        const double b = ti[l];
        wr[i * L + l] = a * pr[l] - b * pi[l];
        wi[i * L + l] = a * pi[l] + b * pr[l];
      }
    }
    // Back substitution with L^T (unit diagonal).
    for (std::size_t ii = n; ii-- > 0;) {
      for (std::size_t l = 0; l < SL; ++l) {
        tr[l] = wr[ii * L + l];
        ti[l] = wi[ii * L + l];
      }
      for (std::size_t j = ii + 1; j < n; ++j) {
        const double* const lr = are + (j * n + ii) * L;
        const double* const li = aim + (j * n + ii) * L;
        const double* const br = wr + j * L;
        const double* const bi = wi + j * L;
        for (std::size_t l = 0; l < SL; ++l) {
          tr[l] -= lr[l] * br[l] - li[l] * bi[l];
          ti[l] -= lr[l] * bi[l] + li[l] * br[l];
        }
      }
      for (std::size_t l = 0; l < SL; ++l) {
        wr[ii * L + l] = tr[l];
        wi[ii * L + l] = ti[l];
      }
    }
  } else {
    // Runtime lane count: in-place form.
    // Forward substitution with U^T; b = e_out is used unpermuted.
    for (std::size_t i = 0; i < n; ++i) {
      double* const tr = wr + i * L;
      double* const ti = wi + i * L;
      const double b0 = i == out_row ? 1.0 : 0.0;
      for (std::size_t l = 0; l < SL; ++l) {
        tr[l] = b0;
        ti[l] = 0.0;
      }
      for (std::size_t j = 0; j < i; ++j) {
        const double* const ur = are + (j * n + i) * L;
        const double* const ui = aim + (j * n + i) * L;
        const double* const br = wr + j * L;
        const double* const bi = wi + j * L;
        for (std::size_t l = 0; l < SL; ++l) {
          tr[l] -= ur[l] * br[l] - ui[l] * bi[l];
          ti[l] -= ur[l] * bi[l] + ui[l] * br[l];
        }
      }
      const double* const pr = dre + i * L;
      const double* const pi = dim + i * L;
      for (std::size_t l = 0; l < SL; ++l) {
        const double a = tr[l];
        const double b = ti[l];
        tr[l] = a * pr[l] - b * pi[l];
        ti[l] = a * pi[l] + b * pr[l];
      }
    }
    // Back substitution with L^T (unit diagonal).
    for (std::size_t ii = n; ii-- > 0;) {
      double* const tr = wr + ii * L;
      double* const ti = wi + ii * L;
      for (std::size_t j = ii + 1; j < n; ++j) {
        const double* const lr = are + (j * n + ii) * L;
        const double* const li = aim + (j * n + ii) * L;
        const double* const br = wr + j * L;
        const double* const bi = wi + j * L;
        for (std::size_t l = 0; l < SL; ++l) {
          tr[l] -= lr[l] * br[l] - li[l] * bi[l];
          ti[l] -= lr[l] * bi[l] + li[l] * br[l];
        }
      }
    }
  }
}

GNSSLNA_BATCHED_CLONES
void transpose_substitute_kernel(const std::size_t n, const std::size_t L,
                                 const std::size_t SL,
                                 const std::size_t out_row,
                                 const double* const are,
                                 const double* const aim,
                                 const double* const dre,
                                 const double* const dim, double* const wr,
                                 double* const wi) {
  if (L == 16 && SL == 16) {
    transpose_substitute_body<16, 16>(n, L, SL, out_row, are, aim, dre, dim,
                                      wr, wi);
  } else if (L == 16 && SL == 7) {
    transpose_substitute_body<16, 7>(n, L, SL, out_row, are, aim, dre, dim,
                                     wr, wi);
  } else {
    transpose_substitute_body<0, 0>(n, L, SL, out_row, are, aim, dre, dim, wr,
                                    wi);
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
  const double* const are = ws.a_re_;
  const double* const aim = ws.a_im_;

  GNSSLNA_OBS_SPAN("circuit.batch.solve");
  GNSSLNA_OBS_COUNT_N("circuit.batch.solves", 2 * L);
  substitute_ports_kernel(
      n, L, ws.perm_, static_cast<std::uint32_t>(ports_[0].node - 1),
      static_cast<std::uint32_t>(ports_[1].node - 1),
      2.0 / std::sqrt(ports_[0].z0), 2.0 / std::sqrt(ports_[1].z0), are, aim,
      ws.dinv_re_, ws.dinv_im_, ws.sol_re_, ws.sol_im_, ws.sol_re_ + n * L,
      ws.sol_im_ + n * L);
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
  const double* const are = ws.a_re_;
  const double* const aim = ws.a_im_;
  double* const wr = ws.work_re_;
  double* const wi = ws.work_im_;
  const std::size_t out_row = ports_[output_port].node - 1;

  GNSSLNA_OBS_COUNT_N("circuit.batch.solves", SL);
  transpose_substitute_kernel(n, L, SL, out_row, are + s0, aim + s0,
                              ws.dinv_re_ + s0, ws.dinv_im_ + s0, wr + s0,
                              wi + s0);
  // x[perm[i]] = work[i], per lane.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = s0; l < s0 + SL; ++l) {
      const std::size_t dst = ws.perm_[i * L + l];
      ws.w_re_[dst * L + l] = wr[i * L + l];
      ws.w_im_[dst * L + l] = wi[i * L + l];
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
