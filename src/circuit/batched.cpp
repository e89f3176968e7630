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
#include <atomic>
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

namespace {
// Starts above EvalWorkspace's initial seen revision (0).
std::atomic<std::uint64_t> g_next_revision{1};
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
  mask_words_ = (n + 63) / 64;
  pattern_.assign(n * mask_words_, 0);

  // The flat scatter list in Netlist::assemble_terminated order, with
  // ground-touching terms dropped; every slot it writes is structural.
  std::vector<bool> touched(n * n, false);
  const auto scatter = [&](NodeId row, NodeId col, std::uint32_t table,
                           Source source, TpKind kind, bool subtract) {
    if (row == kGround || col == kGround) return;
    const std::size_t r = row - 1, c = col - 1;
    const std::size_t slot = r * n + c;
    scatter_.push_back({static_cast<std::uint32_t>(slot), table, source, kind,
                        subtract, !touched[slot]});
    touched[slot] = true;
    pattern_[r * mask_words_ + c / 64] |= std::uint64_t{1} << (c % 64);
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
    ws.row_mask_ = a.alloc_array<std::uint64_t>(n * mask_words_);
    ws.col_mask_ = a.alloc_array<std::uint64_t>(n * mask_words_);
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
  const std::size_t L = ws.lanes_;
  const std::size_t fb = ws.f_begin_;
  const std::size_t G = grid_.size();
  double* const are = ws.a_re_;
  double* const aim = ws.a_im_;

  // Only the structural slots are written (and zeroed on their first
  // write, which replays the zero-initialized accumulator of
  // Netlist::assemble); every other position stays unread until the
  // factorization's masks first admit it.
  for (const Scatter& sc : scatter_) {
    double* const re = are + std::size_t{sc.slot} * L;
    double* const im = aim + std::size_t{sc.slot} * L;
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
          // Mirror `y += Complex{g, 0.0}`: the imaginary part also
          // receives a +0.0 addition (which normalizes a -0.0
          // accumulator, as the scalar path's complex addition does).
          re[l] += g;
          im[l] += 0.0;
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structure-aware LU factorization (replays numeric::LuDecomposition per
// lane)
//
// Each row of the system carries a bit mask of the columns that may be
// nonzero in ANY lane (a conservative superset).  Invariant: every masked
// position holds the value the scalar factorization holds there (up to
// the sign of an exact zero in an L entry, which the scalar kernel forms
// as pivot-reciprocal x 0), and an unmasked position is an exact zero in
// every lane of the scalar factorization and is never read here.  A
// position is zeroed the first time its bit is set.  Skipping an unmasked
// position is exact for finite operands: it could only add or subtract an
// exact zero into an accumulator that cannot hold -0, or offer a zero
// magnitude to the strict-`>` pivot scan, which never wins.

namespace {

constexpr std::size_t kMaskBits = 64;

inline bool mask_has(const std::uint64_t* const m, const std::size_t j) {
  return ((m[j / kMaskBits] >> (j % kMaskBits)) & 1u) != 0;
}

/// Calls f(j) in ascending j for every set bit j in [lo, hi) of the
/// multi-word mask m.  Ascending order keeps every accumulation in the
/// scalar kernel's term order.
template <typename F>
inline __attribute__((always_inline)) void for_each_bit(
    const std::uint64_t* const m, const std::size_t lo, const std::size_t hi,
    F&& f) {
  if (lo >= hi) return;
  const std::size_t w_first = lo / kMaskBits;
  const std::size_t w_last = (hi - 1) / kMaskBits;
  for (std::size_t w = w_first; w <= w_last; ++w) {
    std::uint64_t bits = m[w];
    if (w == w_first) bits &= ~std::uint64_t{0} << (lo % kMaskBits);
    if (w == w_last && hi % kMaskBits != 0) {
      bits &= (std::uint64_t{1} << (hi % kMaskBits)) - 1;
    }
    while (bits != 0) {
      f(w * kMaskBits + static_cast<std::size_t>(__builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
}

// The two complex lane operations every kernel below is built from, over
// L lanes (LF = compile-time count, 0 = runtime L_rt).  Their operands are
// always distinct positions of the factors and solution vectors, which
// __restrict tells the vectorizer (no runtime overlap check per call).
// Per lane they are exactly the naive complex forms the scalar path
// evaluates.

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

/// x *= p in place; returns how many lanes of the product are nonzero.
template <std::size_t LF>
inline __attribute__((always_inline)) std::size_t mul_lanes(
    const std::size_t L_rt, double* __restrict xr, double* __restrict xi,
    const double* __restrict pr, const double* __restrict pi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  std::size_t nonzero = 0;
  for (std::size_t l = 0; l < L; ++l) {
    const double a = xr[l];
    const double b = xi[l];
    xr[l] = a * pr[l] - b * pi[l];
    xi[l] = a * pi[l] + b * pr[l];
    nonzero += (xr[l] != 0.0 || xi[l] != 0.0) ? 1 : 0;
  }
  return nonzero;
}

// LF is a compile-time lane count (0 = use the runtime count).  The band
// evaluator always binds 16-lane workspaces, and a constant trip count
// turns every inner lane loop into straight-line vector code with no
// remainder handling.  The bodies are force-inlined into the cloned
// wrappers below, so each ISA clone compiles them at its own vector
// width; every instantiation performs the identical arithmetic in the
// identical order, so the specialization is invisible in the results.
template <std::size_t LF>
inline __attribute__((always_inline)) void factor_lanes_body(
    const std::size_t n, const std::size_t W, const std::size_t L_rt,
    double* const are, double* const aim, double* const dre,
    double* const dim, std::uint32_t* const perm, std::uint32_t* const piv,
    double* const mag, std::uint64_t* const mask) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  // Admits the columns in [lo, n) of `add` into row `row`'s mask `m`,
  // zeroing every lane of each newly admitted position.
  const auto admit = [&](std::uint64_t* const m, const std::uint64_t* const add,
                         const std::size_t row, const std::size_t lo) {
    for (std::size_t w = lo / kMaskBits; w < W; ++w) {
      std::uint64_t fresh = add[w] & ~m[w];
      if (w == lo / kMaskBits) fresh &= ~std::uint64_t{0} << (lo % kMaskBits);
      m[w] |= fresh;
      while (fresh != 0) {
        const std::size_t j =
            w * kMaskBits + static_cast<std::size_t>(__builtin_ctzll(fresh));
        fresh &= fresh - 1;
        std::fill_n(are + (row * n + j) * L, L, 0.0);
        std::fill_n(aim + (row * n + j) * L, L, 0.0);
      }
    }
  };
  // Smallest pivot row above `prev` that some lane chose (n if none).
  const auto next_pivot = [&](const std::size_t prev) {
    std::size_t p = n;
    for (std::size_t l = 0; l < L; ++l) {
      if (piv[l] > prev && piv[l] < p) p = piv[l];
    }
    return p;
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      perm[i * L + l] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::uint64_t* const mk = mask + k * W;
    // Per-lane partial pivoting with the shared pivot_magnitude rule.
    // Lane-innermost scan so the compare/select vectorizes; per lane this
    // is the scalar kernel's strict-`>` running-max scan in the same row
    // order, minus rows whose column-k entry is structurally zero (their
    // magnitude 0 can never win), so each lane picks exactly the scalar
    // kernel's pivot.
    if (mask_has(mk, k)) {
      for (std::size_t l = 0; l < L; ++l) {
        mag[l] = std::abs(are[(k * n + k) * L + l]) +
                 std::abs(aim[(k * n + k) * L + l]);
        piv[l] = static_cast<std::uint32_t>(k);
      }
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        mag[l] = 0.0;
        piv[l] = static_cast<std::uint32_t>(k);
      }
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!mask_has(mask + i * W, k)) continue;
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

    // Row swaps.  Lanes agree on the pivot row in only about a third of
    // the steps of a typical design (the magnitudes of competing rows
    // cross within the band), so both cases are first-class.  Each lane
    // performs exactly the swaps the scalar factorization would; only the
    // masks are shared.
    if (uniform) {
      // Every lane swaps rows k and p: swap the columns either row may
      // hold, then the masks themselves.
      const std::size_t p = piv[0];
      if (p != k) {
        std::uint64_t* const mp = mask + p * W;
        for (std::size_t w = 0; w < W; ++w) {
          std::uint64_t cols = mk[w] | mp[w];
          while (cols != 0) {
            const std::size_t j =
                w * kMaskBits + static_cast<std::size_t>(__builtin_ctzll(cols));
            cols &= cols - 1;
            std::swap_ranges(are + (k * n + j) * L, are + (k * n + j) * L + L,
                             are + (p * n + j) * L);
            std::swap_ranges(aim + (k * n + j) * L, aim + (k * n + j) * L + L,
                             aim + (p * n + j) * L);
          }
          std::swap(mk[w], mp[w]);
        }
        for (std::size_t l = 0; l < L; ++l) {
          std::swap(perm[k * L + l], perm[p * L + l]);
        }
      }
    } else {
      // Divergent lanes: each lane swaps row k with its own pivot row.
      // First every pivot row p admits row k's mask (a lane may move row
      // k into p); then row k admits each p's grown mask — the union of
      // the two rows — and the lanes that chose p swap over it with a
      // per-lane select.  Afterwards mask[k] is the OR of every row that
      // moved into position k, and each mask[p] is mask[p] | old mask[k].
      for (std::size_t p = next_pivot(k); p < n; p = next_pivot(p)) {
        admit(mask + p * W, mk, p, 0);
      }
      for (std::size_t p = next_pivot(k); p < n; p = next_pivot(p)) {
        const std::uint64_t* const mp = mask + p * W;
        admit(mk, mp, k, 0);
        const auto sel = static_cast<std::uint32_t>(p);
        for_each_bit(mp, 0, n, [&](const std::size_t j) {
          double* const kr = are + (k * n + j) * L;
          double* const ki = aim + (k * n + j) * L;
          double* const pr = are + (p * n + j) * L;
          double* const pi = aim + (p * n + j) * L;
          for (std::size_t l = 0; l < L; ++l) {
            const bool take = piv[l] == sel;
            const double a = kr[l], b = pr[l];
            kr[l] = take ? b : a;
            pr[l] = take ? a : b;
            const double c = ki[l], d = pi[l];
            ki[l] = take ? d : c;
            pi[l] = take ? c : d;
          }
        });
      }
      for (std::size_t l = 0; l < L; ++l) {
        const std::uint32_t p = piv[l];
        if (p != k) std::swap(perm[k * L + l], perm[p * L + l]);
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

    // Column scale and rank-1 update over the rows whose column-k entry
    // is structural, and within a row over U row k's structural columns.
    // The scalar kernel skips row i when l(i,k) == 0; per lane that skip
    // becomes "keep the original value", with an all-lanes-zero early-out
    // and a branch-free fast path when every lane is nonzero.  A row that
    // is updated first admits U row k's columns (fill-in).
    for (std::size_t i = k + 1; i < n; ++i) {
      std::uint64_t* const mi = mask + i * W;
      if (!mask_has(mi, k)) continue;
      double* const lre = are + (i * n + k) * L;
      double* const lim = aim + (i * n + k) * L;
      const std::size_t nonzero = mul_lanes<LF>(L, lre, lim, pr, pi);
      if (nonzero == 0) continue;
      admit(mi, mk, i, k + 1);
      if (nonzero == L) {
        for_each_bit(mk, k + 1, n, [&](const std::size_t j) {
          sub_mul_lanes<LF>(L, are + (i * n + j) * L, aim + (i * n + j) * L,
                            lre, lim, are + (k * n + j) * L,
                            aim + (k * n + j) * L);
        });
      } else {
        for_each_bit(mk, k + 1, n, [&](const std::size_t j) {
          const double* const ur = are + (k * n + j) * L;
          const double* const ui = aim + (k * n + j) * L;
          double* const tr = are + (i * n + j) * L;
          double* const ti = aim + (i * n + j) * L;
          for (std::size_t l = 0; l < L; ++l) {
            if (lre[l] == 0.0 && lim[l] == 0.0) continue;
            tr[l] -= lre[l] * ur[l] - lim[l] * ui[l];
            ti[l] -= lre[l] * ui[l] + lim[l] * ur[l];
          }
        });
      }
    }
  }
}

GNSSLNA_BATCHED_CLONES
void factor_lanes_kernel(const std::size_t n, const std::size_t W,
                         const std::size_t L, double* const are,
                         double* const aim, double* const dre,
                         double* const dim, std::uint32_t* const perm,
                         std::uint32_t* const piv, double* const mag,
                         std::uint64_t* const mask) {
  if (L == 16) {
    factor_lanes_body<16>(n, W, L, are, aim, dre, dim, perm, piv, mag, mask);
  } else {
    factor_lanes_body<0>(n, W, L, are, aim, dre, dim, perm, piv, mag, mask);
  }
}

}  // namespace

void BatchedPlan::factor_lanes(EvalWorkspace& ws) const {
  const std::size_t n = unknowns_;
  const std::size_t W = mask_words_;
  std::copy(pattern_.begin(), pattern_.end(), ws.row_mask_);
  factor_lanes_kernel(n, W, ws.lanes_, ws.a_re_, ws.a_im_, ws.dinv_re_,
                      ws.dinv_im_, ws.perm_, ws.pivrow_, ws.pivmag_,
                      ws.row_mask_);
  // Column masks of the packed factors, for the transpose solve.
  std::fill_n(ws.col_mask_, n * W, std::uint64_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % kMaskBits);
    for_each_bit(ws.row_mask_ + i * W, 0, n, [&](const std::size_t j) {
      ws.col_mask_[j * W + i / kMaskBits] |= bit;
    });
  }
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
// solve_transposed_into per lane, over the structural entries of the
// factors only)

namespace {

// Seeding plus forward and back substitution through the packed LU
// factors for the two port right-hand sides (lane-major, L lanes each,
// laid out [rhs * n + row], substituted in place).  Row i's L and U terms
// are the set bits of its mask below and above the diagonal; every
// skipped term is an exact zero subtracted from an accumulator that
// cannot hold -0.  The sides advance row step by row step in lock-step —
// each LU row is streamed from cache once and applied to both sides in
// separate lane loops — but within a side the operations and their order
// are exactly those of a standalone single-side substitution, so the
// fusion cannot change a bit of either solution.
template <std::size_t LF>
inline __attribute__((always_inline)) void substitute_ports_body(
    const std::size_t n, const std::size_t W, const std::size_t L_rt,
    const std::uint64_t* const mask, const std::uint32_t* const perm,
    const std::uint32_t src0, const std::uint32_t src1, const double v0,
    const double v1, const double* const are, const double* const aim,
    const double* const dre, const double* const dim, double* const xr0,
    double* const xi0, double* const xr1, double* const xi1) {
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
      for_each_bit(mask + i * W, 0, i, [&](const std::size_t jj) {
        const double* const lr = are + (i * n + jj) * L;
        const double* const li = aim + (i * n + jj) * L;
        sub_mul_lanes<LF>(L, ar0, ai0, lr, li, xr0 + jj * L, xi0 + jj * L);
        sub_mul_lanes<LF>(L, ar1, ai1, lr, li, xr1 + jj * L, xi1 + jj * L);
      });
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
      for_each_bit(mask + ii * W, ii + 1, n, [&](const std::size_t jj) {
        const double* const ur = are + (ii * n + jj) * L;
        const double* const ui = aim + (ii * n + jj) * L;
        sub_mul_lanes<LF>(L, ar0, ai0, ur, ui, xr0 + jj * L, xi0 + jj * L);
        sub_mul_lanes<LF>(L, ar1, ai1, ur, ui, xr1 + jj * L, xi1 + jj * L);
      });
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
      for_each_bit(mask + i * W, 0, i, [&](const std::size_t jj) {
        const double* const lr = are + (i * n + jj) * L;
        const double* const li = aim + (i * n + jj) * L;
        sub_mul_lanes<0>(L, xr0 + i * L, xi0 + i * L, lr, li, xr0 + jj * L,
                         xi0 + jj * L);
        sub_mul_lanes<0>(L, xr1 + i * L, xi1 + i * L, lr, li, xr1 + jj * L,
                         xi1 + jj * L);
      });
    }
    // Back substitution with U, multiplying by the stored reciprocals.
    for (std::size_t ii = n; ii-- > 0;) {
      for_each_bit(mask + ii * W, ii + 1, n, [&](const std::size_t jj) {
        const double* const ur = are + (ii * n + jj) * L;
        const double* const ui = aim + (ii * n + jj) * L;
        sub_mul_lanes<0>(L, xr0 + ii * L, xi0 + ii * L, ur, ui, xr0 + jj * L,
                         xi0 + jj * L);
        sub_mul_lanes<0>(L, xr1 + ii * L, xi1 + ii * L, ur, ui, xr1 + jj * L,
                         xi1 + jj * L);
      });
      (void)mul_lanes<0>(L, xr0 + ii * L, xi0 + ii * L, dre + ii * L,
                         dim + ii * L);
      (void)mul_lanes<0>(L, xr1 + ii * L, xi1 + ii * L, dre + ii * L,
                         dim + ii * L);
    }
  }
}

GNSSLNA_BATCHED_CLONES
void substitute_ports_kernel(const std::size_t n, const std::size_t W,
                             const std::size_t L,
                             const std::uint64_t* const mask,
                             const std::uint32_t* const perm,
                             const std::uint32_t src0, const std::uint32_t src1,
                             const double v0, const double v1,
                             const double* const are, const double* const aim,
                             const double* const dre, const double* const dim,
                             double* const xr0, double* const xi0,
                             double* const xr1, double* const xi1) {
  if (L == 16) {
    substitute_ports_body<16>(n, W, L, mask, perm, src0, src1, v0, v1, are,
                              aim, dre, dim, xr0, xi0, xr1, xi1);
  } else {
    substitute_ports_body<0>(n, W, L, mask, perm, src0, src1, v0, v1, are,
                             aim, dre, dim, xr0, xi0, xr1, xi1);
  }
}

// Transposed substitution (U^T forward with reciprocals, then unit L^T
// back) for the e_out right-hand side, over SL lanes at stride L, reading
// the factors through their column masks.  The base pointers are
// pre-offset to the first solved lane.  LF/SLF pin the stride and trip
// count at compile time for the band evaluator's hot shapes (full 16-lane
// range and the 7-lane in-band slice).
//
// The U^T pass accumulates from b (never -0), so its skipped terms are
// exact.  The L^T pass starts from the U^T pass's products, which may be
// -0: a skipped exact-zero term there can flip the sign of an exactly-zero
// transfer entry (and nothing else).  noise_at and noise_sweep start
// every sum at +0, so no reported bit depends on that sign.
template <std::size_t LF, std::size_t SLF>
inline __attribute__((always_inline)) void transpose_substitute_body(
    const std::size_t n, const std::size_t W, const std::size_t L_rt,
    const std::size_t SL_rt, const std::size_t out_row,
    const std::uint64_t* const cmask, const double* const are,
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
      for_each_bit(cmask + i * W, 0, i, [&](const std::size_t j) {
        sub_mul_lanes<SLF>(SL, tr, ti, are + (j * n + i) * L,
                           aim + (j * n + i) * L, wr + j * L, wi + j * L);
      });
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
      for_each_bit(cmask + ii * W, ii + 1, n, [&](const std::size_t j) {
        sub_mul_lanes<SLF>(SL, tr, ti, are + (j * n + ii) * L,
                           aim + (j * n + ii) * L, wr + j * L, wi + j * L);
      });
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
      for_each_bit(cmask + i * W, 0, i, [&](const std::size_t j) {
        sub_mul_lanes<SLF>(SL, tr, ti, are + (j * n + i) * L,
                           aim + (j * n + i) * L, wr + j * L, wi + j * L);
      });
      (void)mul_lanes<SLF>(SL, tr, ti, dre + i * L, dim + i * L);
    }
    // Back substitution with L^T (unit diagonal).
    for (std::size_t ii = n; ii-- > 0;) {
      double* const tr = wr + ii * L;
      double* const ti = wi + ii * L;
      for_each_bit(cmask + ii * W, ii + 1, n, [&](const std::size_t j) {
        sub_mul_lanes<SLF>(SL, tr, ti, are + (j * n + ii) * L,
                           aim + (j * n + ii) * L, wr + j * L, wi + j * L);
      });
    }
  }
}

GNSSLNA_BATCHED_CLONES
void transpose_substitute_kernel(const std::size_t n, const std::size_t W,
                                 const std::size_t L, const std::size_t SL,
                                 const std::size_t out_row,
                                 const std::uint64_t* const cmask,
                                 const double* const are,
                                 const double* const aim,
                                 const double* const dre,
                                 const double* const dim, double* const wr,
                                 double* const wi) {
  if (L == 16 && SL == 16) {
    transpose_substitute_body<16, 16>(n, W, L, SL, out_row, cmask, are, aim,
                                      dre, dim, wr, wi);
  } else if (L == 16 && SL == 7) {
    transpose_substitute_body<16, 7>(n, W, L, SL, out_row, cmask, are, aim,
                                     dre, dim, wr, wi);
  } else {
    transpose_substitute_body<0, 0>(n, W, L, SL, out_row, cmask, are, aim,
                                    dre, dim, wr, wi);
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
      n, mask_words_, L, ws.row_mask_, ws.perm_,
      static_cast<std::uint32_t>(ports_[0].node - 1),
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
  transpose_substitute_kernel(n, mask_words_, L, SL, out_row, ws.col_mask_,
                              are + s0, aim + s0, ws.dinv_re_ + s0,
                              ws.dinv_im_ + s0, wr + s0, wi + s0);
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
