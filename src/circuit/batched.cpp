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
#include <bit>
#include <cmath>
#include <stdexcept>

#include "circuit/noisy_twoport.h"
#include "numeric/lanes.h"
#include "obs/obs.h"
#include "rf/units.h"

namespace gnsslna::circuit {

// The lane loops below are plain IEEE mul/add/sub streams, so running them
// through wider SIMD units changes nothing about the results: they run
// under numeric/lanes.h's target_clones (GNSSLNA_LANE_CLONES), dispatched
// once at load time, with bit-identical output on every path.

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
  if (unknowns_ == 0) {
    throw std::invalid_argument("BatchedPlan: netlist has no unknowns");
  }
  const std::size_t n = unknowns_;
  const std::size_t G = grid_.size();

  // Row pairs: the zero pair, one per stamp, nine per two-port, one per
  // port, then order^2 per noise group.
  std::size_t pairs = 1;
  const auto take = [&](std::size_t count) {
    const std::size_t offset = pairs * 2 * G;
    pairs += count;
    return offset;
  };
  for (std::size_t si = 0; si < netlist.stamps_.size(); ++si) {
    stamp_rows_.push_back(take(1));
  }
  for (std::size_t ti = 0; ti < netlist.twoports_.size(); ++ti) {
    twoport_rows_.push_back(take(rf::YTermRows::kTerms));
  }
  std::vector<std::size_t> port_rows;
  for (std::size_t pi = 0; pi < ports_.size(); ++pi) {
    port_rows.push_back(take(1));
  }
  noise_.resize(netlist.noise_groups_.size());
  for (std::size_t gi = 0; gi < noise_.size(); ++gi) {
    NoiseTable& t = noise_[gi];
    t.injections = netlist.noise_groups_[gi].injections;
    t.order = t.injections.size();
    t.rows = take(t.order * t.order);
  }
  rows_.assign(pairs * 2 * G, 0.0);

  // The flat scatter list in Netlist::assemble_terminated order, with
  // ground-touching terms dropped; every slot it writes is structural.
  std::vector<bool> assembled(n * n, false);
  const auto scatter = [&](NodeId row, NodeId col, std::size_t offset,
                           bool negate) {
    if (row == kGround || col == kGround) return;
    const std::size_t slot = (row - 1) * n + (col - 1);
    scatter_.push_back({static_cast<std::uint32_t>(slot),
                        offset << 1 | (negate ? 1u : 0u)});
    assembled[slot] = true;
  };

  for (std::size_t si = 0; si < stamp_rows_.size(); ++si) {
    const Netlist::Stamp& st = netlist.stamps_[si];
    const std::size_t o = stamp_rows_[si];
    // Netlist::assemble bump order: (out_p,in_p,+) (out_p,in_n,-)
    // (out_n,in_p,-) (out_n,in_n,+).
    scatter(st.out_p, st.in_p, o, false);
    scatter(st.out_p, st.in_n, o, true);
    scatter(st.out_n, st.in_p, o, true);
    scatter(st.out_n, st.in_n, o, false);
    const StampView v = stamp_view(si);
    for (std::size_t fi = 0; fi < G; ++fi) {
      // A frequency-independent stamp is evaluated once, held in every lane.
      const Complex y = st.frequency_independent && fi > 0
                            ? Complex{v.re[0], v.im[0]}
                            : st.value(grid_[fi]);
      v.re[fi] = y.real();
      v.im[fi] = y.imag();
    }
  }

  for (std::size_t ti = 0; ti < twoport_rows_.size(); ++ti) {
    const Netlist::TwoPortStamp& tp = netlist.twoports_[ti];
    // The nine bump() calls of Netlist::assemble's two-port expansion, in
    // order: term k of rf::YTermRows.
    const NodeId a = tp.t1, b = tp.t2, c = tp.common;
    const NodeId rows[9] = {a, a, a, b, b, b, c, c, c};
    const NodeId cols[9] = {a, b, c, a, b, c, a, b, c};
    for (std::size_t k = 0; k < 9; ++k) {
      scatter(rows[k], cols[k], twoport_rows_[ti] + k * 2 * G, false);
    }
    const TwoPortView v = twoport_view(ti);
    for (std::size_t fi = 0; fi < G; ++fi) {
      v.terms.store(fi, tp.y(grid_[fi]));
    }
  }

  for (std::size_t pi = 0; pi < ports_.size(); ++pi) {
    scatter(ports_[pi].node, ports_[pi].node, port_rows[pi], false);
    std::fill_n(rows_.data() + port_rows[pi], G, 1.0 / ports_[pi].z0);
  }
  compile_program(assembled);

  for (std::size_t gi = 0; gi < noise_.size(); ++gi) {
    const NoiseGroup& g = netlist.noise_groups_[gi];
    const NoiseTable& t = noise_[gi];
    const std::size_t k = t.order;
    const NoiseView nv = noise_view(gi);
    if (g.passive_twoport < twoport_rows_.size() && k == 2) {
      // The passive_twoport_csd closure's lane kernel over the two-port's
      // tabulated Y-block: the closure's bits without a second Y-block
      // evaluation per lane.
      passive_twoport_csd_lanes(twoport_view(g.passive_twoport).terms, G,
                                g.temperature_k, nv.csd);
      continue;
    }
    for (std::size_t fi = 0; fi < G; ++fi) {
      const numeric::ComplexMatrix m = g.csd(grid_[fi]);
      if (m.rows() != k || m.cols() != k) {
        throw std::invalid_argument("noise_analysis: CSD size mismatch in '" +
                                    g.label + "'");
      }
      for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
          nv.csd.store(r * k + c, fi, m(r, c).real(), m(r, c).imag());
        }
      }
    }
  }

  // The noise program, in store rows; a group without injections adds
  // nothing and is left out.
  max_injections_ = 1;
  const auto store_row = [&](NodeId node) {
    return node == kGround ? kGroundRow : row_of_[node - 1];
  };
  for (const NoiseTable& t : noise_) {
    if (t.order == 0) continue;
    max_injections_ = std::max(max_injections_, t.order);
    noise_order_.push_back(static_cast<std::uint32_t>(t.order));
    noise_csd_.push_back(t.rows);
    for (const auto& [from, to] : t.injections) {
      noise_from_.push_back(store_row(from));
      noise_to_.push_back(store_row(to));
    }
  }
}

void BatchedPlan::compile_program(const std::vector<bool>& assembled) {
  const std::size_t n = unknowns_;
  // The elimination order, by greedy minimum degree on the assembled
  // pattern plus the diagonal: each step eliminates the remaining unknown
  // v with the fewest remaining neighbours (an entry in its row or its
  // column), the lowest unknown on a tie, and fills (i, j) wherever (i, v)
  // and (v, j) are filled among the remaining unknowns i, j.  Every
  // diagonal position is in the store: one that is structurally zero is a
  // fill position no update reaches, so its pivot stays 0 and fails the
  // health check in every lane, which sends every lane to the dense path.
  //
  // The pattern in node order as bitsets of W words per row and per
  // column (bit j of row i and bit i of column j: entry (i, j) is filled).
  const std::size_t W = (n + 63) / 64;
  const auto bit = [](std::size_t j) { return std::uint64_t{1} << (j % 64); };
  std::vector<std::uint64_t> row_bits(n * W, 0), col_bits(n * W, 0);
  std::vector<std::uint64_t> alive(W, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && !assembled[i * n + j]) continue;
      row_bits[i * W + j / 64] |= bit(j);
      col_bits[j * W + i / 64] |= bit(i);
    }
    alive[i / 64] |= bit(i);
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  row_of_.assign(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t v = n, v_degree = n + 1;
    for (std::size_t c = 0; c < n; ++c) {
      if ((alive[c / 64] & bit(c)) == 0) continue;
      std::size_t degree = 0;  // counts c itself: the diagonal is filled
      for (std::size_t w = 0; w < W; ++w) {
        degree += static_cast<std::size_t>(std::popcount(
            (row_bits[c * W + w] | col_bits[c * W + w]) & alive[w]));
      }
      if (degree < v_degree) {
        v = c;
        v_degree = degree;
      }
    }
    alive[v / 64] &= ~bit(v);
    row_of_[v] = static_cast<std::uint32_t>(step);
    order.push_back(static_cast<std::uint32_t>(v));
    // Fill: every remaining i of column v gets row v's remaining entries,
    // and every remaining j of row v gets column v's remaining entries.
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t live = alive[k / 64] & bit(k);
      const bool in_col = (col_bits[v * W + k / 64] & live) != 0;
      const bool in_row = (row_bits[v * W + k / 64] & live) != 0;
      for (std::size_t w = 0; w < W; ++w) {
        if (in_col) row_bits[k * W + w] |= row_bits[v * W + w] & alive[w];
        if (in_row) col_bits[k * W + w] |= col_bits[v * W + w] & alive[w];
      }
    }
  }
  // The filled pattern in store order, its positions numbered row-major.
  std::vector<bool> pattern(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      pattern[r * n + c] =
          (row_bits[order[r] * W + order[c] / 64] & bit(order[c])) != 0;
    }
  }
  std::vector<std::uint32_t> pos(n * n, 0);
  positions_ = 0;
  for (std::size_t s = 0; s < n * n; ++s) {
    if (pattern[s]) pos[s] = static_cast<std::uint32_t>(positions_++);
  }
  diag_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) diag_[k] = pos[k * n + k];

  // Line i of a row list is row i (entries ordered by column); of a column
  // list, column i (ordered by row).  `keep` selects the entries.
  const auto build = [&](LineLists& lists, bool by_row, auto keep) {
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
  build(lower_rows_, true, lower);
  build(upper_rows_, true, upper);
  build(lower_cols_, false, lower);
  build(upper_cols_, false, upper);

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

  // The assembly program: a counting sort of the scatter list by position,
  // which keeps each position's contributions in scatter order; a fill-in
  // position gets one entry, the zero pair (code 0).
  const auto scatter_pos = [&](const Scatter& sc) {
    return pos[row_of_[sc.slot / n] * n + row_of_[sc.slot % n]];
  };
  asm_start_.assign(positions_ + 1, 0);
  for (const Scatter& sc : scatter_) ++asm_start_[scatter_pos(sc) + 1];
  for (std::size_t p = 0; p < positions_; ++p) {
    asm_start_[p + 1] = std::max(asm_start_[p + 1], std::uint32_t{1}) +
                        asm_start_[p];
  }
  asm_code_.assign(asm_start_[positions_], 0);
  std::vector<std::uint32_t> next(asm_start_.begin(), asm_start_.end() - 1);
  for (const Scatter& sc : scatter_) {
    asm_code_[next[scatter_pos(sc)]++] = sc.code;
  }
  asm_col_.clear();
  std::vector<bool> column_seen(n, false);
  for (std::size_t s = 0; s < n * n; ++s) {
    if (!pattern[s]) continue;
    const std::size_t col = s % n;
    asm_col_.push_back(static_cast<std::uint32_t>(col << 1) |
                       (column_seen[col] ? 0u : 1u));
    column_seen[col] = true;
  }

  // The solves' row lists: reach through L from each port source, need
  // through U from the port rows, reach through U^T from each port row.
  // A row outside a list holds a structural zero the solve never changes.
  // `reach` follows a list whose line i holds the rows j < i that row i
  // reads (L by rows, U by columns).
  const auto reach = [&](const LineLists& lists, std::size_t from) {
    std::vector<bool> reached(n, false);
    reached[from] = true;
    for (std::size_t i = from + 1; i < n; ++i) {
      for (std::uint32_t e = lists.start[i];
           e < lists.start[i + 1] && !reached[i]; ++e) {
        reached[i] = reached[lists.index[e]];
      }
    }
    return reached;
  };
  const auto port_row = [&](std::size_t p) {
    return row_of_[ports_[p].node - 1];
  };
  forward_rows_.clear();
  back_rows_.clear();
  if (ports_.size() == 2) {
    std::vector<std::uint32_t> sides(n, 0);
    for (std::size_t side = 0; side < 2; ++side) {
      const std::vector<bool> reached = reach(lower_rows_, port_row(side));
      for (std::size_t i = port_row(side) + 1; i < n; ++i) {
        if (reached[i]) sides[i] |= 1u << side;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (sides[i] != 0) {
        forward_rows_.push_back(static_cast<std::uint32_t>(i << 2) | sides[i]);
      }
    }
    std::vector<bool> needed(n, false);
    needed[port_row(0)] = needed[port_row(1)] = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!needed[i]) continue;
      for (std::uint32_t e = upper_rows_.start[i]; e < upper_rows_.start[i + 1];
           ++e) {
        needed[upper_rows_.index[e]] = true;
      }
    }
    for (std::size_t i = n; i-- > 0;) {
      if (needed[i]) back_rows_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  transfer_rows_.clear();
  transfer_start_.assign(1, 0);
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const std::vector<bool> reached = reach(upper_cols_, port_row(p));
    for (std::size_t i = port_row(p); i < n; ++i) {
      if (reached[i]) transfer_rows_.push_back(static_cast<std::uint32_t>(i));
    }
    transfer_start_.push_back(
        static_cast<std::uint32_t>(transfer_rows_.size()));
  }
}

BatchedPlan::StampView BatchedPlan::stamp_view(std::size_t stamp_index) {
  double* const re = rows_.data() + stamp_rows_.at(stamp_index);
  return {re, re + grid_.size(), grid_.size()};
}

BatchedPlan::TwoPortView BatchedPlan::twoport_view(std::size_t twoport_index) {
  const std::size_t G = grid_.size();
  double* const re = rows_.data() + twoport_rows_.at(twoport_index);
  return {{re, re + G, 2 * G}, G};
}

BatchedPlan::NoiseView BatchedPlan::noise_view(std::size_t group_index) {
  const NoiseTable& t = noise_.at(group_index);
  const std::size_t G = grid_.size();
  double* const re = rows_.data() + t.rows;
  return {{re, re + G, 2 * G, t.order}, G};
}

Complex BatchedPlan::noise_csd(std::size_t group_index, std::size_t i,
                               std::size_t j, std::size_t fi) const {
  const NoiseTable& t = noise_.at(group_index);
  if (i >= t.order || j >= t.order || fi >= grid_.size()) {
    throw std::out_of_range("BatchedPlan::noise_csd: entry out of range");
  }
  const std::size_t G = grid_.size();
  const double* const re = rows_.data() + t.rows + (i * t.order + j) * 2 * G;
  return {re[fi], re[G + fi]};
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
// Compiled assembly

namespace {

// Position p of the store (L lanes, LF = compile-time count, 0 = runtime
// L_rt) sums its contributions from +0.0 in the list order, so every lane
// replays the zero-initialized accumulation of Netlist::assemble_terminated
// bit for bit; the 16-lane instantiation accumulates in registers and
// stores once.  `rows` is offset to the first bound lane.  The column
// maxima of the assembled one-norms (the health check's reference) are
// folded into the same pass: a one-norm |re| + |im| is +0, positive, +inf
// or a NaN with its sign bit clear, and on those values the order of the
// bit patterns as signed integers is the value order with every NaN above
// every number, so a signed-integer max gives the outcome of
// (m > c || isnan(m)) ? m : c without a branch (a NaN column stays NaN,
// which fails every comparison of the health check).
template <std::size_t LF>
inline __attribute__((always_inline)) void assemble_body(
    const std::size_t positions, const std::size_t L_rt, const std::size_t G,
    const std::uint32_t* __restrict start, const std::size_t* __restrict code,
    const std::uint32_t* __restrict col, const double* __restrict rows,
    double* __restrict vr, double* __restrict vi, double* __restrict cm) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  for (std::size_t p = 0; p < positions; ++p) {
    double acc_re[LF != 0 ? LF : 1], acc_im[LF != 0 ? LF : 1];
    double* const ar = LF != 0 ? acc_re : vr + p * L;
    double* const ai = LF != 0 ? acc_im : vi + p * L;
    std::uint32_t e = start[p];
    const double* r = rows + (code[e] >> 1);
    if (code[e] & 1) {
      for (std::size_t l = 0; l < L; ++l) {
        ar[l] = 0.0 - r[l];
        ai[l] = 0.0 - r[G + l];
      }
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        ar[l] = 0.0 + r[l];
        ai[l] = 0.0 + r[G + l];
      }
    }
    for (++e; e < start[p + 1]; ++e) {
      r = rows + (code[e] >> 1);
      if (code[e] & 1) {
        for (std::size_t l = 0; l < L; ++l) {
          ar[l] -= r[l];
          ai[l] -= r[G + l];
        }
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          ar[l] += r[l];
          ai[l] += r[G + l];
        }
      }
    }
    if constexpr (LF != 0) {
      for (std::size_t l = 0; l < L; ++l) {
        vr[p * L + l] = ar[l];
        vi[p * L + l] = ai[l];
      }
    }
    double* const c = cm + std::size_t{col[p] >> 1} * L;
    if (col[p] & 1) {
      for (std::size_t l = 0; l < L; ++l) {
        c[l] = std::abs(ar[l]) + std::abs(ai[l]);
      }
    } else {
      for (std::size_t l = 0; l < L; ++l) {
        const double m = std::abs(ar[l]) + std::abs(ai[l]);
        c[l] = std::bit_cast<double>(
            std::max(std::bit_cast<std::int64_t>(c[l]),
                     std::bit_cast<std::int64_t>(m)));
      }
    }
  }
}

GNSSLNA_LANE_CLONES
void assemble_kernel(const std::size_t positions, const std::size_t L,
                     const std::size_t G, const std::uint32_t* const start,
                     const std::size_t* const code,
                     const std::uint32_t* const col, const double* const rows,
                     double* const vr, double* const vi, double* const cm) {
  if (L == 16) {
    assemble_body<16>(positions, L, G, start, code, col, rows, vr, vi, cm);
  } else {
    assemble_body<0>(positions, L, G, start, code, col, rows, vr, vi, cm);
  }
}

}  // namespace

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
// gets 1 in every lane that fails a check and 0 in the others (step 0's
// pivot check writes every lane first); NaN fails every comparison.
template <std::size_t LF>
inline __attribute__((always_inline)) void factor_lanes_body(
    const std::size_t n, const std::size_t L_rt,
    const std::uint32_t* const diag, const Lines lcols, const Lines urows,
    const std::uint32_t* target, double* __restrict const vr,
    double* __restrict const vi, double* __restrict const dr,
    double* __restrict const di, const double* __restrict const cm,
    double* __restrict const dense) {
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
      dense[l] = ok ? (k == 0 ? 0.0 : dense[l]) : 1.0;
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

GNSSLNA_LANE_CLONES
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
    const double* const r = rows_.data() + (sc.code >> 1) + fi;
    const Complex v{r[0], r[G]};
    a(sc.slot / n, sc.slot % n) += (sc.code & 1) ? -v : v;
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
  assemble_kernel(positions_, L, grid_.size(), asm_start_.data(),
                  asm_code_.data(), asm_col_.data(),
                  rows_.data() + ws.f_begin_, ws.v_re_, ws.v_im_, ws.colmax_);
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
// Batched substitutions through the static factors, over the compiled row
// lists

namespace {

// One compiled row list of a solve, for the kernels.
struct RowList {
  const std::uint32_t* row;
  std::size_t count;
};

// Forward and back substitution for the two port right-hand sides
// v0 * e_src0 and v1 * e_src1 (laid out [rhs * n + row], substituted in
// place), over one block of at most kBlock lanes whose pointers are offset
// to its first lane (the stride between rows stays L).  The row being
// reduced is accumulated in block-sized locals (registers once the lane
// loops unroll) instead of being re-loaded and re-stored through x on
// every term: the compiler cannot prove x[i] and x[j] never alias, the
// locals make it structural.  The forward pass visits only the rows a
// source reaches through L (`forward`: row << 2 | sides), each for the
// sides that reach it, a factor row streamed from cache once for both;
// back substitution visits only the rows the port rows need through U
// (`back`, descending).  Every other row keeps the structural zero (or
// source value) written first.  LF pins the stride and block width at
// compile time for the band evaluator's 16-lane grid (0 = runtime L and
// W); every instantiation performs the same per-lane operations in the
// same order.
constexpr std::size_t kBlock = 16;

template <std::size_t LF>
inline __attribute__((always_inline)) void substitute_ports_block(
    const std::size_t n, const std::size_t L_rt, const std::size_t W_rt,
    const Lines lrows, const Lines urows, const RowList forward,
    const RowList back, const std::size_t src0, const std::size_t src1,
    const double v0, const double v1, const double* const vr,
    const double* const vi, const double* const dr, const double* const di,
    double* const xr0, double* const xi0, double* const xr1,
    double* const xi1) {
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
  double ar0[kBlock], ai0[kBlock], ar1[kBlock], ai1[kBlock];
  // Forward substitution with unit-lower L: side a is side 0 unless only
  // side 1 reaches the row; side b is side 1 where both do.
  for (std::size_t f = 0; f < forward.count; ++f) {
    const std::size_t i = forward.row[f] >> 2;
    const std::uint32_t sides = forward.row[f] & 3u;
    const bool both = sides == 3u;
    double* const yr = sides == 2u ? xr1 : xr0;
    double* const yi = sides == 2u ? xi1 : xi0;
    for (std::size_t l = 0; l < W; ++l) {
      ar0[l] = yr[i * L + l];
      ai0[l] = yi[i * L + l];
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
      sub_mul_lanes<LF>(W, ar0, ai0, vr + p, vi + p, yr + j, yi + j);
      if (both) {
        sub_mul_lanes<LF>(W, ar1, ai1, vr + p, vi + p, xr1 + j, xi1 + j);
      }
    }
    for (std::size_t l = 0; l < W; ++l) {
      yr[i * L + l] = ar0[l];
      yi[i * L + l] = ai0[l];
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
  for (std::size_t b = 0; b < back.count; ++b) {
    const std::size_t ii = back.row[b];
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

GNSSLNA_LANE_CLONES
void substitute_ports_kernel(const std::size_t n, const std::size_t L,
                             const Lines lrows, const Lines urows,
                             const RowList forward, const RowList back,
                             const std::size_t src0, const std::size_t src1,
                             const double v0, const double v1,
                             const double* const vr, const double* const vi,
                             const double* const dr, const double* const di,
                             double* const xr0, double* const xi0,
                             double* const xr1, double* const xi1) {
  if (L == kBlock) {
    substitute_ports_block<kBlock>(n, L, L, lrows, urows, forward, back, src0,
                                   src1, v0, v1, vr, vi, dr, di, xr0, xi0,
                                   xr1, xi1);
    return;
  }
  for (std::size_t b = 0; b < L; b += kBlock) {
    substitute_ports_block<0>(n, L, std::min(kBlock, L - b), lrows, urows,
                              forward, back, src0, src1, v0, v1, vr + b,
                              vi + b, dr + b, di + b, xr0 + b, xi0 + b,
                              xr1 + b, xi1 + b);
  }
}

// Transposed substitution for e_out, in place: U^T forward with the
// reciprocals over the rows out_row reaches through U^T (`reach`,
// ascending from out_row; every other row stays zero), then unit L^T back
// over every row, over SL lanes of stride L whose pointers are offset to
// the first solved lane.  LF/SLF pin the stride and width at compile time
// for the band evaluator's shapes (the full 16-lane range and the 7-lane
// in-band slice).  Block-sized accumulators, as in the port solve,
// measured slower here.
template <std::size_t LF, std::size_t SLF>
inline __attribute__((always_inline)) void transpose_substitute_body(
    const std::size_t n, const std::size_t L_rt, const std::size_t SL_rt,
    const std::size_t out_row, const RowList reach, const Lines ucols,
    const Lines lcols, const double* const vr, const double* const vi,
    const double* const dr, const double* const di, double* const wr,
    double* const wi) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  const std::size_t SL = SLF != 0 ? SLF : SL_rt;
  for (std::size_t i = 0; i < n; ++i) {
    const double b0 = i == out_row ? 1.0 : 0.0;
    for (std::size_t l = 0; l < SL; ++l) {
      wr[i * L + l] = b0;
      wi[i * L + l] = 0.0;
    }
  }
  for (std::size_t r = 0; r < reach.count; ++r) {
    const std::size_t i = reach.row[r];
    double* const tr = wr + i * L;
    double* const ti = wi + i * L;
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

GNSSLNA_LANE_CLONES
void transpose_substitute_kernel(const std::size_t n, const std::size_t L,
                                 const std::size_t SL,
                                 const std::size_t out_row,
                                 const RowList reach, const Lines ucols,
                                 const Lines lcols, const double* const vr,
                                 const double* const vi,
                                 const double* const dr,
                                 const double* const di, double* const wr,
                                 double* const wi) {
  if (L == 16 && SL == 16) {
    transpose_substitute_body<16, 16>(n, L, SL, out_row, reach, ucols, lcols,
                                      vr, vi, dr, di, wr, wi);
  } else if (L == 16 && SL == 7) {
    transpose_substitute_body<16, 7>(n, L, SL, out_row, reach, ucols, lcols,
                                     vr, vi, dr, di, wr, wi);
  } else {
    transpose_substitute_body<0, 0>(n, L, SL, out_row, reach, ucols, lcols,
                                    vr, vi, dr, di, wr, wi);
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
  substitute_ports_kernel(
      n, L, lines(lower_rows_), lines(upper_rows_),
      {forward_rows_.data(), forward_rows_.size()},
      {back_rows_.data(), back_rows_.size()}, row_of_[src[0]],
      row_of_[src[1]], v[0], v[1], ws.v_re_, ws.v_im_, ws.dinv_re_,
      ws.dinv_im_, ws.sol_re_, ws.sol_im_, ws.sol_re_ + n * L,
      ws.sol_im_ + n * L);
  // Dense-path lanes: the oracle's solve_into for each port excitation,
  // in node order, stored by store row.
  for (std::size_t l = 0; l < L; ++l) {
    if (ws.dense_[l] == 0.0) continue;
    dense_factor(ws, l);
    for (std::size_t side = 0; side < 2; ++side) {
      ws.rhs_.assign(n, Complex{0.0, 0.0});
      ws.rhs_[src[side]] = Complex{v[side], 0.0};
      ws.lu_.solve_into(ws.rhs_, ws.x_);
      for (std::size_t i = 0; i < n; ++i) {
        ws.sol_re_[(side * n + row_of_[i]) * L + l] = ws.x_[i].real();
        ws.sol_im_[(side * n + row_of_[i]) * L + l] = ws.x_[i].imag();
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
  const std::size_t out = ports_[output_port].node - 1;
  const std::uint32_t* const reach =
      transfer_rows_.data() + transfer_start_[output_port];

  GNSSLNA_OBS_COUNT_N("circuit.batch.solves", SL);
  transpose_substitute_kernel(
      n, L, SL, row_of_[out],
      {reach, std::size_t{transfer_start_[output_port + 1] -
                          transfer_start_[output_port]}},
      lines(upper_cols_), lines(lower_cols_), ws.v_re_ + s0, ws.v_im_ + s0,
      ws.dinv_re_ + s0, ws.dinv_im_ + s0, ws.w_re_ + s0, ws.w_im_ + s0);
  // Dense-path lanes: the oracle's solve_transposed_into with e_out, in
  // node order, stored by store row.
  for (std::size_t l = s0; l < s0 + SL; ++l) {
    if (ws.dense_[l] == 0.0) continue;
    dense_factor(ws, l);
    ws.rhs_.assign(n, Complex{0.0, 0.0});
    ws.rhs_[out] = Complex{1.0, 0.0};
    ws.lu_.solve_transposed_into(ws.rhs_, ws.x_, ws.work_);
    for (std::size_t i = 0; i < n; ++i) {
      ws.w_re_[row_of_[i] * L + l] = ws.x_[i].real();
      ws.w_im_[row_of_[i] * L + l] = ws.x_[i].imag();
    }
  }
  ws.have_w_ = true;
  ws.w_port_ = output_port;
  ws.w_begin_ = f_begin;
  ws.w_end_ = f_end;
}

// ---------------------------------------------------------------------------
// Result extraction (the per-lane expressions of circuit::s_matrix and
// noise_analysis, on their solutions)

void BatchedPlan::s_params_sweep(const EvalWorkspace& ws, std::size_t f_begin,
                                 std::size_t f_end,
                                 const rf::SRows& out) const {
  if (ws.plan_ != this || !ws.have_ports_ ||
      ws.seen_revision_ != revision_ || f_begin < ws.f_begin_ ||
      f_end > ws.f_end_ || f_begin >= f_end) {
    throw std::logic_error("BatchedPlan::s_params_at: lane not solved");
  }
  const std::size_t n = unknowns_;
  const std::size_t L = ws.lanes_;
  const std::size_t l0 = f_begin - ws.f_begin_;
  const std::size_t m = f_end - f_begin;
  const double sqrt_z0[2] = {std::sqrt(ports_[0].z0), std::sqrt(ports_[1].z0)};
  // S_ij = sol_j[port i] / sqrt(z0_i) - delta_ij, the complex-by-real
  // quotient and the subtraction component by component.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::size_t row = row_of_[ports_[i].node - 1];
    for (std::size_t j = 0; j < 2; ++j) {
      const double* const sr = ws.sol_re_ + (j * n + row) * L + l0;
      const double* const si = ws.sol_im_ + (j * n + row) * L + l0;
      double* const re = out.re + (2 * i + j) * out.stride;
      double* const im = out.im + (2 * i + j) * out.stride;
      const double delta = i == j ? 1.0 : 0.0;
      for (std::size_t l = 0; l < m; ++l) {
        re[l] = sr[l] / sqrt_z0[i] - delta;
        im[l] = si[l] / sqrt_z0[i] - 0.0;
      }
    }
  }
}

rf::SParams BatchedPlan::s_params_at(const EvalWorkspace& ws,
                                     std::size_t fi) const {
  double re[4], im[4];
  s_params_sweep(ws, fi, fi + 1, {re, im, 1});
  rf::SParams out;
  out.frequency_hz = grid_[fi];
  out.z0 = ports_[0].z0;
  out.s11 = {re[rf::SRows::kS11], im[rf::SRows::kS11]};
  out.s12 = {re[rf::SRows::kS12], im[rf::SRows::kS12]};
  out.s21 = {re[rf::SRows::kS21], im[rf::SRows::kS21]};
  out.s22 = {re[rf::SRows::kS22], im[rf::SRows::kS22]};
  return out;
}

Complex EvalWorkspace::transfer(std::size_t i, std::size_t fi) const {
  if (plan_ == nullptr || !factored_ || !have_w_ ||
      seen_revision_ != plan_->revision() || fi < w_begin_ || fi >= w_end_ ||
      i >= bound_unknowns_) {
    throw std::logic_error("EvalWorkspace::transfer: lane not solved");
  }
  const std::size_t l = fi - f_begin_;
  const std::size_t row = plan_->row_of_[i];
  return {w_re_[row * lanes_ + l], w_im_[row * lanes_ + l]};
}

namespace {

// The compiled noise program over SL lanes of stride L (LF/SLF pin both
// for the band evaluator's 7 in-band lanes of a 16-lane grid; 0 = runtime
// L_rt and SL_rt).  Per group: the transfer of each injection, h_j =
// w[from] - w[to] with ground read from the zero row, then the quadratic
// form h^H C h accumulated term by term in (i, j) order from the CSD's
// lane rows, added to the network PSD.  Within a lane every operation -
// including the expansion of the two complex multiplies of
// h_i * C_ij * conj(h_j) into naive re/im arithmetic and of
// t * conj(h_j) into tr*hjr + ti*hji (IEEE subtraction of a negated
// operand IS addition, bit for bit) - is circuit::noise_analysis's, in its
// order; the form and the PSD sum from +0.0.  `rows` is the plan's row
// buffer offset to the first lane, w the solution offset to it; `acc` and
// `psd` are SL-lane scratch.  The 7-lane instantiation keeps them in
// registers, zeroes them there and stores psd once; the runtime-lane body
// folds the +0.0 into their first writes instead (every group has an
// injection, and there is at least one group), since a runtime-length
// zeroing compiles to a memset call.
template <std::size_t LF, std::size_t SLF>
inline __attribute__((always_inline)) void noise_program_body(
    const std::size_t groups, const std::size_t L_rt, const std::size_t SL_rt,
    const std::size_t G, const std::uint32_t* __restrict order,
    const std::size_t* __restrict csd, const std::uint32_t* __restrict from,
    const std::uint32_t* __restrict to, const double* __restrict rows,
    const double* __restrict zeros, const double* __restrict wr,
    const double* __restrict wi, double* __restrict hr,
    double* __restrict hi, double* __restrict acc_rt,
    double* __restrict psd_rt, const std::uint32_t ground) {
  const std::size_t L = LF != 0 ? LF : L_rt;
  const std::size_t SL = SLF != 0 ? SLF : SL_rt;
  double acc_local[SLF != 0 ? SLF : 1], psd_local[SLF != 0 ? SLF : 1];
  double* const acc = SLF != 0 ? acc_local : acc_rt;
  double* const psd = SLF != 0 ? psd_local : psd_rt;
  constexpr bool kFold = SLF == 0;
  if constexpr (!kFold) {
    for (std::size_t l = 0; l < SL; ++l) psd[l] = 0.0;
  }
  const std::uint32_t* f = from;
  const std::uint32_t* t = to;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t k = order[g];
    for (std::size_t j = 0; j < k; ++j, ++f, ++t) {
      const double* const fr = *f == ground ? zeros : wr + std::size_t{*f} * L;
      const double* const fi = *f == ground ? zeros : wi + std::size_t{*f} * L;
      const double* const tr = *t == ground ? zeros : wr + std::size_t{*t} * L;
      const double* const ti = *t == ground ? zeros : wi + std::size_t{*t} * L;
      for (std::size_t l = 0; l < SL; ++l) {
        hr[j * SL + l] = fr[l] - tr[l];
        hi[j * SL + l] = fi[l] - ti[l];
      }
    }
    if constexpr (!kFold) {
      for (std::size_t l = 0; l < SL; ++l) acc[l] = 0.0;
    }
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const double* const cr = rows + csd[g] + (i * k + j) * 2 * G;
        const double* const ci = cr + G;
        const double* const air = hr + i * SL;
        const double* const aii = hi + i * SL;
        const double* const ajr = hr + j * SL;
        const double* const aji = hi + j * SL;
        const bool first = kFold && i == 0 && j == 0;
        for (std::size_t l = 0; l < SL; ++l) {
          const double mr = air[l] * cr[l] - aii[l] * ci[l];
          const double mi = air[l] * ci[l] + aii[l] * cr[l];
          acc[l] = (first ? 0.0 : acc[l]) + (mr * ajr[l] + mi * aji[l]);
        }
      }
    }
    for (std::size_t l = 0; l < SL; ++l) {
      psd[l] = (kFold && g == 0 ? 0.0 : psd[l]) + acc[l];
    }
  }
  if constexpr (SLF != 0) {
    for (std::size_t l = 0; l < SL; ++l) psd_rt[l] = psd[l];
  }
}

GNSSLNA_LANE_CLONES
void noise_program_kernel(
    const std::size_t groups, const std::size_t L, const std::size_t SL,
    const std::size_t G, const std::uint32_t* const order,
    const std::size_t* const csd, const std::uint32_t* const from,
    const std::uint32_t* const to, const double* const rows,
    const double* const zeros, const double* const wr, const double* const wi,
    double* const hr, double* const hi, double* const acc, double* const psd,
    const std::uint32_t ground) {
  if (L == 16 && SL == 7) {
    noise_program_body<16, 7>(groups, L, SL, G, order, csd, from, to, rows,
                              zeros, wr, wi, hr, hi, acc, psd, ground);
  } else {
    noise_program_body<0, 0>(groups, L, SL, G, order, csd, from, to, rows,
                             zeros, wr, wi, hr, hi, acc, psd, ground);
  }
}

}  // namespace

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
  if (!noise_order_.empty()) {
    noise_program_kernel(noise_order_.size(), L, SL, grid_.size(),
                         noise_order_.data(), noise_csd_.data(),
                         noise_from_.data(), noise_to_.data(),
                         rows_.data() + ws.w_begin_, rows_.data(),
                         ws.w_re_ + s0, ws.w_im_ + s0, ws.nh_re_, ws.nh_im_,
                         ws.nacc_, ws.npsd_, kGroundRow);
  }

  // Source noise and per-lane results, exactly noise_analysis's
  // expressions; the lane-invariant PSD prefix keeps its left-to-right
  // association.
  const Port& in = ports_[input_port];
  const Complex y_source{1.0 / in.z0, 0.0};
  const double psd_prefix = 4.0 * rf::kBoltzmann * t_source_k *
                            std::max(y_source.real(), 0.0);
  const double* const sr = ws.w_re_ + row_of_[in.node - 1] * L + s0;
  const double* const si = ws.w_im_ + row_of_[in.node - 1] * L + s0;
  // Without a noise group the network PSD is the zero row.
  const double* const psd = noise_order_.empty() ? rows_.data() : ws.npsd_;
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
