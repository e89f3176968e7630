// Frequency-batched, allocation-free evaluation core.
//
// A BatchedPlan is the production evaluation path of every netlist
// analysis that runs on a fixed frequency grid.  It tabulates every
// element's value (admittance, two-port Y-block, noise CSD) once per grid
// frequency, then evaluates ALL frequencies of one design as one LU batch.
// The assembled admittance system is stored as separate re/im double
// arrays with the frequency lane as the innermost (contiguous,
// vectorizable) index; one pass of the factorization advances every
// frequency in lock-step.
//
// Structure: the MNA system is sparse (the fig. 3 amplifier has 47
// structural nonzeros among 15 x 15 entries).  When the plan is built it
// eliminates the assembled pattern symbolically in diagonal order and
// compiles the result into one static program: a compact lane-major store
// holding only the filled positions (67 for fig. 3), a flat list of
// rank-1 update steps, and per-row and per-column substitution lists.
// factor, solve_ports and solve_output_transfer run that program for any
// lane count with no pivot search, row swap or permutation.  DESIGN.md
// ("Batched evaluation core") describes the program.
//
// Accuracy contract: results agree with the per-call analyses
// (circuit::s_params / noise_analysis, the reference oracle of the tests)
// within the written tolerance of tests/reference_band.h, not bit for bit
// — diagonal order is not the oracle's partial pivoting.  Every lane is
// checked from values the factorization already holds: its pivots against
// the maxima of their assembled columns, and every U entry against the
// maximum of its column (element growth).  A lane that fails (every lane,
// when a diagonal position is structurally zero) is re-assembled densely
// in Netlist::assemble_terminated order and solved through
// numeric::LuDecomposition: that lane equals the oracle bit for bit and is
// counted in circuit.batch.repivots.  Each lane's arithmetic and its check
// involve only that lane, so no result depends on which other lanes share
// its workspace: every chunking of a grid, at every thread count, gives
// the same bits.  batched.cpp is compiled with -ffp-contract=off so the
// bits do not depend on whether the host has FMA.
//
// Memory model: the plan itself is immutable during evaluation and may be
// shared by any number of threads.  All mutable state lives in
// EvalWorkspace, whose storage is carved from a numeric::Arena — heap
// blocks are committed on first binding (the dense path's buffers on the
// first flagged lane) and reused forever after, so the
// steady-state evaluate path performs ZERO heap allocations (pinned by the
// zero-allocation regression test and the schema-v2 allocs_per_op bench
// counter).  One workspace must never be used from two threads at once;
// distinct workspaces over disjoint lane ranges of one plan may run fully
// concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/analysis.h"
#include "circuit/netlist.h"
#include "numeric/arena.h"
#include "numeric/matrix.h"

namespace gnsslna::circuit {

class BatchedPlan;

/// Contiguous [begin, end) slice of a frequency grid assigned to one
/// workspace/chunk.  Chunk boundaries depend only on (chunk, nchunks, n),
/// never on scheduling, which is what keeps multi-threaded band evaluation
/// bit-identical at every thread count.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

inline ChunkRange chunk_range(std::size_t chunk, std::size_t nchunks,
                              std::size_t n) {
  const std::size_t base = n / nchunks;
  const std::size_t rem = n % nchunks;
  const std::size_t extra = chunk < rem ? chunk : rem;
  const std::size_t b = chunk * base + extra;
  return {b, b + base + (chunk < rem ? 1 : 0)};
}

/// Reusable per-thread evaluation scratch: the assembled/factored compact
/// store and the solution lanes for one contiguous range of grid
/// frequencies.  All lane storage is carved from an internal Arena on
/// binding (BatchedPlan::factor rebinds automatically); rebinding to the
/// same plan shape reuses the committed blocks without touching the heap.
/// A lane that takes the dense path uses the LuDecomposition below, whose
/// storage is sized on the first such lane and reused after that.
class EvalWorkspace {
 public:
  EvalWorkspace() = default;

  EvalWorkspace(const EvalWorkspace&) = delete;
  EvalWorkspace& operator=(const EvalWorkspace&) = delete;
  EvalWorkspace(EvalWorkspace&&) = default;
  EvalWorkspace& operator=(EvalWorkspace&&) = default;

  /// Largest arena footprint ever reached (bytes); pinned by the
  /// zero-allocation regression test so silent workspace growth fails CI.
  std::size_t arena_high_water() const { return arena_.high_water(); }

  /// Lane range currently bound ([f_begin, f_end) grid indices).
  std::size_t f_begin() const { return f_begin_; }
  std::size_t f_end() const { return f_end_; }

  /// True once factor() has run for the bound plan at its current
  /// revision (i.e. results can be read without re-factoring).
  bool factored() const { return factored_; }

  /// True when grid lane fi (inside the factored range) failed the static
  /// program's health check and is solved on the dense path.
  bool repivoted(std::size_t fi) const {
    return factored_ && fi >= f_begin_ && fi < f_end_ &&
           dense_[fi - f_begin_] != 0.0;
  }

 private:
  friend class BatchedPlan;

  numeric::Arena arena_;
  const BatchedPlan* plan_ = nullptr;
  std::size_t bound_unknowns_ = 0;
  std::size_t bound_positions_ = 0;
  std::size_t bound_max_inj_ = 0;
  std::size_t lanes_ = 0;
  std::size_t f_begin_ = 0, f_end_ = 0;
  std::uint64_t seen_revision_ = 0;
  bool factored_ = false;
  bool have_ports_ = false;
  bool have_w_ = false;
  std::size_t w_port_ = 0;       // output port the transfer solve used
  std::size_t w_begin_ = 0;      // grid-index range the transfer solve
  std::size_t w_end_ = 0;        //   actually covered (may be a sub-slice)
  std::size_t reported_hwm_ = 0; // arena bytes already reported to obs

  // Arena-carved spans.  Store position p of lane l is p*lanes + l; vector
  // entry i of lane l is i*lanes + l.
  double* v_re_ = nullptr;       // assembled system -> static LU factors,
  double* v_im_ = nullptr;       //   filled positions only
  double* dinv_re_ = nullptr;    // stored pivot reciprocals, n lanes
  double* dinv_im_ = nullptr;
  double* colmax_ = nullptr;     // assembled column maxima, n lanes
  double* dense_ = nullptr;      // per lane: nonzero = dense path
  double* sol_re_ = nullptr;     // port solutions, 2*n lanes
  double* sol_im_ = nullptr;
  double* w_re_ = nullptr;       // output-transfer solution
  double* w_im_ = nullptr;
  Complex* h_ = nullptr;         // per-group injection transfers
  double* nh_re_ = nullptr;      // batched injection transfers
  double* nh_im_ = nullptr;      //   (max_injections rows, lane-major)
  double* nacc_ = nullptr;       // per-group quadratic-form accumulator
  double* npsd_ = nullptr;       // network noise PSD accumulator

  // Dense path: the factors of lane lu_lane_ (npos = none), and the
  // assembly and substitution buffers the solves reuse.
  numeric::ComplexMatrix dense_a_;
  numeric::LuDecomposition<Complex> lu_;
  std::size_t lu_lane_ = static_cast<std::size_t>(-1);
  std::vector<Complex> rhs_, x_, work_;
};

/// Frequency-batched evaluation plan; see file comment for the contract.
class BatchedPlan {
 public:
  BatchedPlan() = default;

  /// Compiles `netlist` over the grid, tabulating every element and noise
  /// group at every grid frequency (the values the closures return, laid
  /// out for batched assembly).  The netlist is not retained: later value
  /// changes go through the direct table views below.
  BatchedPlan(const Netlist& netlist, std::vector<double> grid_hz);

  const std::vector<double>& grid() const { return grid_; }
  std::size_t size() const { return grid_.size(); }
  const std::vector<Port>& ports() const { return ports_; }
  std::size_t unknowns() const { return unknowns_; }

  /// Revision of the tabulated matrix values, drawn from one process-wide
  /// counter at construction and again whenever the values change, so no
  /// two plans ever share one: a workspace that recognizes its plan by
  /// (address, revision) cannot mistake a plan built at a destroyed
  /// plan's address for the old one.
  std::uint64_t revision() const { return revision_; }

  // -- Direct retabulation views -------------------------------------
  // The allocation-free hot path (amplifier::BandEvaluator) bypasses the
  // Netlist closures entirely: it writes new tabulated values straight
  // into the plan through these views and then calls mark_values_dirty().
  // The written values must be exactly what the corresponding Netlist
  // closure would have returned — that is what keeps the direct path
  // bit-identical to compiling a fresh plan from a rebuilt netlist (pinned
  // by tests).

  /// Stamp value table; count == 1 for frequency-independent stamps,
  /// grid().size() otherwise.
  struct StampView {
    Complex* values;
    std::size_t count;
  };
  StampView stamp_view(std::size_t stamp_index);

  /// Two-port Y table, one rf::YParams per grid frequency, plus the nine
  /// expanded assembly term-kind rows ([kind * count + fi], in TpKind
  /// order).  Assembly reads ONLY the expanded rows, so every write must
  /// go through set(), which keeps both representations coherent.
  struct TwoPortView {
    rf::YParams* values;
    std::size_t count;
    double* kind_re;
    double* kind_im;

    /// Stores `y` at grid index fi and expands the nine assembly term
    /// values with exactly the component expressions Netlist::assemble
    /// forms (same operand order, so the expansion is bit-invisible).
    void set(std::size_t fi, const rf::YParams& y) const {
      values[fi] = y;
      const double r11 = y.y11.real(), i11 = y.y11.imag();
      const double r12 = y.y12.real(), i12 = y.y12.imag();
      const double r21 = y.y21.real(), i21 = y.y21.imag();
      const double r22 = y.y22.real(), i22 = y.y22.imag();
      const std::size_t g = count;
      kind_re[0 * g + fi] = r11;                    // kY11
      kind_im[0 * g + fi] = i11;
      kind_re[1 * g + fi] = r12;                    // kY12
      kind_im[1 * g + fi] = i12;
      kind_re[2 * g + fi] = -(r11 + r12);           // kNeg1112
      kind_im[2 * g + fi] = -(i11 + i12);
      kind_re[3 * g + fi] = r21;                    // kY21
      kind_im[3 * g + fi] = i21;
      kind_re[4 * g + fi] = r22;                    // kY22
      kind_im[4 * g + fi] = i22;
      kind_re[5 * g + fi] = -(r21 + r22);           // kNeg2122
      kind_im[5 * g + fi] = -(i21 + i22);
      kind_re[6 * g + fi] = -(r11 + r21);           // kNeg1121
      kind_im[6 * g + fi] = -(i11 + i21);
      kind_re[7 * g + fi] = -(r12 + r22);           // kNeg1222
      kind_im[7 * g + fi] = -(i12 + i22);
      kind_re[8 * g + fi] = r11 + r12 + r21 + r22;  // kSum
      kind_im[8 * g + fi] = i11 + i12 + i21 + i22;
    }
  };
  TwoPortView twoport_view(std::size_t twoport_index);

  /// Noise CSD table: row-major order x order complex block per grid
  /// frequency, laid out csd[fi*order*order + r*order + c].
  struct NoiseView {
    Complex* csd;
    std::size_t order;
    std::size_t count;  // grid().size()
  };
  NoiseView noise_view(std::size_t group_index);

  /// Invalidates cached factorizations after direct writes through the
  /// views above (noise-only writes do not need it: factorizations read
  /// only the matrix-side tables).
  void mark_values_dirty() { revision_ = next_revision(); }

  // -- Evaluation ------------------------------------------------------
  // All methods are const: the plan is shared read-only state and every
  // mutation happens inside the caller's workspace.

  /// Binds `ws` to lanes [f_begin, f_end) of this plan (re-carving its
  /// arena only if the shape changed), assembles the admittance system for
  /// every lane, runs the static LU program with its per-lane health check
  /// and factors every flagged lane on the dense path (which throws
  /// std::domain_error for a singular lane, like the oracle).  No-op when
  /// `ws` is already factored for this plan revision and range.
  void factor(EvalWorkspace& ws, std::size_t f_begin, std::size_t f_end) const;

  /// Solves the two port-excitation systems for every bound lane
  /// (requires exactly 2 ports sharing one z0, like s_params).
  void solve_ports(EvalWorkspace& ws) const;

  /// One transpose solve with e_out per lane: the reciprocity transfer
  /// vector that prices every noise injection at the output.  The optional
  /// [f_begin, f_end) grid-index range restricts the solve to a sub-slice
  /// of the bound lanes (band evaluation only prices noise in-band, so the
  /// stability lanes need no transfer solve); lanes are independent, so the
  /// computed sub-slice is bit-identical to a full-range solve.  Defaults
  /// to the whole bound range.
  void solve_output_transfer(EvalWorkspace& ws, std::size_t output_port,
                             std::size_t f_begin = kWholeRange,
                             std::size_t f_end = kWholeRange) const;

  /// Sentinel for solve_output_transfer's default lane range.
  static constexpr std::size_t kWholeRange = static_cast<std::size_t>(-1);

  /// Two-port S-parameters at grid index fi (must lie in the bound lane
  /// range; solve_ports must have run).  Within the written tolerance of
  /// circuit::s_params, and equal to it on a dense-path lane.
  rf::SParams s_params_at(const EvalWorkspace& ws, std::size_t fi) const;

  /// Standard (z0-source) noise analysis at grid index fi
  /// (solve_output_transfer must have run for `output_port`).  Within the
  /// written tolerance of circuit::noise_analysis, and equal to it on a
  /// dense-path lane.
  NoiseResult noise_at(const EvalWorkspace& ws, std::size_t fi,
                       std::size_t input_port, std::size_t output_port,
                       double t_source_k = rf::kT0) const;

  /// Batched noise_at over the transfer-solved lane range
  /// [ws.w_begin(), ws.w_end()): writes one NoiseResult per lane into
  /// `out` (out[0] is lane w_begin).  Per-lane arithmetic and operation
  /// order are exactly noise_at's — only the loop nesting across lanes
  /// differs — so every field is bit-identical to calling noise_at lane
  /// by lane.
  void noise_sweep(const EvalWorkspace& ws, std::size_t input_port,
                   std::size_t output_port, NoiseResult* out,
                   double t_source_k = rf::kT0) const;

 private:
  // Netlist::assemble's two-port expansion: which of the nine bump
  // expressions produces a term's value.  The numeric order is the row
  // order of the expanded kind tables written by TwoPortView::set.
  enum class TpKind : std::uint8_t {
    kY11, kY12, kNeg1112, kY21, kY22, kNeg2122, kNeg1121, kNeg1222, kSum
  };
  enum class Source : std::uint8_t { kStamp, kTwoPort, kPort };

  // One addition of a table value into one entry of the assembled
  // (ground-eliminated, port-terminated) matrix.  The flat list holds them
  // in exactly Netlist::assemble_terminated's order: every stamp bump,
  // then every two-port term, then every port termination.
  struct Scatter {
    std::uint32_t pos;    // compact store position
    std::uint32_t slot;   // row * n + col of the dense matrix
    std::uint32_t table;  // stamp, two-port or port index
    Source source;
    TpKind kind;          // two-port term expression (kTwoPort only)
    bool subtract;        // stamp bump of sign -1
    bool first;           // first write to `pos`: zero it before adding
  };

  // Filled positions of the static program grouped by row or column, with
  // each one's other index (the column in a row list, the row in a column
  // list): line i holds pos/index[start[i], start[i + 1]).
  struct LineLists {
    std::vector<std::uint32_t> pos, index, start;
  };

  struct StampTable {
    bool frequency_independent = false;
    std::vector<Complex> values;  // 1 entry if frequency-independent
  };
  struct TwoPortTable {
    std::vector<rf::YParams> values;
    // Expanded per-kind term values ([kind * grid + fi], TpKind order):
    // assembly adds these rows contiguously instead of re-deriving the
    // term expressions from the packed YParams on every factor.
    std::vector<double> kind_re, kind_im;
  };
  struct NoiseTable {
    std::vector<std::pair<NodeId, NodeId>> injections;
    std::size_t order = 0;
    std::vector<Complex> csd;  // [fi*order*order + r*order + c]
  };

  static std::uint64_t next_revision();
  void compile_program(const std::vector<bool>& assembled);
  void bind(EvalWorkspace& ws, std::size_t f_begin, std::size_t f_end) const;
  void assemble(EvalWorkspace& ws) const;
  void dense_factor(EvalWorkspace& ws, std::size_t lane) const;

  std::vector<double> grid_;
  std::vector<Port> ports_;
  std::size_t unknowns_ = 0;
  std::size_t max_injections_ = 1;
  std::vector<Scatter> scatter_;
  std::vector<StampTable> stamps_;
  std::vector<TwoPortTable> twoports_;
  std::vector<NoiseTable> noise_;

  // The static program: the assembled pattern plus the diagonal,
  // eliminated in diagonal order, its filled positions numbered row-major.
  std::size_t positions_ = 0;
  std::vector<std::uint32_t> diag_;  // position of (k, k)
  LineLists lower_rows_;  // L row i, columns < i ascending
  LineLists upper_rows_;  // U row i, columns > i ascending
  LineLists lower_cols_;  // L column k, rows > k ascending
  LineLists upper_cols_;  // U column k, rows < k ascending
  // Rank-1 update targets: step k, each L entry of column k, each U entry
  // of row k, in list order.
  std::vector<std::uint32_t> updates_;
  std::vector<std::uint32_t> fill_;  // positions only fill-in creates
  LineLists assembled_cols_;         // assembled positions by column
  std::uint64_t revision_ = next_revision();
};

}  // namespace gnsslna::circuit
