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
// Tables: every value table (stamp admittances, two-port term rows, noise
// CSDs, and the port terminations) is a set of (re, im) lane row pairs
// over the plan grid in one plan-owned buffer, addressed by row offset,
// so copying or moving a plan keeps its compiled programs valid.
//
// Structure: the MNA system is sparse (the fig. 3 amplifier has 47
// structural nonzeros among 15 x 15 entries).  When the plan is built it
// orders the elimination by greedy minimum degree on the assembled
// pattern (ties to the lowest unknown), eliminates the pattern
// symbolically in that order and compiles the result into one static
// program: a compact lane-major store holding only the filled positions
// (47 for fig. 3: the order fills none), a flat list of rank-1 update
// steps, per-row and per-column substitution lists, and the row lists of
// the solves (the rows the port sources reach through L, the rows the
// port rows need through U, the rows the output row reaches through U^T).
// Assembly and the noise sweep are compiled in that order too: a
// position-major list of (row offset, sign) contributions, and a flat
// list of injection rows and CSD rows per noise group.  factor,
// solve_ports, solve_output_transfer and noise_sweep run these programs
// for any lane count with no pivot search, row swap or per-element
// dispatch; the only permutation is the fixed one of the compiled order.
// DESIGN.md ("Batched evaluation core") describes the programs.
//
// Accuracy contract: results agree with the per-call analyses
// (circuit::s_params / noise_analysis, the reference oracle of the tests)
// within the written tolerance of tests/reference_band.h, not bit for bit
// — the static order is not the oracle's partial pivoting.  Every lane is
// checked from values the factorization already holds: its pivots against
// the maxima of their assembled columns, and every U entry against the
// maximum of its column (element growth).  A lane that fails (every lane,
// when a diagonal position is structurally zero) is re-assembled densely
// in Netlist::assemble_terminated (node) order and solved through
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

  /// Output-transfer solution at unknown i (node i + 1, whatever row the
  /// elimination order stores it in) of grid lane fi,
  /// for the lanes the last solve_output_transfer covered (for
  /// transfer_port(), at the plan's current revision); throws
  /// std::logic_error for any other lane.  Read-only access for
  /// inspection and the tests' lane-by-lane replay of the noise sweep.
  Complex transfer(std::size_t i, std::size_t fi) const;
  std::size_t transfer_port() const { return w_port_; }

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

  // Arena-carved spans.  Store position p of lane l is p*lanes + l; the
  // vector entry of store row k of lane l is k*lanes + l.
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
  double* nh_re_ = nullptr;      // injection transfers of one noise group
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
  /// changes go through the direct table views below.  Throws
  /// std::invalid_argument for a netlist without unknowns.
  BatchedPlan(const Netlist& netlist, std::vector<double> grid_hz);

  const std::vector<double>& grid() const { return grid_; }
  std::size_t size() const { return grid_.size(); }
  const std::vector<Port>& ports() const { return ports_; }
  std::size_t unknowns() const { return unknowns_; }
  /// Stored positions of the compiled LU program: the assembled pattern
  /// plus the diagonal plus the fill of the elimination order.
  std::size_t positions() const { return positions_; }

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
  // by tests).  Every view covers all grid().size() lanes; a
  // frequency-independent stamp holds its value in every lane.

  /// Stamp value table: one (re, im) lane row pair.
  struct StampView {
    double* re;
    double* im;
    std::size_t count;  // grid().size()
  };
  StampView stamp_view(std::size_t stamp_index);

  /// Two-port Y table: the nine assembly term rows (rf::YTermRows, one
  /// lane per grid frequency), the only form assembly reads.  The element
  /// lane kernels write the rows directly.
  struct TwoPortView {
    rf::YTermRows terms;
    std::size_t count;  // grid().size()
  };
  TwoPortView twoport_view(std::size_t twoport_index);

  /// Noise CSD table: order x order CSD rows, one lane per grid frequency.
  struct NoiseView {
    CsdRows csd;
    std::size_t count;  // grid().size()
  };
  NoiseView noise_view(std::size_t group_index);

  /// Read-only view of the noise groups as the noise program reads them:
  /// group gi's injections (node pairs) and its CSD entry (i, j) at grid
  /// lane fi.  For inspection and the tests' lane-by-lane replay of the
  /// noise sweep.
  std::size_t noise_group_count() const { return noise_.size(); }
  const std::vector<std::pair<NodeId, NodeId>>& noise_injections(
      std::size_t group_index) const {
    return noise_.at(group_index).injections;
  }
  Complex noise_csd(std::size_t group_index, std::size_t i, std::size_t j,
                    std::size_t fi) const;

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

  /// Two-port S-parameters of grid lanes [f_begin, f_end) into `out`
  /// (lane 0 of the rows is f_begin), in one lane pass (the lanes must lie
  /// in the bound range; solve_ports must have run).  Within the written
  /// tolerance of circuit::s_params, and equal to it on a dense-path lane.
  void s_params_sweep(const EvalWorkspace& ws, std::size_t f_begin,
                      std::size_t f_end, const rf::SRows& out) const;

  /// S-parameters at grid index fi: the one-lane call of s_params_sweep.
  rf::SParams s_params_at(const EvalWorkspace& ws, std::size_t fi) const;

  /// Standard (z0-source) noise analysis over the transfer-solved lane
  /// range [w_begin, w_end): one NoiseResult per lane into `out` (out[0]
  /// is lane w_begin), from the compiled noise program.  Within the
  /// written tolerance of circuit::noise_analysis, and equal to it on a
  /// dense-path lane.
  void noise_sweep(const EvalWorkspace& ws, std::size_t input_port,
                   std::size_t output_port, NoiseResult* out,
                   double t_source_k = rf::kT0) const;

 private:
  friend class EvalWorkspace;

  // One addition of Netlist::assemble_terminated, in its order (every
  // stamp bump, then every two-port term, then every port termination),
  // with ground-touching terms dropped: the dense path replays the list.
  // `code` is the row offset of the added table row pair shifted left
  // once, bit 0 set where the value is negated first (a stamp bump of
  // sign -1).
  struct Scatter {
    std::uint32_t slot;  // row * n + col of the dense matrix
    std::size_t code;
  };

  // Filled positions of the static program grouped by row or column, with
  // each one's other index (the column in a row list, the row in a column
  // list): line i holds pos/index[start[i], start[i + 1]).
  struct LineLists {
    std::vector<std::uint32_t> pos, index, start;
  };

  struct NoiseTable {
    std::vector<std::pair<NodeId, NodeId>> injections;
    std::size_t order = 0;
    std::size_t rows = 0;  // offset of its order^2 row pairs
  };

  static std::uint64_t next_revision();
  void compile_program(const std::vector<bool>& assembled);
  void bind(EvalWorkspace& ws, std::size_t f_begin, std::size_t f_end) const;
  void dense_factor(EvalWorkspace& ws, std::size_t lane) const;

  std::vector<double> grid_;
  std::vector<Port> ports_;
  std::size_t unknowns_ = 0;
  std::size_t max_injections_ = 1;

  // Every value table as (re, im) lane row pairs of grid_.size() lanes:
  // the pair at offset o holds the re lanes at o and the im lanes at
  // o + grid_.size().  Offset 0 is a pair of zeros (the assembly's
  // fill-in positions and the noise program's ground).
  std::vector<double> rows_;
  std::vector<std::size_t> stamp_rows_;    // one pair per stamp
  std::vector<std::size_t> twoport_rows_;  // nine pairs (rf::YTermRows order)
  std::vector<NoiseTable> noise_;
  std::vector<Scatter> scatter_;

  // The compiled assembly: position p sums the row pairs
  // asm_code_[asm_start_[p] .. asm_start_[p + 1]) (Scatter::code form, in
  // scatter order; a fill-in position adds the zero pair) from +0.0, and
  // asm_col_[p] is its column shifted left once, bit 0 set on the first
  // position of that column (row-major numbering).
  std::vector<std::uint32_t> asm_start_, asm_col_;
  std::vector<std::size_t> asm_code_;

  // The compiled noise program: per group with injections its order and
  // the offset of its CSD row pairs; per injection (groups back to back)
  // the store rows of its two nodes, kGroundRow for ground.
  static constexpr std::uint32_t kGroundRow = 0xffffffffu;
  std::vector<std::uint32_t> noise_order_;
  std::vector<std::size_t> noise_csd_;
  std::vector<std::uint32_t> noise_from_, noise_to_;

  // The static program: the assembled pattern plus the diagonal,
  // eliminated in the compiled order: unknown i is row and column
  // row_of_[i] of the store (the step that eliminates it).  Filled
  // positions are numbered row-major in store order.
  std::vector<std::uint32_t> row_of_;
  std::size_t positions_ = 0;
  std::vector<std::uint32_t> diag_;  // position of (k, k)
  LineLists lower_rows_;  // L row i, columns < i ascending
  LineLists upper_rows_;  // U row i, columns > i ascending
  LineLists lower_cols_;  // L column k, rows > k ascending
  LineLists upper_cols_;  // U column k, rows < k ascending
  // Rank-1 update targets: step k, each L entry of column k, each U entry
  // of row k, in list order.
  std::vector<std::uint32_t> updates_;
  // The solves' row lists, in store rows.  Port solve (two ports only):
  // the forward rows either source reaches through L, ascending, each as
  // row << 2 | sides (bit s: source s reaches it, its own row excluded),
  // and the back-substitution rows the two port rows need through U,
  // descending.  Transfer: per output port p, the rows its row reaches
  // through U^T, ascending, at transfer_rows_[transfer_start_[p] ..
  // transfer_start_[p + 1]).  Every other row of a solve's vector is a
  // structural zero (or, after back substitution, a row no port reads).
  std::vector<std::uint32_t> forward_rows_, back_rows_;
  std::vector<std::uint32_t> transfer_rows_, transfer_start_;
  std::uint64_t revision_ = next_revision();
};

}  // namespace gnsslna::circuit
