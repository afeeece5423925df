//! The product LP solver: a sparse-pivot twin of the dense two-phase
//! simplex in [`crate::simplex`], bit-compatible by construction.
//!
//! The covering relaxations the CED pipeline builds are very sparse: a
//! `≤` linking row holds one `t` term, the `β` terms of one block and a
//! slack; a `≥` demand row holds `p·L` unit terms. Under elimination
//! the tableau stays sparse — typical rows keep well under a tenth of
//! their columns nonzero — yet the dense solver's per-pivot update
//! `row_i -= factor · row_r` walks every column of every touched row,
//! although only `row_r`'s nonzero columns can change anything.
//!
//! This solver stores the tableau **column-major** (`cols[j][i]` is the
//! dense tableau's `t[i][j]`) and bounds every pivot to the true
//! nonzero structure: the ratio test is one contiguous scan of the
//! entering column that also gathers its nonzero `(row, factor)` pairs;
//! the pivot row is gathered through a per-row column-support bitmap
//! into a packed `(column, value)` list; and the elimination walks the
//! packed columns contiguously, updating only the gathered factor rows.
//! Cache lines carry only cells that change — the dense row-major sweep
//! streams the full `m × n` block per pivot, which is why it loses by
//! an order of magnitude on the covering LPs despite being
//! SIMD-friendly. The solver performs **exactly the floating-point
//! operations the dense solver performs on nonzero operands**:
//!
//! * pricing, entering choice, Bland switch, ratio-test candidate
//!   logic, tie-breaks and tolerances are the dense code verbatim, and
//!   the entering column is visited in the dense loop's ascending row
//!   order, so the candidate sequence — and the tie-break outcome — is
//!   identical (rows holding an exact zero have `|delta| ≤ PIVOT_TOL`
//!   and are never candidates in the dense code either);
//! * each eliminated cell computes the dense update `x − factor·y` on
//!   identical operands, with `factor` captured from the entering
//!   column before any elimination write, exactly as the dense code
//!   reads it; cells are independent (no cell is both read and written
//!   across the pivot), so visiting columns-outer instead of rows-outer
//!   reorders no arithmetic *within* any cell;
//! * per-`z[j]` and per-`beta[i]` accumulation orders are preserved
//!   (ascending basic-row order in `SparseTableau::reprice`, one
//!   update per pivot elsewhere);
//! * the skipped cells hold an exact `0.0` operand, where the dense
//!   update (`x − factor·0.0`, `0.0 · inv`, `z − zfactor·0.0`, a ratio
//!   candidate with `delta = ±0.0`) is an identity on the magnitude of
//!   the target.
//!
//! The skipped operations can differ from the dense ones only in the
//! sign of a zero, which no comparison, pivot choice or reported value
//! in this solver observes (IEEE-754 orders `−0.0 == +0.0`). Hence
//! [`solve_sparse`] returns solutions equal (`==` on [`LpSolution`],
//! including iteration counts) to [`crate::simplex::solve`]; the seeded
//! differential tests in `tests/seeded.rs` pin this.
//!
//! The support bitmaps are supersets: exact cancellation leaves a stale
//! bit whose cell holds an exact `0.0`, which every gather re-checks by
//! value. Bits are cleared only when a set is recomputed exactly (the
//! pivot row's support after normalization).
//!
//! **Virtual artificial columns.** The dense tableau gives every row
//! `i` an artificial column `e_i`. An inequality row's slack column is
//! `σ_i·e_i`, with `σ_i = ±1.0` the slack cell after the negation of a
//! negative-RHS row. Every pivot applies the same operations to every
//! column (scale row `r` by `inv`, then `x − factor·y`), and negation
//! is exact in IEEE-754, so the artificial stays bitwise `σ_i ×` its
//! slack twin for the whole solve, up to the sign of a zero. Only the
//! structural and slack columns and the artificials of equality rows
//! are stored; an inequality row's artificial is read as `σ_i ×` its
//! twin where the dense code reads it — the ratio-test gather and the
//! pivot value when it enters, `SparseTableau::reprice` and the
//! reduced-cost update — and normalization, elimination and the
//! support bitmaps never visit it. The seeded tests over every row
//! kind (`≤`, `≥`, `=`, negated, infeasible) pin this.
//!
//! The search runs only this solver. The dense solver stays as the
//! reference it is tested against and as the independent float solver
//! behind the certifier's LP check (DESIGN.md §15). On the committed
//! search bench the sparse path is ahead on every machine, tiny ones
//! included, so no size threshold switches back to the dense sweep.

use crate::problem::{ConstraintOp, LinearProgram, Sense};
use crate::simplex::{LpSolution, SolveError};
use ced_runtime::Budget;
use std::cell::RefCell;

thread_local! {
    /// Reused backing for the two large per-solve allocations — the
    /// column-major cells and the row-support bitmaps. The search
    /// solves long runs of identically-shaped LPs; reusing the
    /// buffers keeps their pages warm. Contents are fully rewritten
    /// at the start of every solve.
    static TABLEAU_SCRATCH: RefCell<(Vec<f64>, Vec<u64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Same decision tolerances as the dense solver — shared meaning of
/// "zero" is a precondition for bit-compatibility.
const TOL: f64 = crate::EPS;
const PIVOT_TOL: f64 = 10.0 * crate::EPS;
const PHASE1_TOL: f64 = 100.0 * crate::EPS;

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// `SparseTableau::stored` entry of a stored column no artificial
/// reads as its twin.
const NO_TWIN: u32 = u32::MAX;

struct SparseTableau {
    /// Column-major cells of the stored columns, one flat allocation:
    /// stored column `p` occupies `cols[p * m..(p + 1) * m]`. The
    /// entering-column scan and the per-column eliminations are
    /// contiguous in this layout.
    cols: Vec<f64>,
    /// Row count (the column stride of `cols`).
    m: usize,
    /// Per logical column `j` (the dense tableau's column order): the
    /// stored column it reads and the sign it reads it with. The dense
    /// tableau's `t[i][j]` is `sign · cols[p * m + i]`. The sign is
    /// `1.0` except for a virtual artificial whose twin's slack cell is
    /// `−1.0` (a `≥` row, or a `≤` row negated for its RHS; module
    /// docs).
    column: Vec<(u32, f64)>,
    /// Per stored column `p`: the logical column it is, and the logical
    /// artificial that reads it as its twin ([`NO_TWIN`] when none).
    stored: Vec<(u32, u32)>,
    /// Per-row bitmap over stored columns, flat with stride `words`:
    /// bit `p` of row `i`'s slice set when `cols[p * m + i]` *may* be
    /// nonzero (a superset — cancellations leave stale bits, and every
    /// gather re-checks the cell by value). Cells outside the set hold
    /// a zero.
    row_support: Vec<u64>,
    /// `row_support` stride (`ceil(stored columns / 64)`).
    words: usize,
    /// Reused packed `(column, value)` gather of the normalized pivot
    /// row.
    pivot_scratch: Vec<(u32, f64)>,
    /// Reused packed `(row, value)` gather of the entering column,
    /// filled by the ratio test.
    factor_scratch: Vec<(u32, f64)>,
    /// Reused dense scatter of the entering column's factors (zero
    /// outside the gathered rows), for the branchless elimination
    /// sweep.
    factor_dense: Vec<f64>,
    /// Reused column-set bitmap of the packed pivot row.
    mask_scratch: Vec<u64>,
    /// Bitmap of columns the entering scan must visit: exactly the
    /// non-basic columns with `upper > 0` — the columns the dense scan
    /// does not `continue` past before reading anything that matters.
    /// Maintained per pivot; rebuilt at the start of each phase.
    eligible: Vec<u64>,
    z: Vec<f64>,
    beta: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    iterations: usize,
}

/// Visits the set bits of `words` in ascending index order.
#[inline]
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            f(wi * 64 + b);
        }
    }
}

impl SparseTableau {
    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(r) => self.beta[r],
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.upper[j],
        }
    }

    fn objective(&self) -> f64 {
        (0..self.cost.len())
            .map(|j| self.cost[j] * self.value_of(j))
            .sum()
    }

    /// Recomputes the reduced-cost row. The dense loop subtracts
    /// `cb[i]·t[i][j]` from each `z[j]` for ascending `i`, skipping
    /// zero basic costs; iterating columns-outer performs the same
    /// subtraction sequence per `z[j]`. A virtual column's cell is its
    /// twin's cell times `±1.0`, an exact product.
    fn reprice(&mut self) {
        let cb: Vec<(usize, f64)> = self
            .basis
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (self.cost[b] != 0.0).then_some((i, self.cost[b])))
            .collect();
        self.z.copy_from_slice(&self.cost);
        if cb.is_empty() {
            return;
        }
        let m = self.m;
        for (zj, &(p, sign)) in self.z.iter_mut().zip(&self.column) {
            let col = &self.cols[p as usize * m..(p as usize + 1) * m];
            for &(i, c) in &cb {
                *zj -= c * (sign * col[i]);
            }
        }
    }

    /// One simplex phase; the dense `optimize` with pivot-row-bounded
    /// eliminations.
    fn optimize(&mut self, max_iterations: usize, budget: &Budget) -> Result<(), SolveError> {
        let n = self.cost.len();
        let m = self.basis.len();
        self.reprice();
        // The dense entering scan skips basic columns and columns with
        // `upper ≤ 0` before any decision depends on their values;
        // visiting exactly the remainder, ascending, picks the same
        // column. Upper bounds change only between phases, so the set
        // is rebuilt here and maintained per pivot below.
        self.eligible.clear();
        self.eligible.resize(n.div_ceil(64), 0);
        for j in 0..n {
            let nonbasic = !matches!(self.status[j], VarStatus::Basic(_));
            if nonbasic && self.upper[j] > 0.0 {
                self.eligible[j / 64] |= 1 << (j % 64);
            }
        }
        self.factor_dense.clear();
        self.factor_dense.resize(m, 0.0);
        let bland_after = max_iterations / 2;
        let mut local_iter = 0usize;
        loop {
            local_iter += 1;
            self.iterations += 1;
            if local_iter > max_iterations {
                return Err(SolveError::IterationLimit);
            }
            budget.charge(1);
            if local_iter % 128 == 1 {
                budget
                    .check("simplex:pivot")
                    .map_err(SolveError::Interrupted)?;
            }
            let use_bland = local_iter > bland_after;

            // Entering variable — the dense logic over the eligible
            // set. Columns the bitmap skips are exactly those the
            // dense scan `continue`s past (basic, or `upper ≤ 0` — the
            // z-sign test on those can only lead to that same
            // `continue`), so the candidate order and the Dantzig /
            // Bland choice are identical.
            let mut entering: Option<(usize, f64)> = None;
            let mut best_score = TOL;
            'scan: for (wi, &word) in self.eligible.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let j = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    let dir = match self.status[j] {
                        VarStatus::Basic(_) => unreachable!("basic columns are not eligible"),
                        VarStatus::AtLower => {
                            if self.z[j] >= -TOL {
                                continue;
                            }
                            1.0
                        }
                        VarStatus::AtUpper => {
                            if self.z[j] <= TOL {
                                continue;
                            }
                            -1.0
                        }
                    };
                    if use_bland {
                        entering = Some((j, dir));
                        break 'scan;
                    }
                    let score = self.z[j].abs();
                    if score > best_score {
                        best_score = score;
                        entering = Some((j, dir));
                    }
                }
            }
            let Some((e, dir)) = entering else {
                return Ok(());
            };

            // Ratio test — the dense candidate logic over a contiguous
            // scan of the entering column, rows ascending exactly as
            // the dense loop visits them (rows holding an exact zero
            // have `|delta| ≤ PIVOT_TOL` and are never candidates in
            // the dense code either). The scan also gathers the
            // column's nonzero `(row, factor)` pairs — the factors the
            // dense elimination will read — before anything writes to
            // the column. A virtual entering column is read through
            // its twin.
            let mut factors = std::mem::take(&mut self.factor_scratch);
            factors.clear();
            let tie = TOL;
            let mut t_limit = self.upper[e];
            let mut leave: Option<(usize, bool)> = None;
            let mut best_pivot = 0.0f64;
            let (pe, sign_e) = self.column[e];
            let pe = pe as usize;
            for (i, &cell) in self.cols[pe * m..pe * m + m].iter().enumerate() {
                if cell == 0.0 {
                    continue;
                }
                let w = sign_e * cell;
                factors.push((i as u32, w));
                let delta = -dir * w;
                let candidate = if delta < -PIVOT_TOL {
                    Some((self.beta[i].max(0.0) / (-delta), false))
                } else if delta > PIVOT_TOL {
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        Some(((ub - self.beta[i]).max(0.0) / delta, true))
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some((t, hits_upper)) = candidate {
                    let better = t < t_limit - tie || (t < t_limit + tie && w.abs() > best_pivot);
                    if better {
                        t_limit = t.min(t_limit);
                        best_pivot = w.abs();
                        leave = Some((i, hits_upper));
                    }
                }
            }

            if t_limit.is_infinite() {
                return Err(SolveError::Unbounded);
            }
            let t_step = t_limit.max(0.0);

            match leave {
                None => {
                    // Bound flip — the dense loop restricted to the
                    // column's nonzero rows (skipped rows add
                    // `(−dir·0.0)·t_step`, an exact no-op on the
                    // magnitude of `beta`).
                    for &(i, w) in &factors {
                        let delta = -dir * w;
                        self.beta[i as usize] += delta * t_step;
                    }
                    self.status[e] = match self.status[e] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic(_) => unreachable!("entering is nonbasic"),
                    };
                }
                Some((r, hits_upper)) => {
                    for &(i, w) in &factors {
                        if i as usize != r {
                            let delta = -dir * w;
                            self.beta[i as usize] += delta * t_step;
                        }
                    }
                    let entering_value = if dir > 0.0 {
                        t_step
                    } else {
                        self.upper[e] - t_step
                    };
                    let leaving = self.basis[r];
                    self.status[leaving] = if hits_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    // Pivot: normalize row r through its support
                    // bitmap, gathering the nonzero `(column, value)`
                    // pairs ascending — the dense column order. Zero
                    // cells are `0.0 · inv` in dense too; a cell
                    // scaled to an exact zero (underflow) stays stored
                    // and every later dense use of it is a `±0.0`
                    // no-op, so dropping it from the gather is exact.
                    let pivot = sign_e * self.cols[pe * m + r];
                    debug_assert!(pivot.abs() > PIVOT_TOL * 0.01, "tiny pivot {pivot}");
                    let inv = 1.0 / pivot;
                    let mut packed = std::mem::take(&mut self.pivot_scratch);
                    packed.clear();
                    {
                        let cols = &mut self.cols;
                        let support = &self.row_support[r * self.words..(r + 1) * self.words];
                        for_each_bit(support, |j| {
                            let v = &mut cols[j * m + r];
                            if *v != 0.0 {
                                *v *= inv;
                                if *v != 0.0 {
                                    packed.push((j as u32, *v));
                                }
                            }
                        });
                    }
                    // Eliminate: the dense code updates cell (i, j)
                    // as `t[i][j] -= factor · y_j` for every nonzero
                    // factor row i ≠ r and every pivot-row column j.
                    // Each cell is touched once with operands fixed
                    // before the sweep, so walking columns-outer
                    // (contiguous in this layout) computes the
                    // identical values.
                    // Scatter the captured factors into a dense
                    // m-vector (zero at the pivot row and every row
                    // the dense code skips), then sweep each packed
                    // column contiguously. Skipped rows compute
                    // `x − (±0.0)·y`, exact on the magnitude of `x`,
                    // and the sweep is branchless — the compiler
                    // vectorizes it.
                    factors.retain(|&(i, _)| i as usize != r);
                    for &(i, factor) in &factors {
                        self.factor_dense[i as usize] = factor;
                    }
                    {
                        let cols = &mut self.cols;
                        let fd = &self.factor_dense;
                        for &(j, y) in &packed {
                            let col = &mut cols[j as usize * m..j as usize * m + m];
                            for (x, &factor) in col.iter_mut().zip(fd) {
                                *x -= factor * y;
                            }
                        }
                    }
                    for &(i, _) in &factors {
                        self.factor_dense[i as usize] = 0.0;
                    }
                    // The elimination wrote cells only at (factor
                    // rows) × (pivot-row columns): widen those rows'
                    // bitmaps. Row r's support is now exactly the
                    // packed set.
                    let mut mask = std::mem::take(&mut self.mask_scratch);
                    mask.clear();
                    mask.resize(self.words, 0);
                    for &(j, _) in &packed {
                        mask[j as usize / 64] |= 1 << (j as usize % 64);
                    }
                    let words = self.words;
                    for &(i, _) in &factors {
                        let sup = &mut self.row_support[i as usize * words..];
                        for (dst, &src) in sup.iter_mut().zip(&mask) {
                            *dst |= src;
                        }
                    }
                    self.row_support[r * words..(r + 1) * words].copy_from_slice(&mask);
                    self.mask_scratch = mask;
                    // Reduced costs: dense subtracts over every column
                    // of (normalized) row r; zero columns contribute
                    // `zfactor · 0.0`. A stored column's virtual twin
                    // holds `±y` in row r and takes its update here.
                    let zfactor = self.z[e];
                    if zfactor != 0.0 {
                        for &(p, y) in &packed {
                            let (j, twin) = self.stored[p as usize];
                            self.z[j as usize] -= zfactor * y;
                            if twin != NO_TWIN {
                                let sign = self.column[twin as usize].1;
                                self.z[twin as usize] -= zfactor * (sign * y);
                            }
                        }
                    }
                    self.pivot_scratch = packed;
                    self.basis[r] = e;
                    self.status[e] = VarStatus::Basic(r);
                    self.beta[r] = entering_value;
                    // Maintain the eligible set: `e` became basic, the
                    // leaving column became nonbasic (eligible only
                    // when its upper bound admits movement).
                    self.eligible[e / 64] &= !(1 << (e % 64));
                    if self.upper[leaving] > 0.0 {
                        self.eligible[leaving / 64] |= 1 << (leaving % 64);
                    }
                }
            }
            self.factor_scratch = factors;
        }
    }
}

/// Solves a linear program with the sparse-pivot simplex.
///
/// Returns solutions equal to [`crate::simplex::solve`] (same `x`,
/// objective, duals and iteration count).
///
/// # Errors
///
/// As [`crate::simplex::solve`].
pub fn solve_sparse(lp: &LinearProgram) -> Result<LpSolution, SolveError> {
    solve_budgeted_sparse(lp, &Budget::unlimited())
}

/// [`solve_sparse`] under a [`Budget`], charging and checking exactly
/// as [`crate::simplex::solve_budgeted`] does (one unit per pivot, a
/// check every 128).
///
/// # Errors
///
/// As [`crate::simplex::solve_budgeted`].
pub fn solve_budgeted_sparse(
    lp: &LinearProgram,
    budget: &Budget,
) -> Result<LpSolution, SolveError> {
    let n_struct = lp.num_variables();
    let m = lp.num_constraints();
    let lower = lp.lower_bounds();
    let upper = lp.upper_bounds();

    let mut shifted_upper: Vec<f64> = (0..n_struct).map(|j| upper[j] - lower[j]).collect();
    let sign = match lp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost: Vec<f64> = lp.objective().iter().map(|c| sign * c).collect();

    let mut n_total = n_struct;
    let mut slack_col: Vec<Option<usize>> = vec![None; m];
    for (i, c) in lp.constraints().iter().enumerate() {
        if !matches!(c.op, ConstraintOp::Eq) {
            slack_col[i] = Some(n_total);
            n_total += 1;
        }
    }
    let n_with_slack = n_total;
    let art_base = n_with_slack;
    n_total += m;

    // Stored columns: the structural and slack columns in logical
    // order, then the artificials of equality rows. An inequality
    // row's artificial is virtual, read through its slack twin.
    let mut column: Vec<(u32, f64)> = (0..n_with_slack as u32).map(|j| (j, 1.0)).collect();
    let mut stored: Vec<(u32, u32)> = (0..n_with_slack as u32).map(|j| (j, NO_TWIN)).collect();
    for (i, sc) in slack_col.iter().enumerate() {
        let aj = (art_base + i) as u32;
        match *sc {
            // The sign is fixed once the row is assembled below.
            Some(sc) => {
                column.push((sc as u32, 1.0));
                stored[sc].1 = aj;
            }
            None => {
                column.push((stored.len() as u32, 1.0));
                stored.push((aj, NO_TWIN));
            }
        }
    }
    let n_stored = stored.len();

    // Assemble each row exactly as the dense solver does (duplicate
    // terms add, lower bounds shift the RHS, negative-RHS rows negate
    // in place), writing straight into the column-major store and the
    // row-support bitmaps. A duplicate pair cancelling to an exact
    // zero leaves a stale support bit over a zero cell, which every
    // later gather re-checks by value.
    let words = n_stored.div_ceil(64);
    let (mut cols, mut row_support) =
        TABLEAU_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    cols.clear();
    cols.resize(n_stored * m, 0.0);
    row_support.clear();
    row_support.resize(m * words, 0);
    let mut rhs = vec![0.0f64; m];
    let mut row_sign = vec![1.0f64; m];
    for (i, c) in lp.constraints().iter().enumerate() {
        let support = &mut row_support[i * words..(i + 1) * words];
        let mut b = c.rhs;
        for (v, a) in &c.terms {
            cols[v.0 * m + i] += *a;
            b -= *a * lower[v.0];
            support[v.0 / 64] |= 1 << (v.0 % 64);
        }
        if let Some(sc) = slack_col[i] {
            cols[sc * m + i] = match c.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => unreachable!(),
            };
            support[sc / 64] |= 1 << (sc % 64);
        }
        if b < 0.0 {
            // The dense code negates the full row; its zero cells
            // only change zero sign.
            for_each_bit(support, |j| {
                let v = &mut cols[j * m + i];
                *v = -*v;
            });
            b = -b;
            row_sign[i] = -1.0;
        }
        rhs[i] = b;
        // The dense artificial column is `e_i`. An inequality row's
        // slack column is `σ·e_i` with `σ = ±1.0` its cell after the
        // negation, so the artificial reads the slack times `σ`.
        match slack_col[i] {
            Some(sc) => column[art_base + i].1 = cols[sc * m + i],
            None => {
                let p = column[art_base + i].0 as usize;
                cols[p * m + i] = 1.0;
                support[p / 64] |= 1 << (p % 64);
            }
        }
    }
    shifted_upper.resize(n_with_slack, f64::INFINITY);
    cost.resize(n_with_slack, 0.0);
    shifted_upper.resize(n_total, f64::INFINITY);
    let mut phase1_cost = vec![0.0f64; n_total];
    for j in art_base..n_total {
        phase1_cost[j] = 1.0;
    }

    let mut status = vec![VarStatus::AtLower; n_total];
    let mut basis = Vec::with_capacity(m);
    for (i, st) in status[art_base..].iter_mut().enumerate() {
        *st = VarStatus::Basic(i);
        basis.push(art_base + i);
    }

    let mut tab = SparseTableau {
        cols,
        m,
        column,
        stored,
        row_support,
        words,
        pivot_scratch: Vec::new(),
        factor_scratch: Vec::new(),
        factor_dense: Vec::new(),
        mask_scratch: Vec::new(),
        eligible: Vec::new(),
        z: vec![0.0; n_total],
        beta: rhs,
        basis,
        status,
        upper: shifted_upper,
        cost: phase1_cost,
        iterations: 0,
    };

    let max_iterations = 200 * (m + n_total) + 20_000;

    let run = (|| -> Result<(), SolveError> {
        tab.optimize(max_iterations, budget)?;
        if tab.objective() > PHASE1_TOL {
            return Err(SolveError::Infeasible);
        }
        for j in art_base..n_total {
            tab.upper[j] = 0.0;
        }
        cost.resize(n_total, 0.0);
        tab.cost = cost;
        tab.optimize(max_iterations, budget)
    })();

    let out = run.map(|()| {
        let mut x = vec![0.0f64; n_struct];
        for (j, xv) in x.iter_mut().enumerate() {
            *xv = tab.value_of(j) + lower[j];
        }
        let objective = lp.objective_value(&x);
        tab.reprice();
        let duals = (0..m)
            .map(|i| sign * row_sign[i] * -tab.z[art_base + i])
            .collect();
        LpSolution {
            x,
            objective,
            duals,
            iterations: tab.iterations,
        }
    });

    TABLEAU_SCRATCH.with(|s| {
        *s.borrow_mut() = (
            std::mem::take(&mut tab.cols),
            std::mem::take(&mut tab.row_support),
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp::*, LinearProgram, Sense};
    use crate::simplex::solve;

    /// Bitwise-equal against the dense solver (LpSolution derives
    /// PartialEq over its f64 fields).
    fn assert_matches_dense(lp: &LinearProgram) {
        let dense = solve(lp);
        let sparse = solve_sparse(lp);
        match (dense, sparse) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("dense {a:?} vs sparse {b:?}"),
        }
    }

    #[test]
    fn textbook_instances_match_dense_exactly() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Le, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Le, 6.0);
        assert_matches_dense(&lp);

        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, f64::INFINITY, 2.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 1.0);
        assert_matches_dense(&lp);

        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, 2.0, 1.0);
        let y = lp.add_variable(0.0, 3.0, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Eq, 3.0);
        assert_matches_dense(&lp);
    }

    #[test]
    fn typed_failures_match_dense() {
        let mut infeasible = LinearProgram::new(Sense::Maximize);
        let x = infeasible.add_variable(0.0, 1.0, 1.0);
        infeasible.add_constraint(vec![(x, 1.0)], Ge, 2.0);
        assert_matches_dense(&infeasible);

        let mut unbounded = LinearProgram::new(Sense::Maximize);
        let x = unbounded.add_variable(0.0, f64::INFINITY, 1.0);
        let y = unbounded.add_variable(0.0, f64::INFINITY, 0.0);
        unbounded.add_constraint(vec![(x, 1.0), (y, -1.0)], Le, 1.0);
        assert_matches_dense(&unbounded);
    }

    #[test]
    fn negative_rhs_and_bounds_match_dense() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Le, -2.0);
        assert_matches_dense(&lp);

        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(2.0, 10.0, 1.0);
        let y = lp.add_variable(3.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 6.0);
        assert_matches_dense(&lp);
    }

    #[test]
    fn degenerate_vertex_matches_dense() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
        for k in 1..=6 {
            lp.add_constraint(vec![(x, k as f64), (y, k as f64)], Le, k as f64);
        }
        assert_matches_dense(&lp);
    }

    #[test]
    fn budget_interrupt_is_identical() {
        use ced_runtime::InterruptKind;
        let mut lp = LinearProgram::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| lp.add_variable(0.0, 1.0, 1.0 + (i % 7) as f64))
            .collect();
        for k in 0..12 {
            let terms = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 5) as f64))
                .collect();
            lp.add_constraint(terms, Le, 3.0 + k as f64);
        }
        let budget = Budget::new().with_tick_cap(1);
        match solve_budgeted_sparse(&lp, &budget) {
            Err(SolveError::Interrupted(i)) => {
                assert_eq!(i.kind, InterruptKind::TickCapExceeded);
                assert_eq!(i.progress.stage, "simplex:pivot");
            }
            other => panic!("expected interrupt, got {other:?}"),
        }
        assert_matches_dense(&lp);
    }

    /// The covering-relaxation shape at a realistic size: unit
    /// coefficients cancel exactly under elimination, so pivot rows
    /// must stay genuinely sparse for the packed gather to pay off —
    /// and the answers must stay bitwise dense.
    #[test]
    fn unit_coefficient_covering_lp_matches_dense() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let vars: Vec<_> = (0..20).map(|_| lp.add_variable(0.0, 1.0, 1.0)).collect();
        let mut state = 0x2468_ACE1_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..60 {
            let terms: Vec<_> = vars
                .iter()
                .filter(|_| next() % 3 == 0)
                .map(|&v| (v, 1.0))
                .collect();
            if terms.is_empty() {
                continue;
            }
            lp.add_constraint(terms, Ge, 1.0);
        }
        assert_matches_dense(&lp);
    }
}
