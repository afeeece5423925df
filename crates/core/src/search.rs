//! Algorithm 1: binary search for the minimum number of parity
//! functions, with LP relaxation + randomized rounding as the
//! feasibility oracle — wrapped in a graceful-degradation solver
//! ladder.
//!
//! Two engineering refinements over the paper's pseudocode, both
//! documented in DESIGN.md:
//!
//! * **Lazy rows** — when the detectability table is large, the LP is
//!   built over a subset of the hardest rows; rounding always verifies
//!   against the *full* table, and verification failures feed violated
//!   rows back into the LP (row generation). Infeasibility of a subset
//!   LP soundly implies infeasibility of the full LP.
//! * **Guaranteed incumbent** — the `q = n` singleton cover is always
//!   feasible (every erroneous case differs in some bit at its
//!   activation step), so the search never returns empty-handed even if
//!   rounding is unlucky near the top of the range.
//!
//! # The solver ladder
//!
//! The stochastic oracle can fail for reasons that have nothing to do
//! with true infeasibility: rounding exhausts its `ITER` budget,
//! simplex hits numerical trouble, or the caller's wall-clock budget
//! runs out. Instead of silently reporting a weak bound, the search
//! escalates through a ladder of increasingly robust (and increasingly
//! conservative) methods, recording each step as a
//! [`DegradationEvent`]:
//!
//! 1. [`LadderRung::LpRounding`] — the paper's LP + randomized
//!    rounding, as-is.
//! 2. [`LadderRung::ReseededRetry`] — the same oracle, reseeded, with
//!    an `ITER` budget several times larger, restarted above the
//!    largest `q` the LP *proved* infeasible.
//! 3. [`LadderRung::GreedyCover`] — the deterministic greedy baseline
//!    ([`crate::greedy`]), which always terminates with a cover when
//!    one exists.
//! 4. [`LadderRung::Duplication`] — the singleton cover (one monitor
//!    per bit), the structural equivalent of duplication-with-compare;
//!    never fails on well-formed tables.
//!
//! A clean run (no soft failures) produces an empty degradation trail,
//! so downstream reports can distinguish "optimal under the paper's
//! method" from "best effort under degradation".

use crate::greedy::{greedy_cover_with, GreedyOptions};
use crate::ip::ParityCover;
use crate::relax::{build_relaxation_with_objective, LpForm, LpObjective};
use crate::round::{round_cover, RoundingOptions};
use ced_lp::simplex::SolveError;
use ced_lp::sparse::solve_budgeted_sparse;
use ced_runtime::{Budget as RtBudget, InterruptKind, Interrupted};
use ced_sim::detect::DetectabilityTable;
use ced_sim::packed::SparseTables;
use std::fmt;
use std::time::{Duration, Instant};

/// `ITER` multiplier applied by the reseeded-retry rung.
const RETRY_ITER_FACTOR: usize = 8;
/// Seed rotation applied by the reseeded-retry rung.
const RETRY_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of the parity-minimization search.
///
/// Fingerprints and store keys hash the `Debug` rendering
/// (`format!("{opts:?}")`), so adding, renaming or reordering a field
/// moves every persisted key.
#[derive(Debug, Clone)]
pub struct CedOptions {
    /// Rounding attempts per feasibility query (the paper's `ITER`).
    pub iterations: usize,
    /// LP formulation (symmetric by default).
    pub form: LpForm,
    /// RNG seed for rounding.
    pub seed: u64,
    /// Maximum table rows placed in the LP before lazy row generation
    /// kicks in.
    pub lp_row_cap: usize,
    /// Rounds of violated-row refinement per feasibility query.
    pub refinement_rounds: usize,
    /// Objective steering the LP among feasible points.
    pub objective: LpObjective,
    /// Wall-clock budget for one minimization call. On breach the
    /// search stops issuing feasibility queries and degrades to the
    /// greedy rung. `None` = unbounded.
    pub time_budget: Option<Duration>,
    /// Cap on LP solves per minimization call, counted as in
    /// [`SearchOutcome::lp_solves`] (an effort budget: each new
    /// relaxation builds and pivots a fresh sparse tableau; a repeated
    /// one is answered from the retained solution and still counts).
    /// `None` = unbounded.
    pub max_lp_solves: Option<usize>,
}

impl Default for CedOptions {
    fn default() -> CedOptions {
        CedOptions {
            iterations: 1000,
            form: LpForm::Symmetric,
            seed: 0,
            lp_row_cap: 256,
            refinement_rounds: 3,
            objective: LpObjective::default(),
            time_budget: None,
            max_lp_solves: None,
        }
    }
}

/// A rung of the solver ladder (see the module docs). Ordered from the
/// preferred method to the unconditional fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// LP relaxation + randomized rounding (the paper's method).
    LpRounding,
    /// LP + rounding retried with a reseeded RNG and a larger `ITER`.
    ReseededRetry,
    /// Deterministic greedy set cover.
    GreedyCover,
    /// Singleton masks — structurally equivalent to duplication.
    Duplication,
    /// A cover inherited from a previous (smaller-latency) search.
    Incumbent,
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LadderRung::LpRounding => "lp-rounding",
            LadderRung::ReseededRetry => "reseeded-retry",
            LadderRung::GreedyCover => "greedy-cover",
            LadderRung::Duplication => "duplication",
            LadderRung::Incumbent => "incumbent",
        };
        f.write_str(s)
    }
}

/// Why the ladder stepped down a rung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationReason {
    /// Randomized rounding exhausted `ITER` on queries the LP did not
    /// prove infeasible.
    RoundingExhausted {
        /// Feasibility queries lost to exhaustion on this rung.
        queries: usize,
    },
    /// The simplex solver reported unboundedness or hit its iteration
    /// limit — numerical trouble, not a feasibility verdict.
    LpNumericalFailure {
        /// Feasibility queries lost to numerical failure on this rung.
        queries: usize,
    },
    /// The wall-clock or LP-solve budget ran out mid-search.
    BudgetExceeded,
    /// Rounding was disabled outright (`ITER = 0`), so the stochastic
    /// rungs cannot certify anything.
    RoundingDisabled,
    /// The rung produced a cover that failed full-table verification
    /// (possible only on tables with undetectable rows).
    CoverUnverified {
        /// Rows no parity mask can ever cover.
        uncovered_rows: usize,
    },
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::RoundingExhausted { queries } => {
                write!(
                    f,
                    "rounding exhausted ITER on {queries} feasibility queries"
                )
            }
            DegradationReason::LpNumericalFailure { queries } => {
                write!(
                    f,
                    "simplex numerical failure on {queries} feasibility queries"
                )
            }
            DegradationReason::BudgetExceeded => write!(f, "search budget exceeded"),
            DegradationReason::RoundingDisabled => write!(f, "rounding disabled (ITER = 0)"),
            DegradationReason::CoverUnverified { uncovered_rows } => {
                write!(f, "cover left {uncovered_rows} rows uncovered")
            }
        }
    }
}

/// One step down the solver ladder, kept in the outcome (and threaded
/// into [`crate::pipeline::CircuitReport`]) so results stay honest
/// about how they were obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The rung that failed.
    pub from: LadderRung,
    /// The rung escalated to.
    pub to: LadderRung,
    /// Why the step was taken.
    pub reason: DegradationReason,
    /// Human-readable context (query counts, budgets, cover sizes).
    pub detail: String,
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} → {}: {}", self.from, self.to, self.reason)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// The result of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The best verified cover found.
    pub cover: ParityCover,
    /// `cover.len()` — the minimized number of parity functions.
    pub q: usize,
    /// LP relaxations posed across the search. A refinement round that
    /// added no row poses the same relaxation again; it is answered
    /// from the retained solution without pivoting, and still counts.
    pub lp_solves: usize,
    /// Total rounding attempts across the search.
    pub rounding_attempts: usize,
    /// `(q, feasible)` pairs in query order, for reporting.
    pub feasibility_trace: Vec<(usize, bool)>,
    /// The ladder rung that produced `cover`.
    pub method: LadderRung,
    /// Ladder steps taken; empty when the primary method ran cleanly.
    pub degradation: Vec<DegradationEvent>,
}

/// Runs Algorithm 1 on a detectability table.
///
/// Returns the minimal `q` the LP + randomized-rounding oracle could
/// certify, together with the verified masks. An empty table yields an
/// empty cover (`q = 0`). On oracle failure the solver ladder (module
/// docs) guarantees a verified cover is still returned, with the
/// degradation trail recorded in the outcome.
pub fn minimize_parity_functions(
    table: &DetectabilityTable,
    options: &CedOptions,
) -> SearchOutcome {
    minimize_with_incumbent(table, options, None)
}

/// [`minimize_parity_functions`] seeded with a known-good cover.
///
/// A cover verified for latency `p` remains valid at any larger bound
/// (every longer row's prefix options are a superset), so the
/// per-latency sweep threads each bound's result into the next —
/// guaranteeing the reported `q` is non-increasing in `p` even though
/// the rounding oracle is stochastic. An incumbent that fails
/// verification is ignored.
pub fn minimize_with_incumbent(
    table: &DetectabilityTable,
    options: &CedOptions,
    incumbent: Option<&ParityCover>,
) -> SearchOutcome {
    match minimize_interruptible(table, options, incumbent, &RtBudget::unlimited()) {
        Ok(outcome) => outcome,
        Err(_) => unreachable!("an unlimited budget cannot interrupt"),
    }
}

/// [`minimize_with_incumbent`] under a runtime [`RtBudget`].
///
/// The two budget families compose rather than compete:
///
/// * the runtime budget's **deadline and quantity caps** behave exactly
///   like [`CedOptions::time_budget`]: the search stops issuing
///   feasibility queries and steps down the ladder (PR 1's
///   `BudgetExceeded` path), so an over-deadline machine still returns
///   a verified cover with an honest degradation trail;
/// * the runtime budget's **cancellation token** is a hard stop: the
///   search returns `Err(`[`Interrupted`]`)` promptly without running
///   the fallback rungs, because a cancelled campaign does not want any
///   more work done on this machine.
///
/// One work unit is charged per feasibility query, plus the simplex
/// solver's per-pivot charges (the budget is threaded into every LP
/// solve; a repeated relaxation answered from the retained solution
/// charges no pivots).
///
/// # Errors
///
/// [`Interrupted`] with [`InterruptKind::Cancelled`] only; every other
/// bound degrades instead of erroring.
pub fn minimize_interruptible(
    table: &DetectabilityTable,
    options: &CedOptions,
    incumbent: Option<&ParityCover>,
    runtime: &RtBudget,
) -> Result<SearchOutcome, Interrupted> {
    // Rows with no detecting (bit, step) anywhere are invisible to
    // every parity mask — and silently dropped by dominance reduction.
    // Check for them on the unreduced input so the outcome can honestly
    // report that parity CED cannot meet the bound (built tables never
    // contain such rows; hand-built ones may).
    let undetectable = table
        .rows()
        .iter()
        .filter(|r| r.steps.iter().all(|&d| d == 0))
        .count();

    // Work on the dominance-reduced table (same feasible covers,
    // typically orders of magnitude fewer rows), hardest rows first so
    // that failed rounding attempts are rejected quickly.
    let table = &table.dominance_reduced().sorted_by_difficulty();
    // Pack the reduced table once (column-major bitvectors + GF(2)
    // case kernel) and reuse it across every feasibility query and
    // ladder rung.
    let sparse = &SparseTables::build(table);
    let n = table.num_bits();
    let mut outcome = SearchOutcome {
        cover: ParityCover::singletons(n),
        q: n,
        lp_solves: 0,
        rounding_attempts: 0,
        feasibility_trace: Vec::new(),
        method: LadderRung::Duplication,
        degradation: Vec::new(),
    };
    if undetectable > 0 {
        outcome.degradation.push(DegradationEvent {
            from: LadderRung::LpRounding,
            to: LadderRung::Duplication,
            reason: DegradationReason::CoverUnverified {
                uncovered_rows: undetectable,
            },
            detail: "erroneous cases with no detecting (bit, step): parity CED cannot meet \
                     the bound; monitoring every bit is the best available protection"
                .to_string(),
        });
        return Ok(outcome);
    }
    if table.is_empty() {
        outcome.cover = ParityCover::new(Vec::new());
        outcome.q = 0;
        outcome.method = LadderRung::LpRounding;
        return Ok(outcome);
    }
    if let Some(seed_cover) = incumbent {
        if seed_cover.len() < outcome.q && sparse.all_covered(&seed_cover.masks) {
            outcome.cover = seed_cover.clone();
            outcome.q = seed_cover.len();
            outcome.method = LadderRung::Incumbent;
        }
    }

    let budget = SearchBudget::new(options, runtime);
    let mut proved_lo = 1usize;
    let mut query = 0u64;

    // Rung 1: the paper's method.
    let s0 = run_binary_search(
        table,
        sparse,
        options,
        LadderRung::LpRounding,
        &mut outcome,
        &budget,
        &mut proved_lo,
        &mut query,
    );
    if let Some(i) = s0.interrupted {
        return Err(i);
    }
    // Escalation policy: rounding exhaustion at individual `q` values
    // is the paper's normal negative oracle answer (the integrality
    // gap makes LP-feasible-but-unroundable points expected), so it
    // does NOT by itself trigger the ladder. The ladder steps down
    // when the whole rung failed to certify anything beyond the
    // unconditional fallback (`stuck`), when rounding is disabled
    // outright, or when the budget ran out.
    //
    // Events are staged in `pending` and committed only if degradation
    // actually mattered: a lower rung changed the outcome, rounding was
    // disabled, or the budget cut the search short. Otherwise the soft
    // failures were just the oracle's way of saying "infeasible" and
    // the trail stays empty (the paper's own behavior).
    let rounding_disabled = options.iterations == 0;
    let s0_stuck =
        s0.soft_failures() > 0 && (outcome.method == LadderRung::Duplication || rounding_disabled);
    if !s0.budget_hit && !s0_stuck {
        return Ok(outcome);
    }

    let mut pending: Vec<DegradationEvent> = Vec::new();
    let mut forced = false; // commit the trail regardless of improvement
    if s0.budget_hit {
        forced = true;
        pending.push(DegradationEvent {
            from: LadderRung::LpRounding,
            to: LadderRung::GreedyCover,
            reason: DegradationReason::BudgetExceeded,
            detail: format!(
                "stopped after {} lp solves / {} rounding attempts; skipping reseeded retry",
                outcome.lp_solves, outcome.rounding_attempts
            ),
        });
    } else if rounding_disabled {
        forced = true;
        pending.push(DegradationEvent {
            from: LadderRung::LpRounding,
            to: LadderRung::GreedyCover,
            reason: DegradationReason::RoundingDisabled,
            detail: "stochastic rungs cannot certify with ITER = 0".to_string(),
        });
    } else {
        // Rung 2: reseeded retry with a larger ITER, above the proved
        // infeasibility floor.
        pending.push(DegradationEvent {
            from: LadderRung::LpRounding,
            to: LadderRung::ReseededRetry,
            reason: s0.reason(),
            detail: format!(
                "retrying q ∈ [{proved_lo}, {}) with ITER × {RETRY_ITER_FACTOR}",
                outcome.q
            ),
        });
        let boosted = CedOptions {
            iterations: options.iterations.saturating_mul(RETRY_ITER_FACTOR),
            seed: options.seed ^ RETRY_SEED_SALT,
            ..options.clone()
        };
        let s1 = run_binary_search(
            table,
            sparse,
            &boosted,
            LadderRung::ReseededRetry,
            &mut outcome,
            &budget,
            &mut proved_lo,
            &mut query,
        );
        if let Some(i) = s1.interrupted {
            return Err(i);
        }
        if outcome.method == LadderRung::ReseededRetry {
            // The retry certified a cover the primary rung could not:
            // real recovery, worth recording.
            outcome.degradation.append(&mut pending);
            return Ok(outcome);
        }
        let s1_stuck = s1.soft_failures() > 0 && outcome.method == LadderRung::Duplication;
        if !s1.budget_hit && !s1_stuck {
            // Retry resolved the remaining range by proofs — the
            // primary method's verdict stands; nothing degraded.
            return Ok(outcome);
        }
        if s1.budget_hit {
            forced = true;
        }
        pending.push(DegradationEvent {
            from: LadderRung::ReseededRetry,
            to: LadderRung::GreedyCover,
            reason: if s1.budget_hit {
                DegradationReason::BudgetExceeded
            } else {
                s1.reason()
            },
            detail: String::new(),
        });
    }

    // Rung 3: deterministic greedy cover. Always terminates; verified
    // against the full table before adoption. A cancelled campaign
    // skips even this — it asked for no more work, not cheaper work.
    if let Some(i) = budget.cancelled("search:greedy") {
        return Err(i);
    }
    let greedy = greedy_cover_with(
        table,
        sparse.full(),
        &GreedyOptions {
            seed: options.seed,
            ..GreedyOptions::default()
        },
    );
    let verified = sparse.all_covered(&greedy.masks);
    debug_assert!(verified, "reduced tables have no undetectable rows");
    if verified && greedy.len() < outcome.q {
        outcome.q = greedy.len().max(1);
        outcome.cover = greedy;
        outcome.method = LadderRung::GreedyCover;
        outcome.degradation.append(&mut pending);
        return Ok(outcome);
    }
    if forced {
        // Nothing improved, but the run was genuinely cut short
        // (budget) or crippled (ITER = 0): keep the trail so the
        // result is honest about its provenance.
        outcome.degradation.append(&mut pending);
    }
    // Otherwise: soft failures were the oracle's infeasibility verdict
    // and the greedy cross-check agreed with the fallback — report the
    // run as a clean conclusion of the primary method.
    if outcome.degradation.is_empty() && outcome.method == LadderRung::Duplication {
        outcome.method = LadderRung::LpRounding;
    }
    Ok(outcome)
}

/// Search budgets, shared across ladder rungs (the ladder as a whole
/// honors one budget; degraded rungs do not get fresh allowances).
/// Wraps both the per-call option limits and the caller's runtime
/// budget: the runtime deadline/caps count as soft exhaustion (degrade
/// path), the runtime token as hard cancellation.
struct SearchBudget<'a> {
    deadline: Option<Instant>,
    max_lp_solves: Option<usize>,
    runtime: &'a RtBudget,
}

impl<'a> SearchBudget<'a> {
    fn new(options: &CedOptions, runtime: &'a RtBudget) -> SearchBudget<'a> {
        SearchBudget {
            deadline: options
                .time_budget
                .and_then(|d| Instant::now().checked_add(d)),
            max_lp_solves: options.max_lp_solves,
            runtime,
        }
    }

    /// Soft exhaustion: stop querying, degrade down the ladder.
    fn exhausted(&self, lp_solves: usize) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.max_lp_solves.is_some_and(|cap| lp_solves >= cap)
            || matches!(self.runtime.check("search:query"),
                        Err(i) if i.kind != InterruptKind::Cancelled)
    }

    /// Hard cancellation: abandon the search with a typed error.
    fn cancelled(&self, stage: &str) -> Option<Interrupted> {
        match self.runtime.check(stage) {
            Err(i) if i.kind == InterruptKind::Cancelled => Some(i),
            _ => None,
        }
    }
}

/// Soft-failure tally of one binary-search rung.
#[derive(Debug, Default)]
struct RungStats {
    rounding_exhausted: usize,
    numeric_failures: usize,
    budget_hit: bool,
    /// Hard cancellation observed mid-rung; propagated by the caller.
    interrupted: Option<Interrupted>,
}

impl RungStats {
    fn soft_failures(&self) -> usize {
        self.rounding_exhausted + self.numeric_failures
    }

    fn reason(&self) -> DegradationReason {
        if self.budget_hit {
            DegradationReason::BudgetExceeded
        } else if self.rounding_exhausted >= self.numeric_failures {
            DegradationReason::RoundingExhausted {
                queries: self.rounding_exhausted,
            }
        } else {
            DegradationReason::LpNumericalFailure {
                queries: self.numeric_failures,
            }
        }
    }
}

/// Verdict of one feasibility query, distinguishing proofs from
/// soft failures (the pre-ladder code conflated all of these).
enum QueryVerdict {
    /// A verified cover at the queried `q`.
    Feasible(ParityCover),
    /// The LP itself is infeasible — a sound proof for the full table.
    ProvedInfeasible,
    /// The LP is feasible but rounding never produced a verified cover.
    RoundingExhausted,
    /// Simplex reported unboundedness or an iteration limit.
    NumericalFailure,
    /// The shared search budget ran out mid-query.
    BudgetExceeded,
    /// The runtime cancellation token fired mid-query.
    Interrupted(Interrupted),
}

/// One rung's binary search over `q`. Adopts improving covers into
/// `outcome` (tagging them with `rung`), advances the proved-infeasible
/// floor, and tallies soft failures.
#[allow(clippy::too_many_arguments)]
fn run_binary_search(
    table: &DetectabilityTable,
    sparse: &SparseTables,
    options: &CedOptions,
    rung: LadderRung,
    outcome: &mut SearchOutcome,
    budget: &SearchBudget<'_>,
    proved_lo: &mut usize,
    query: &mut u64,
) -> RungStats {
    let mut stats = RungStats::default();
    let mut lo = *proved_lo;
    let mut hi = outcome.q;
    while lo < hi {
        if let Some(i) = budget.cancelled("search:query") {
            stats.interrupted = Some(i);
            break;
        }
        if budget.exhausted(outcome.lp_solves) {
            stats.budget_hit = true;
            break;
        }
        let mid = lo + (hi - lo) / 2;
        *query += 1;
        match try_feasible(table, sparse, mid, options, *query, budget, outcome) {
            QueryVerdict::Feasible(cover) => {
                let found_q = cover.len().max(1);
                outcome.cover = cover;
                outcome.q = found_q;
                outcome.method = rung;
                outcome.feasibility_trace.push((mid, true));
                hi = found_q.min(mid);
                // `hi` is known-feasible; keep searching strictly below.
                if hi == lo {
                    break;
                }
            }
            QueryVerdict::ProvedInfeasible => {
                outcome.feasibility_trace.push((mid, false));
                lo = mid + 1;
                *proved_lo = lo;
            }
            QueryVerdict::RoundingExhausted => {
                stats.rounding_exhausted += 1;
                outcome.feasibility_trace.push((mid, false));
                lo = mid + 1;
            }
            QueryVerdict::NumericalFailure => {
                stats.numeric_failures += 1;
                outcome.feasibility_trace.push((mid, false));
                lo = mid + 1;
            }
            QueryVerdict::BudgetExceeded => {
                stats.budget_hit = true;
                break;
            }
            QueryVerdict::Interrupted(i) => {
                stats.interrupted = Some(i);
                break;
            }
        }
    }
    stats
}

/// One feasibility query: LP (with lazy rows) + randomized rounding.
fn try_feasible(
    table: &DetectabilityTable,
    sparse: &SparseTables,
    q: usize,
    options: &CedOptions,
    query: u64,
    budget: &SearchBudget<'_>,
    outcome: &mut SearchOutcome,
) -> QueryVerdict {
    let m = table.len();
    let mut rows: Vec<usize> = if m <= options.lp_row_cap {
        (0..m).collect()
    } else {
        hardest_rows(table, options.lp_row_cap)
    };

    budget.runtime.charge(1);
    let mut last_failure = QueryVerdict::RoundingExhausted;
    // The fractional β of the last relaxation solved, and whether the
    // row subset has grown since. A round that added no row poses the
    // identical relaxation, whose solve is a pure function of it: the
    // next round reuses these β (still counting the relaxation as an
    // LP solve) and only rounds again under its own seed.
    let mut betas: Vec<Vec<f64>> = Vec::new();
    let mut rows_grew = true;
    for round in 0..=options.refinement_rounds {
        if budget.exhausted(outcome.lp_solves) {
            return QueryVerdict::BudgetExceeded;
        }
        outcome.lp_solves += 1;
        if rows_grew {
            let relax =
                build_relaxation_with_objective(table, q, options.form, &rows, options.objective);
            let sol = match solve_budgeted_sparse(&relax.lp, budget.runtime) {
                Ok(sol) => sol,
                // Subset infeasible ⇒ full infeasible: a sound proof.
                Err(SolveError::Infeasible) => return QueryVerdict::ProvedInfeasible,
                // Unbounded/iteration-limit: numerical trouble, NOT a
                // feasibility verdict — surfaced so the ladder can react.
                Err(SolveError::Unbounded) | Err(SolveError::IterationLimit) => {
                    return QueryVerdict::NumericalFailure
                }
                // A cancelled token aborts the query; any other runtime
                // bound is the soft degrade path.
                Err(SolveError::Interrupted(i)) => {
                    return if i.kind == InterruptKind::Cancelled {
                        QueryVerdict::Interrupted(i)
                    } else {
                        QueryVerdict::BudgetExceeded
                    }
                }
            };
            betas = relax.fractional_betas(&sol.x);
        }
        let ropts = RoundingOptions {
            iterations: options.iterations,
            seed: options
                .seed
                .wrapping_add(query.wrapping_mul(0x9E37_79B9))
                .wrapping_add(round as u64),
        };
        match round_cover(sparse, q, &betas, &ropts) {
            Ok(r) => {
                outcome.rounding_attempts += r.attempts;
                return QueryVerdict::Feasible(r.cover);
            }
            Err(failure) => {
                outcome.rounding_attempts += options.iterations;
                last_failure = QueryVerdict::RoundingExhausted;
                if rows.len() >= m || failure.best_uncovered.is_empty() {
                    return last_failure;
                }
                // Row generation: feed the stubborn rows into the LP.
                let budget_rows = options.lp_row_cap.max(16);
                let before = rows.len();
                for &i in failure.best_uncovered.iter().take(budget_rows) {
                    if !rows.contains(&i) {
                        rows.push(i);
                    }
                }
                rows_grew = rows.len() > before;
            }
        }
    }
    last_failure
}

/// Picks the `cap` rows hardest to cover: fewest detecting `(bit, step)`
/// opportunities first (ties broken by index for determinism).
fn hardest_rows(table: &DetectabilityTable, cap: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, usize)> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let opportunities: usize = r.steps.iter().map(|d| d.count_ones() as usize).sum();
            (opportunities, i)
        })
        .collect();
    scored.sort_unstable();
    scored.into_iter().take(cap).map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_sim::detect::EcRow;

    fn table(num_bits: usize, rows: Vec<Vec<u64>>) -> DetectabilityTable {
        let p = rows[0].len();
        DetectabilityTable::from_rows(
            num_bits,
            p,
            rows.into_iter().map(|steps| EcRow { steps }).collect(),
        )
    }

    #[test]
    fn single_bit_rows_need_one_tree() {
        // All rows detectable by bit 0 alone.
        let t = table(4, vec![vec![0b0001], vec![0b0011], vec![0b0101]]);
        // Masks {0b0001} covers: row0 odd, row1 bit0 odd (0b0011&0b0001=1),
        // row2 odd. One tree suffices; the search should find q = 1.
        let out = minimize_parity_functions(&t, &CedOptions::default());
        assert_eq!(out.q, 1, "trace: {:?}", out.feasibility_trace);
        assert!(t.all_covered(&out.cover.masks));
        assert!(out.degradation.is_empty(), "clean run must not degrade");
        assert_eq!(out.method, LadderRung::LpRounding);
    }

    #[test]
    fn conflicting_rows_need_two_trees() {
        // Rows {bit0}, {bit1}, {bit0,bit1}: any single mask fails one of
        // them (mask must contain exactly one of bits 0,1 to catch row 3
        // … but then misses one singleton row unless it has the other).
        // mask 0b01: row0 ✓, row1 ✗. mask 0b10: row0 ✗. mask 0b11:
        // row2 even ✗. So q = 2.
        let t = table(2, vec![vec![0b01], vec![0b10], vec![0b11]]);
        let out = minimize_parity_functions(&t, &CedOptions::default());
        assert_eq!(out.q, 2);
        assert!(t.all_covered(&out.cover.masks));
    }

    #[test]
    fn empty_table_requires_nothing() {
        let t = DetectabilityTable::from_rows(4, 1, vec![]);
        let out = minimize_parity_functions(&t, &CedOptions::default());
        assert_eq!(out.q, 0);
        assert!(out.cover.is_empty());
        assert!(out.degradation.is_empty());
    }

    #[test]
    fn latency_enables_smaller_q() {
        // At p=1 the three rows conflict (see previous test, q = 2); at
        // p=2 the rows that were missed by a single mask expose bit 0
        // alone at step 2, so one tree on bit 0 covers everything.
        let p1 = table(2, vec![vec![0b01], vec![0b10], vec![0b11]]);
        let p2 = table(
            2,
            vec![vec![0b01, 0b00], vec![0b10, 0b01], vec![0b11, 0b01]],
        );
        let out1 = minimize_parity_functions(&p1, &CedOptions::default());
        let out2 = minimize_parity_functions(&p2, &CedOptions::default());
        assert_eq!(out1.q, 2);
        assert_eq!(out2.q, 1);
    }

    #[test]
    fn full_form_agrees_with_symmetric() {
        let t = table(
            3,
            vec![vec![0b001, 0b010], vec![0b110, 0b000], vec![0b011, 0b100]],
        );
        let sym = minimize_parity_functions(
            &t,
            &CedOptions {
                form: LpForm::Symmetric,
                ..CedOptions::default()
            },
        );
        let full = minimize_parity_functions(
            &t,
            &CedOptions {
                form: LpForm::Full,
                ..CedOptions::default()
            },
        );
        assert_eq!(sym.q, full.q);
    }

    #[test]
    fn lazy_rows_still_produce_verified_cover() {
        // 40 rows, tiny LP cap: force row generation.
        let rows: Vec<Vec<u64>> = (0..40u64).map(|i| vec![1 << (i % 5)]).collect();
        let t = table(5, rows);
        let out = minimize_parity_functions(
            &t,
            &CedOptions {
                lp_row_cap: 4,
                ..CedOptions::default()
            },
        );
        assert!(t.all_covered(&out.cover.masks));
        // All five bits needed (each singleton row class needs its bit
        // odd, and any mask with ≥2 of the bits still covers each row it
        // overlaps oddly … q can be < 5; just require a verified cover).
        assert!(out.q >= 1 && out.q <= 5);
    }

    #[test]
    fn outcome_trace_is_populated() {
        let t = table(3, vec![vec![0b001], vec![0b010]]);
        let out = minimize_parity_functions(&t, &CedOptions::default());
        assert!(!out.feasibility_trace.is_empty());
        assert!(out.lp_solves >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = table(
            4,
            vec![vec![0b0011], vec![0b0110], vec![0b1100], vec![0b1001]],
        );
        let a = minimize_parity_functions(&t, &CedOptions::default());
        let b = minimize_parity_functions(&t, &CedOptions::default());
        // The whole outcome, trace and counters included, not just the
        // cover: the search is a pure function of table, options, seed.
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_rounding_degrades_to_greedy() {
        // All rows detectable by bit 0 (q_opt = 1 < n = 4), so the
        // greedy rung improves on the singleton fallback.
        let t = table(4, vec![vec![0b0001], vec![0b0011], vec![0b0101]]);
        let out = minimize_parity_functions(
            &t,
            &CedOptions {
                iterations: 0,
                ..CedOptions::default()
            },
        );
        assert!(t.all_covered(&out.cover.masks), "ladder must still cover");
        assert_eq!(out.method, LadderRung::GreedyCover);
        assert!(
            out.degradation
                .iter()
                .any(|e| e.to == LadderRung::GreedyCover
                    && e.reason == DegradationReason::RoundingDisabled),
            "trail: {:?}",
            out.degradation
        );
    }

    #[test]
    fn zero_lp_budget_degrades_to_greedy() {
        let t = table(3, vec![vec![0b001], vec![0b011], vec![0b101]]);
        let out = minimize_parity_functions(
            &t,
            &CedOptions {
                max_lp_solves: Some(0),
                ..CedOptions::default()
            },
        );
        assert!(t.all_covered(&out.cover.masks));
        assert_eq!(out.lp_solves, 0, "budget of zero must forbid LP solves");
        assert_eq!(out.method, LadderRung::GreedyCover);
        assert!(out
            .degradation
            .iter()
            .any(|e| e.reason == DegradationReason::BudgetExceeded));
    }

    #[test]
    fn zero_time_budget_degrades_to_greedy() {
        let t = table(3, vec![vec![0b001], vec![0b011], vec![0b101]]);
        let out = minimize_parity_functions(
            &t,
            &CedOptions {
                time_budget: Some(Duration::ZERO),
                ..CedOptions::default()
            },
        );
        assert!(t.all_covered(&out.cover.masks));
        assert_eq!(out.method, LadderRung::GreedyCover);
    }

    #[test]
    fn undetectable_rows_fall_to_duplication_rung() {
        // Second row has no detecting (bit, step) at all — nothing can
        // cover it (dominance reduction would silently drop it). The
        // ladder must terminate with the singleton fallback and record
        // the step down to the duplication rung.
        let t = table(2, vec![vec![0b01, 0b00], vec![0b00, 0b00]]);
        let out = minimize_parity_functions(&t, &CedOptions::default());
        assert_eq!(out.method, LadderRung::Duplication);
        assert!(out
            .degradation
            .iter()
            .any(|e| matches!(e.reason, DegradationReason::CoverUnverified { .. })));
    }

    #[test]
    fn incumbent_is_kept_when_optimal() {
        let t = table(2, vec![vec![0b01], vec![0b10], vec![0b11]]);
        // Feed the known optimum as incumbent; the search should keep
        // (or re-derive) a q=2 cover.
        let inc = ParityCover::new(vec![0b01, 0b10]);
        let out = minimize_with_incumbent(&t, &CedOptions::default(), Some(&inc));
        assert_eq!(out.q, 2);
        assert!(t.all_covered(&out.cover.masks));
    }

    #[test]
    fn cancelled_search_is_a_hard_error() {
        let t = table(3, vec![vec![0b001], vec![0b011], vec![0b101]]);
        let runtime = RtBudget::new();
        runtime.cancel_token().cancel();
        let err = minimize_interruptible(&t, &CedOptions::default(), None, &runtime).unwrap_err();
        assert_eq!(err.kind, InterruptKind::Cancelled);
        // Cancellation skips even the greedy fallback: no cover at all.
    }

    #[test]
    fn runtime_tick_cap_degrades_instead_of_erroring() {
        // A quantity cap is soft exhaustion: the ladder steps down to
        // greedy (PR-1 BudgetExceeded path) and still returns a
        // verified cover — only cancellation is a hard stop.
        let t = table(3, vec![vec![0b001], vec![0b011], vec![0b101]]);
        let runtime = RtBudget::new().with_tick_cap(1);
        let out = minimize_interruptible(&t, &CedOptions::default(), None, &runtime).unwrap();
        assert!(t.all_covered(&out.cover.masks));
        assert!(
            out.degradation
                .iter()
                .any(|e| e.reason == DegradationReason::BudgetExceeded),
            "trail: {:?}",
            out.degradation
        );
    }

    #[test]
    fn unlimited_runtime_budget_changes_nothing() {
        let t = table(
            4,
            vec![vec![0b0011], vec![0b0110], vec![0b1100], vec![0b1001]],
        );
        let plain = minimize_parity_functions(&t, &CedOptions::default());
        let budgeted =
            minimize_interruptible(&t, &CedOptions::default(), None, &RtBudget::unlimited())
                .unwrap();
        assert_eq!(plain.cover, budgeted.cover);
        assert_eq!(plain.method, budgeted.method);
        assert_eq!(plain.lp_solves, budgeted.lp_solves);
    }

    #[test]
    fn options_debug_rendering_is_pinned() {
        // Fingerprints and store keys hash `format!("{opts:?}")`: any
        // change to this text moves every persisted store key.
        assert_eq!(
            format!("{:?}", CedOptions::default()),
            "CedOptions { iterations: 1000, form: Symmetric, seed: 0, lp_row_cap: 256, \
             refinement_rounds: 3, objective: SparseBeta, time_budget: None, \
             max_lp_solves: None }"
        );
    }

    #[test]
    fn degradation_events_render() {
        let e = DegradationEvent {
            from: LadderRung::LpRounding,
            to: LadderRung::ReseededRetry,
            reason: DegradationReason::RoundingExhausted { queries: 3 },
            detail: "retrying".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("lp-rounding"));
        assert!(text.contains("reseeded-retry"));
        assert!(text.contains("3 feasibility queries"));
    }
}
