//! Independent soundness re-proof of a parity cover.
//!
//! The pipeline's claim — "the `q` masks detect every erroneous case of
//! every fault within `p` steps" — was established by the table-driven
//! DFS of [`ced_sim::detect`]: enumerate rows, dominance-reduce, check
//! coverage. This verifier re-proves the same claim by a different
//! algorithm that never materializes a table: a reachability analysis
//! of the *silent subgraph* of the good×faulty product machine.
//!
//! Call a difference mask `d` **silent** when every claimed mask sees
//! an even overlap with it (`popcount(d & mask)` even for all masks —
//! note `d = 0` is silent). An undetected erroneous case is exactly an
//! activation `(c, a₁)` with nonzero *silent* first difference `d₁`,
//! followed by `p − 1` further steps whose differences are all silent.
//! The DFS's loop cuts (a revisited state zero-fills the remaining
//! steps) do not change this: a cut corresponds to a silent cycle, and
//! a reachable silent cycle yields silent walks of *every* length — so
//! existence of an undetected case is equivalent to
//!
//! > ∃ activation with silent `d₁ ≠ 0` and a silent walk of `p − 1`
//! > edges starting at the activation's successor node.
//!
//! Silent-walk existence is computed by a per-fault level-set sweep
//! `can[ℓ][v] = ∃ silent edge v → w with can[ℓ−1][w]` (`can[0] ≡
//! true`), built lazily only for faults that survive step-1 detection.
//! On refutation the witness path is reconstructed by greedy descent
//! through the levels, giving a concrete input sequence the caller can
//! replay on the transition tables.
//!
//! Time-varying fault models generalize the sweep rather than the
//! graph: level `ℓ` (remaining steps) corresponds to the absolute
//! activation step `t = p − ℓ + 1`, and the product edge at that level
//! follows the faulty tables iff [`FaultModel::active_at`]`(t)` and
//! the fault-free tables otherwise. For the permanent model every
//! level is active, which degenerates to exactly the original
//! computation (and its loop-cut shortcut, which is only sound when
//! the edge relation is step-invariant).

use crate::{Certificate, Refutation, Stage, StageOutcome, Witness, WitnessStep};
use ced_fsm::encoded::FsmCircuit;
use ced_runtime::{Budget, Interrupted};
use ced_sim::detect::{InputModel, Semantics};
use ced_sim::fault::{Fault, FaultModel};
use ced_sim::tables::{FaultTables, TransitionTables};

#[inline]
fn silent(masks: &[u64], d: u64) -> bool {
    masks.iter().all(|&m| (d & m).count_ones() & 1 == 0)
}

/// The product-machine node space for one fault: under
/// [`Semantics::FaultyTrajectory`] a node is the (single) faulty-
/// trajectory state; under [`Semantics::Lockstep`] it is the pair
/// `(good, faulty)` packed as `(good << s) | faulty`.
struct ProductGraph<'a> {
    good: &'a TransitionTables,
    bad: &'a TransitionTables,
    semantics: Semantics,
    state_bits: usize,
}

impl ProductGraph<'_> {
    fn num_nodes(&self) -> usize {
        match self.semantics {
            Semantics::FaultyTrajectory => 1 << self.state_bits,
            Semantics::Lockstep => 1 << (2 * self.state_bits),
        }
    }

    /// The state whose transition cubes determine which inputs the
    /// enumeration explores from this node (the good-trajectory state
    /// under lockstep; the actual present state under the hardware
    /// view).
    fn vantage(&self, node: u64) -> u64 {
        match self.semantics {
            Semantics::FaultyTrajectory => node,
            Semantics::Lockstep => node >> self.state_bits,
        }
    }

    /// One product step: the response difference and the successor
    /// node. On steps where the fault model is inactive the faulty
    /// machine follows the fault-free tables.
    fn step(&self, node: u64, input: u64, active: bool) -> (u64, u64) {
        let bad = if active { self.bad } else { self.good };
        match self.semantics {
            Semantics::FaultyTrajectory => {
                let d = self.good.response(node, input) ^ bad.response(node, input);
                (d, bad.next(node, input))
            }
            Semantics::Lockstep => {
                let s = self.state_bits;
                let g = node >> s;
                let f = node & ((1 << s) - 1);
                let d = self.good.response(g, input) ^ bad.response(f, input);
                let succ = (self.good.next(g, input) << s) | bad.next(f, input);
                (d, succ)
            }
        }
    }

    fn witness_states(&self, node: u64) -> (u64, u64) {
        match self.semantics {
            Semantics::FaultyTrajectory => (node, node),
            Semantics::Lockstep => {
                let s = self.state_bits;
                (node >> s, node & ((1 << s) - 1))
            }
        }
    }
}

/// `can[ℓ][v]` = a silent walk of `ℓ` edges starts at node `v`.
struct SilentWalks {
    can: Vec<Vec<bool>>,
}

impl SilentWalks {
    #[allow(clippy::too_many_arguments)]
    fn build(
        graph: &ProductGraph<'_>,
        model: FaultModel,
        input_model: &InputModel,
        r: usize,
        masks: &[u64],
        latency: usize,
        max_len: usize,
        budget: &Budget,
    ) -> Result<SilentWalks, Interrupted> {
        let nodes = graph.num_nodes();
        let mut can: Vec<Vec<bool>> = Vec::with_capacity(max_len + 1);
        can.push(vec![true; nodes]);
        let mut inputs = Vec::new();
        for level in 1..=max_len {
            budget.tick(nodes as u64, "certify/soundness")?;
            // A walk of `level` remaining edges that ends at the
            // latency bound takes its first edge at this absolute step.
            let active = model.active_at(latency - level + 1);
            let prev = &can[level - 1];
            let mut cur = vec![false; nodes];
            for v in 0..nodes as u64 {
                input_model.inputs_at(graph.vantage(v), r, &mut inputs);
                cur[v as usize] = inputs.iter().any(|&a| {
                    let (d, succ) = graph.step(v, a, active);
                    silent(masks, d) && prev[succ as usize]
                });
            }
            can.push(cur);
        }
        Ok(SilentWalks { can })
    }

    /// Greedy descent through the levels: a concrete silent walk of
    /// `len` edges from `node` (which `build` proved exists).
    #[allow(clippy::too_many_arguments)]
    fn reconstruct(
        &self,
        graph: &ProductGraph<'_>,
        model: FaultModel,
        input_model: &InputModel,
        r: usize,
        masks: &[u64],
        latency: usize,
        mut node: u64,
        len: usize,
    ) -> Vec<WitnessStep> {
        let mut steps = Vec::with_capacity(len);
        let mut inputs = Vec::new();
        for level in (1..=len).rev() {
            let active = model.active_at(latency - level + 1);
            input_model.inputs_at(graph.vantage(node), r, &mut inputs);
            let (a, d, succ) = inputs
                .iter()
                .find_map(|&a| {
                    let (d, succ) = graph.step(node, a, active);
                    (silent(masks, d) && self.can[level - 1][succ as usize]).then_some((a, d, succ))
                })
                .expect("silent walk existence was just proved at this level");
            let (good_state, faulty_state) = graph.witness_states(node);
            steps.push(WitnessStep {
                good_state,
                faulty_state,
                input: a,
                difference: d,
            });
            node = succ;
        }
        steps
    }
}

/// Re-proves that `masks` detect every erroneous case of every fault
/// within `latency` steps, over exactly the input universe the
/// enumeration claimed to cover ([`InputModel::inputs_at`]).
///
/// Returns [`StageOutcome::Certified`] with the number of activations
/// examined, or [`StageOutcome::Refuted`] with a concrete
/// [`Witness::UndetectedPath`] — a fault, an activation and a silent
/// input path of `latency` steps, replayable on the transition tables.
///
/// # Errors
///
/// Only budget interruption; the check itself is exact and total.
#[allow(clippy::too_many_arguments)]
pub fn verify_solution(
    circuit: &FsmCircuit,
    faults: &[Fault],
    model: FaultModel,
    input_model: &InputModel,
    semantics: Semantics,
    masks: &[u64],
    latency: usize,
    budget: &Budget,
) -> Result<StageOutcome, Interrupted> {
    let extractor = FaultTables::new(circuit);
    let good = extractor.good();
    let r = good.num_inputs();
    let s = good.state_bits();
    let activation_states = good.reachable_codes();
    let mut inputs = Vec::new();
    let mut activations: u64 = 0;

    for &fault in faults {
        budget.tick(1, "certify/soundness")?;
        let bad = extractor.faulty(&model.expand(fault, circuit.netlist()), Some(budget))?;
        let graph = ProductGraph {
            good,
            bad: &bad,
            semantics,
            state_bits: s,
        };
        let mut walks: Option<SilentWalks> = None;
        for &c in &activation_states {
            budget.check("certify/soundness")?;
            input_model.inputs_at(c, r, &mut inputs);
            for idx in 0..inputs.len() {
                let a1 = inputs[idx];
                let d1 = good.response(c, a1) ^ bad.response(c, a1);
                if d1 == 0 {
                    continue;
                }
                activations += 1;
                if !silent(masks, d1) {
                    continue; // detected at the activation step
                }
                // Undetected so far; the case escapes iff p == 1 or a
                // silent walk of p − 1 edges leaves the successor node.
                let activation = WitnessStep {
                    good_state: c,
                    faulty_state: c,
                    input: a1,
                    difference: d1,
                };
                let start = match semantics {
                    Semantics::FaultyTrajectory => c,
                    Semantics::Lockstep => (c << s) | c,
                };
                // Step 1 is active under every model.
                let (_, node1) = graph.step(start, a1, true);
                let refuted = |steps: Vec<WitnessStep>| {
                    Ok(StageOutcome::Refuted(Refutation {
                        stage: Stage::Soundness,
                        discrepancy: format!(
                            "fault {fault} activated at state {c:#x} under input {a1:#x} \
                             (difference {d1:#x}) stays silent for all {q} parity masks \
                             through latency {latency}",
                            q = masks.len()
                        ),
                        witness: Witness::UndetectedPath { fault, steps },
                    }))
                };
                if latency == 1 || (model.time_invariant() && node1 == start) {
                    // The DFS cuts this row immediately (p = 1, or the
                    // path revisits its own activation node — a silent
                    // self-cycle via the activation edge); the single
                    // silent step is the whole witness. The self-cycle
                    // shortcut needs a step-invariant edge relation, so
                    // time-varying models fall through to the sweep.
                    return refuted(vec![activation]);
                }
                if walks.is_none() {
                    walks = Some(SilentWalks::build(
                        &graph,
                        model,
                        input_model,
                        r,
                        masks,
                        latency,
                        latency - 1,
                        budget,
                    )?);
                }
                let w = walks.as_ref().expect("just built");
                if w.can[latency - 1][node1 as usize] {
                    let mut steps = vec![activation];
                    steps.extend(w.reconstruct(
                        &graph,
                        model,
                        input_model,
                        r,
                        masks,
                        latency,
                        node1,
                        latency - 1,
                    ));
                    return refuted(steps);
                }
            }
        }
    }

    Ok(StageOutcome::Certified(Certificate {
        stage: Stage::Soundness,
        checked: activations,
        detail: format!(
            "product-machine BFS: all {activations} error activations across {f} faults are \
             detected within {latency} step(s) by the {q} claimed masks \
             (silent-walk analysis, no detectability table consulted)",
            f = faults.len(),
            q = masks.len()
        ),
    }))
}
