//! Fault models: the single stuck-at list plus its generalizations.
//!
//! The paper evaluates with stuck-at faults as the error source ("the
//! stuck-at fault model has been used as the source of errors") while
//! noting the method accepts any restricted error model. Faults are
//! placed on every primary input and every gate output of the mapped
//! next-state/output network, both polarities — the classic full
//! single-stuck-line list — with light structural collapsing for
//! inverter/buffer chains.
//!
//! Beyond the paper's permanent model, [`FaultModel`] describes *when*
//! and *how widely* a fault seeded on a net asserts: transient SEUs
//! with a bounded activation window, intermittent faults recurring
//! with a fixed period, and spatially-adjacent multi-bit clusters (the
//! SCFI attacker shape). Every layer of the pipeline — tensor
//! construction, injection campaigns, certification, campaign suites —
//! accepts a model and defaults to [`FaultModel::PermanentStuckAt`],
//! which is bit-for-bit the original behaviour.

use ced_logic::gate::GateKind;
use ced_logic::netlist::{NetId, Netlist};
use ced_runtime::{ByteReader, ByteWriter, CheckpointError};
use std::fmt;

/// A single stuck-at fault on one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The faulted net (primary input or gate output).
    pub net: NetId,
    /// Stuck value: `true` = stuck-at-1, `false` = stuck-at-0.
    pub stuck_at: bool,
}

impl Fault {
    /// Convenience constructor.
    pub fn new(net: NetId, stuck_at: bool) -> Fault {
        Fault { net, stuck_at }
    }

    /// The forced word value of the faulted net.
    pub fn forced_word(self) -> u64 {
        if self.stuck_at {
            u64::MAX
        } else {
            0
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/sa{}", self.net, u8::from(self.stuck_at))
    }
}

/// How a fault seeded on one net behaves over time and space.
///
/// Every analysis is parameterized by a model; the default,
/// [`FaultModel::PermanentStuckAt`], reproduces the paper's setup
/// bit-for-bit. Activation steps are 1-indexed: step 1 is the
/// activation cycle (the first cycle the fault asserts and produces a
/// response difference), matching the error-detectability tensor's
/// step axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// The paper's model: the stuck line asserts on every cycle.
    #[default]
    PermanentStuckAt,
    /// A single-event upset: the fault asserts for `duration` cycles
    /// starting at activation, then disappears. "Undetected" under this
    /// model splits into *escaped this activation* (the window closed
    /// silently) rather than the paper's permanent "undetectable";
    /// use `usize::MAX` for an unbounded window (≡ permanent).
    TransientSeu {
        /// Cycles the fault stays asserted (`≥ 1`).
        duration: usize,
    },
    /// A recurring fault: asserts on the activation cycle and then
    /// every `period`-th cycle after it (`period = 1` ≡ permanent).
    Intermittent {
        /// Cycles between assertions (`≥ 1`).
        period: usize,
    },
    /// An adversarial multi-bit glitch: every non-constant net whose
    /// index is within `radius` of the seeded net is stuck at the same
    /// polarity, permanently (`radius = 0` ≡ single stuck-at).
    MultiBitCluster {
        /// Net-index adjacency radius of the cluster.
        radius: usize,
    },
}

impl FaultModel {
    /// `true` when the injected fault does not vary over time, so the
    /// time-invariant faulty transition tables describe every cycle.
    pub fn time_invariant(self) -> bool {
        matches!(
            self,
            FaultModel::PermanentStuckAt | FaultModel::MultiBitCluster { .. }
        )
    }

    /// Whether the fault asserts on 1-indexed `step` of its activation
    /// window. Step 1 is asserted under every model.
    pub fn active_at(self, step: usize) -> bool {
        debug_assert!(step >= 1, "activation steps are 1-indexed");
        match self {
            FaultModel::PermanentStuckAt | FaultModel::MultiBitCluster { .. } => true,
            FaultModel::TransientSeu { duration } => step <= duration,
            FaultModel::Intermittent { period } => (step - 1).is_multiple_of(period.max(1)),
        }
    }

    /// The fault-automaton phase at 1-indexed `step`: two occurrences
    /// of the same machine state at steps with equal phase behave
    /// identically forever after, which is what makes loop cuts in the
    /// path enumeration and node reuse in the certification BFS sound.
    pub fn phase_at(self, step: usize) -> u64 {
        debug_assert!(step >= 1, "activation steps are 1-indexed");
        match self {
            FaultModel::PermanentStuckAt | FaultModel::MultiBitCluster { .. } => 0,
            // Saturates one past the window: every post-window step is
            // equivalent (the fault never returns).
            FaultModel::TransientSeu { duration } => step.min(duration.saturating_add(1)) as u64,
            FaultModel::Intermittent { period } => ((step - 1) % period.max(1)) as u64,
        }
    }

    /// `true` when the fault is gone for good from `step` on (no later
    /// step can assert it). Never true for permanent, intermittent or
    /// cluster faults.
    pub fn dead_after(self, step: usize) -> bool {
        match self {
            FaultModel::TransientSeu { duration } => step > duration,
            _ => false,
        }
    }

    /// The set of nets a fault seeded at `seed` forces while asserted:
    /// the seed alone for single-net models, the spatial cluster for
    /// [`FaultModel::MultiBitCluster`] (seed polarity on every
    /// non-constant net within `radius`, ascending net order).
    pub fn expand(self, seed: Fault, netlist: &Netlist) -> Vec<Fault> {
        match self {
            FaultModel::MultiBitCluster { radius } => {
                let gates = netlist.gates();
                let center = seed.net.index();
                let lo = center.saturating_sub(radius);
                let hi = (center + radius).min(gates.len().saturating_sub(1));
                (lo..=hi)
                    .filter(|&i| !matches!(gates[i].kind, GateKind::Const0 | GateKind::Const1))
                    .map(|i| Fault::new(NetId(i as u32), seed.stuck_at))
                    .collect()
            }
            _ => vec![seed],
        }
    }

    /// Canonical textual label — also the CLI `--fault-model` syntax:
    /// `permanent`, `transient:D`, `intermittent:K`, `multibit:R`.
    pub fn label(self) -> String {
        match self {
            FaultModel::PermanentStuckAt => "permanent".into(),
            FaultModel::TransientSeu { duration } => format!("transient:{duration}"),
            FaultModel::Intermittent { period } => format!("intermittent:{period}"),
            FaultModel::MultiBitCluster { radius } => format!("multibit:{radius}"),
        }
    }

    /// Parses a [`FaultModel::label`]-shaped string.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted forms and bounds.
    pub fn parse(s: &str) -> Result<FaultModel, String> {
        let usage = || {
            format!(
                "unknown fault model `{s}` (expected permanent, transient:D, \
                 intermittent:K, or multibit:R)"
            )
        };
        if s == "permanent" {
            return Ok(FaultModel::PermanentStuckAt);
        }
        let (kind, arg) = s.split_once(':').ok_or_else(usage)?;
        let n: usize = arg.parse().map_err(|_| usage())?;
        match kind {
            "transient" => {
                if n == 0 {
                    return Err("transient duration must be at least 1 cycle".into());
                }
                Ok(FaultModel::TransientSeu { duration: n })
            }
            "intermittent" => {
                if n == 0 {
                    return Err("intermittent period must be at least 1 cycle".into());
                }
                Ok(FaultModel::Intermittent { period: n })
            }
            "multibit" => Ok(FaultModel::MultiBitCluster { radius: n }),
            _ => Err(usage()),
        }
    }

    /// Serializes the model (tag + parameter) for fingerprints and
    /// checkpoint payloads. Callers keying store artifacts must only
    /// append this for non-permanent models, so permanent keys stay
    /// byte-identical to the pre-model format.
    pub fn write(self, w: &mut ByteWriter) {
        let (tag, param) = match self {
            FaultModel::PermanentStuckAt => (0u8, 0usize),
            FaultModel::TransientSeu { duration } => (1, duration),
            FaultModel::Intermittent { period } => (2, period),
            FaultModel::MultiBitCluster { radius } => (3, radius),
        };
        w.u8(tag);
        w.usize(param);
    }

    /// Deserializes a payload written by [`FaultModel::write`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on an unknown tag or invalid parameter.
    pub fn read(r: &mut ByteReader<'_>) -> Result<FaultModel, CheckpointError> {
        let tag = r.u8()?;
        let param = r.usize()?;
        match (tag, param) {
            (0, _) => Ok(FaultModel::PermanentStuckAt),
            (1, d) if d >= 1 => Ok(FaultModel::TransientSeu { duration: d }),
            (2, k) if k >= 1 => Ok(FaultModel::Intermittent { period: k }),
            (3, radius) => Ok(FaultModel::MultiBitCluster { radius }),
            (t, p) => Err(CheckpointError::Corrupt(format!(
                "bad fault model tag {t} (param {p})"
            ))),
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Enumerates the full uncollapsed fault list: stuck-at-0 and stuck-at-1
/// on every net (primary inputs and gate outputs; constants excluded —
/// a stuck constant is either redundant or equivalent to the opposite
/// constant gate's fault, which is not a physical line here).
pub fn all_faults(netlist: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(netlist.gates().len() * 2);
    for (i, g) in netlist.gates().iter().enumerate() {
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
            continue;
        }
        let net = NetId(i as u32);
        faults.push(Fault::new(net, false));
        faults.push(Fault::new(net, true));
    }
    faults
}

/// Structurally collapsed fault list: the representatives of
/// [`collapse_classes`], in the same order.
///
/// Rules applied (standard equivalence collapsing):
///
/// * a fault on the output of a `NOT` is equivalent to the opposite
///   fault on its fanin when the fanin feeds only this gate — the output
///   faults are dropped;
/// * a fault on the output of a `BUF` is equivalent to the same fault on
///   its single-fanout fanin — dropped likewise.
///
/// Deeper dominance collapsing is intentionally left out: the
/// detectability analysis deduplicates erroneous cases anyway, so
/// collapsing only saves simulation time.
pub fn collapsed_faults(netlist: &Netlist) -> Vec<Fault> {
    collapse_classes(netlist)
        .into_iter()
        .map(|(rep, _)| rep)
        .collect()
}

/// Structural equivalence collapsing with the classes kept: each entry
/// maps a representative fault to the full set of uncollapsed faults it
/// stands for (itself included, ascending net order).
///
/// The representative sequence is exactly [`collapsed_faults`]; the
/// class union is exactly [`all_faults`], with every class disjoint —
/// nothing is silently dropped, which matters to consumers that need
/// the uncollapsed universe back (spatial multi-bit cluster seeding,
/// per-fault accounting, diagnosis).
pub fn collapse_classes(netlist: &Netlist) -> Vec<(Fault, Vec<Fault>)> {
    let gates = netlist.gates();
    // Fanout counts.
    let mut fanout = vec![0usize; gates.len()];
    for g in gates {
        for k in 0..g.kind.arity() {
            fanout[g.fanin[k].index()] += 1;
        }
    }
    for o in netlist.outputs() {
        fanout[o.index()] += 1;
    }

    let collapsible = |i: usize| {
        let g = &gates[i];
        matches!(g.kind, GateKind::Not | GateKind::Buf)
            && fanout[g.fanin[0].index()] == 1
            && !matches!(
                gates[g.fanin[0].index()].kind,
                GateKind::Const0 | GateKind::Const1
            )
    };

    // Chase each collapsible gate to its non-collapsible root,
    // accumulating the polarity flips of the inverters on the way.
    // Fanins precede their gate in the netlist order, so one forward
    // pass resolves chains of any length.
    let mut root: Vec<(usize, bool)> = (0..gates.len()).map(|i| (i, false)).collect();
    for (i, g) in gates.iter().enumerate() {
        if collapsible(i) {
            let (r, flip) = root[g.fanin[0].index()];
            root[i] = (r, flip ^ matches!(g.kind, GateKind::Not));
        }
    }

    let mut members: Vec<[Vec<Fault>; 2]> = vec![[Vec::new(), Vec::new()]; gates.len()];
    for (i, g) in gates.iter().enumerate() {
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) {
            continue;
        }
        let (r, flip) = root[i];
        for stuck_at in [false, true] {
            members[r][usize::from(stuck_at ^ flip)].push(Fault::new(NetId(i as u32), stuck_at));
        }
    }

    let mut classes = Vec::new();
    for (i, g) in gates.iter().enumerate() {
        if matches!(g.kind, GateKind::Const0 | GateKind::Const1) || collapsible(i) {
            continue;
        }
        let net = NetId(i as u32);
        for stuck_at in [false, true] {
            let mut class = std::mem::take(&mut members[i][usize::from(stuck_at)]);
            class.sort_unstable();
            classes.push((Fault::new(net, stuck_at), class));
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_logic::netlist::NetlistBuilder;

    #[test]
    fn all_faults_counts_both_polarities() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let f = b.and(x, y);
        b.mark_output(f);
        let n = b.finish();
        let faults = all_faults(&n);
        // 2 inputs + 1 gate = 3 nets × 2 polarities.
        assert_eq!(faults.len(), 6);
    }

    #[test]
    fn constants_carry_no_faults() {
        let mut b = NetlistBuilder::new(1);
        let c = b.const1();
        b.mark_output(c);
        b.mark_output(b.input(0));
        let n = b.finish();
        let faults = all_faults(&n);
        // Only the primary input net is faultable.
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn inverter_chain_collapses() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let a = b.and(x, y);
        // NOT fed only by the AND: its output faults are equivalent to
        // the AND's (opposite polarity) and are dropped.
        let inv = b.not(a);
        b.mark_output(inv);
        let n = b.finish();
        let all = all_faults(&n);
        let collapsed = collapsed_faults(&n);
        assert_eq!(all.len(), 8);
        assert_eq!(collapsed.len(), 6);
    }

    #[test]
    fn inverter_with_shared_fanin_not_collapsed() {
        let mut b = NetlistBuilder::new(1);
        let x = b.input(0);
        let inv = b.not(x);
        b.mark_output(inv);
        b.mark_output(x); // x has fanout 2 (inv + output)
        let n = b.finish();
        let collapsed = collapsed_faults(&n);
        // Both x and inv keep their faults.
        assert_eq!(collapsed.len(), 4);
    }

    #[test]
    fn display_format() {
        let f = Fault::new(NetId(3), true);
        assert_eq!(f.to_string(), "n3/sa1");
        assert_eq!(f.forced_word(), u64::MAX);
        assert_eq!(Fault::new(NetId(3), false).forced_word(), 0);
    }

    fn chain_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let a = b.and(x, y);
        let inv = b.not(a); // collapsible onto the AND
        b.mark_output(inv);
        b.finish()
    }

    #[test]
    fn collapse_classes_partition_the_uncollapsed_list() {
        let n = chain_netlist();
        let classes = collapse_classes(&n);
        let reps: Vec<Fault> = classes.iter().map(|(r, _)| *r).collect();
        assert_eq!(reps, collapsed_faults(&n));
        let mut union: Vec<Fault> = classes.iter().flat_map(|(_, c)| c.clone()).collect();
        union.sort_unstable();
        let mut all = all_faults(&n);
        all.sort_unstable();
        assert_eq!(union, all, "classes must partition the full list");
        // Each class contains its own representative.
        for (rep, class) in &classes {
            assert!(class.contains(rep), "{rep} missing from its class");
        }
    }

    #[test]
    fn collapsed_inverter_lands_in_opposite_polarity_class() {
        let n = chain_netlist();
        let classes = collapse_classes(&n);
        // The AND drives only the NOT, so the NOT's sa0 is in the AND's
        // sa1 class and vice versa.
        let and_net = NetId(2);
        let inv_net = NetId(3);
        for stuck in [false, true] {
            let (_, class) = classes
                .iter()
                .find(|(r, _)| *r == Fault::new(and_net, stuck))
                .expect("AND is a representative");
            assert!(class.contains(&Fault::new(inv_net, !stuck)));
        }
    }

    #[test]
    fn fault_model_activation_schedules() {
        let perm = FaultModel::PermanentStuckAt;
        let seu = FaultModel::TransientSeu { duration: 2 };
        let inter = FaultModel::Intermittent { period: 3 };
        for step in 1..=8 {
            assert!(perm.active_at(step));
            assert_eq!(seu.active_at(step), step <= 2);
            assert_eq!(inter.active_at(step), (step - 1) % 3 == 0);
        }
        assert!(seu.dead_after(3) && !seu.dead_after(2));
        assert!(!inter.dead_after(100) && !perm.dead_after(100));
        // Phases repeat exactly when future behaviour repeats.
        assert_eq!(seu.phase_at(3), seu.phase_at(9));
        assert_ne!(seu.phase_at(1), seu.phase_at(2));
        assert_eq!(inter.phase_at(1), inter.phase_at(4));
        assert_eq!(perm.phase_at(1), perm.phase_at(7));
    }

    #[test]
    fn fault_model_parse_label_round_trip() {
        for label in ["permanent", "transient:4", "intermittent:3", "multibit:1"] {
            let m = FaultModel::parse(label).unwrap();
            assert_eq!(m.label(), label);
            let mut w = ced_runtime::ByteWriter::new();
            m.write(&mut w);
            let bytes = w.finish();
            let mut r = ced_runtime::ByteReader::new(&bytes);
            assert_eq!(FaultModel::read(&mut r).unwrap(), m);
        }
        assert!(FaultModel::parse("transient:0").is_err());
        assert!(FaultModel::parse("intermittent:0").is_err());
        assert!(FaultModel::parse("bogus").is_err());
        assert!(FaultModel::parse("transient").is_err());
    }

    #[test]
    fn multibit_cluster_expansion() {
        let n = chain_netlist();
        let seed = Fault::new(NetId(2), true);
        assert_eq!(
            FaultModel::PermanentStuckAt.expand(seed, &n),
            vec![seed],
            "single-net models expand to the seed alone"
        );
        assert_eq!(
            FaultModel::MultiBitCluster { radius: 0 }.expand(seed, &n),
            vec![seed]
        );
        let cluster = FaultModel::MultiBitCluster { radius: 1 }.expand(seed, &n);
        assert_eq!(
            cluster,
            vec![
                Fault::new(NetId(1), true),
                Fault::new(NetId(2), true),
                Fault::new(NetId(3), true)
            ]
        );
    }
}
