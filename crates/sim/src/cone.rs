//! Per-fault structural cone fingerprints (DESIGN.md §16).
//!
//! A fault's detectability fragment — its erroneous cases, activation
//! count and testability — is a pure function of three things: the good
//! machine's transition tables, the enumeration options, and the
//! *faulty output functions* (response and next-state bits of the
//! faulted netlist). The first two are hashed once per build into the
//! shared fragment context ([`crate::detect::fragment_context_hash`]);
//! this module hashes the third.
//!
//! The cone key of a fault is a Merkle-style hash over exactly the
//! output slots its fault cone reaches: for each output slot in the
//! transitive fanout of the faulted net(s), the pair of (fault-free,
//! faulted) structural hashes of that slot's logic cone. Leaves encode
//! input-slot identity (which primary-input or state-register bit feeds
//! the cone), so hash equality implies the cones compute identical
//! functions of `(input, state)` — across *different* netlists, which
//! is what lets an edited machine reuse fragments from its baseline
//! whenever the edit does not reach a fault's cone.
//!
//! Soundness: if two (netlist, fault) pairs have equal cone keys then
//! (a) every reached output slot's fault-free function and faulted
//! function coincide between the two netlists, and (b) the *set* of
//! reached slots coincides; every slot outside the cone computes its
//! fault-free function under the fault by definition of reachability.
//! Equal keys therefore imply identical faulty transition tables up to
//! the good tables' values outside the cone — which the fragment
//! context (plus the delta footprint, for cross-context promotion)
//! pins. Collisions are the usual 64-bit FNV trust assumption shared
//! with every store key in the pipeline.

use crate::eval::{Fanouts, FaultCone};
use crate::fault::{Fault, FaultModel};
use ced_logic::gate::GateKind;
use ced_logic::netlist::Netlist;
use ced_runtime::{fnv1a64_extend, FNV1A64_OFFSET};

/// Folds one little-endian word into an FNV-1a state.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    fnv1a64_extend(h, &v.to_le_bytes())
}

/// Structural hash of every net's fault-free logic cone, in netlist
/// topological order. Leaves carry slot identity: `Input` nets hash
/// their input index (primary-input or state-bit position), constants
/// hash only their kind, and gates fold their fanins' hashes in fanin
/// order. Two nets with equal hashes compute the same function of the
/// netlist's input vector (modulo hash collision).
pub fn plain_hashes(netlist: &Netlist) -> Vec<u64> {
    let gates = netlist.gates();
    let mut plain = vec![0u64; gates.len()];
    for (i, g) in gates.iter().enumerate() {
        let mut h = mix(FNV1A64_OFFSET, u64::from(g.kind.tag()));
        if g.kind == GateKind::Input {
            h = mix(h, i as u64);
        }
        for k in 0..g.kind.arity() {
            h = mix(h, plain[g.fanin[k].index()]);
        }
        plain[i] = h;
    }
    plain
}

/// The cone key of each fault in `faults` under `model`, in order.
///
/// For every fault the seed is expanded per the model (a
/// [`FaultModel::MultiBitCluster`] injects its whole spatial cluster;
/// every other model injects the seed alone), each injected net's hash
/// is replaced by a stuck-at marker, and hashes are recomputed along
/// the transitive-fanout corridor ([`FaultCone`]) only. The key
/// digests, over the output slots in that corridor, the triple `(slot
/// index, fault-free hash, faulted hash)` — the transitive fan-in of
/// the faulted nets plus the output/next-state logic they feed, and
/// nothing else.
///
/// A fault reaching no output slot (structurally redundant) keys over
/// the empty slot set; all such faults share one key, and all of their
/// fragments are identically empty and untestable.
pub fn cone_keys(netlist: &Netlist, faults: &[Fault], model: FaultModel) -> Vec<u64> {
    let gates = netlist.gates();
    let plain = plain_hashes(netlist);
    let fanouts = Fanouts::new(netlist);
    let mut cone = FaultCone::default();
    let mut faulted = plain.clone();
    let mut forced = vec![false; gates.len()];
    let mut keys = Vec::with_capacity(faults.len());
    for &seed in faults {
        // Inject the expanded cluster as stuck-at leaves.
        let cluster = model.expand(seed, netlist);
        for f in &cluster {
            let i = f.net.index();
            faulted[i] = mix(mix(FNV1A64_OFFSET, u64::MAX), u64::from(f.stuck_at));
            forced[i] = true;
        }
        // Rehash the fanout cone (its nets come in topological order,
        // so every faulted fanin is final before its reader).
        cone.mark(netlist, &fanouts, &cluster);
        for i in cone.nets() {
            if forced[i] {
                continue;
            }
            let g = &gates[i];
            let mut h = mix(FNV1A64_OFFSET, u64::from(g.kind.tag()));
            for k in 0..g.kind.arity() {
                h = mix(h, faulted[g.fanin[k].index()]);
            }
            faulted[i] = h;
        }
        // Digest the reached output slots (slot order is the netlist's
        // output order: next-state bits then response bits).
        let mut key = FNV1A64_OFFSET;
        for (slot, o) in netlist.outputs().iter().enumerate() {
            let i = o.index();
            if cone.contains(i) {
                key = mix(key, slot as u64);
                key = mix(key, plain[i]);
                key = mix(key, faulted[i]);
            }
        }
        keys.push(key);
        // Restore the scratch state for the next fault.
        for i in cone.nets() {
            faulted[i] = plain[i];
            forced[i] = false;
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_logic::netlist::{NetId, NetlistBuilder};

    fn two_cone_netlist() -> Netlist {
        // Two disjoint cones: out0 = a AND b, out1 = NOT c.
        let mut b = NetlistBuilder::new(3);
        let a = b.input(0);
        let x = b.input(1);
        let c = b.input(2);
        let g0 = b.and(a, x);
        let g1 = b.not(c);
        b.mark_output(g0);
        b.mark_output(g1);
        b.finish()
    }

    #[test]
    fn cone_keys_are_pinned() {
        // Cone keys address persisted fragments in the store: any
        // change to these values moves every fragment key.
        let n = two_cone_netlist();
        let faults: Vec<Fault> = (0..5)
            .flat_map(|i| [Fault::new(NetId(i), false), Fault::new(NetId(i), true)])
            .collect();
        let permanent = cone_keys(&n, &faults, FaultModel::PermanentStuckAt);
        let cluster = cone_keys(&n, &faults, FaultModel::MultiBitCluster { radius: 2 });
        assert_eq!(
            permanent,
            [
                0xb334_528a_edeb_9a9d,
                0x4b95_38c4_3d29_3a03,
                0x3e7e_919b_0565_664c,
                0x3311_a398_b73f_9ca9,
                0x7c9c_10c1_dd71_458b,
                0x6800_980a_bfe0_36d8,
                0x87c1_be22_47de_48ed,
                0xf5aa_a896_a36a_ff6b,
                0x1833_bf37_0207_4a7d,
                0xc11a_b8b1_2f26_b39b,
            ]
        );
        assert_eq!(
            cluster,
            [
                0xf066_fc6e_dd57_60e8,
                0x4d98_f651_ec66_eef9,
                0x60bc_ea07_21eb_9f83,
                0x196b_b458_22a3_05aa,
                0x89c4_5575_a93f_2e55,
                0x19d7_884d_2ed5_b321,
                0x89c4_5575_a93f_2e55,
                0x19d7_884d_2ed5_b321,
                0x89c4_5575_a93f_2e55,
                0x19d7_884d_2ed5_b321,
            ]
        );
    }

    #[test]
    fn disjoint_cones_get_distinct_keys_and_ignore_each_other() {
        let n = two_cone_netlist();
        let faults = vec![
            Fault::new(NetId(0), true),  // input a: reaches out0 only
            Fault::new(NetId(2), true),  // input c: reaches out1 only
            Fault::new(NetId(0), false), // opposite polarity
        ];
        let keys = cone_keys(&n, &faults, FaultModel::PermanentStuckAt);
        assert_ne!(keys[0], keys[1], "different cones, different keys");
        // Both polarities of a stuck input differ (the marker encodes
        // the stuck value).
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn keys_stable_across_scratch_reuse() {
        let n = two_cone_netlist();
        let faults = vec![Fault::new(NetId(3), false), Fault::new(NetId(4), true)];
        let once = cone_keys(&n, &faults, FaultModel::PermanentStuckAt);
        // Reversed order must give the same per-fault keys (scratch
        // state fully restored between faults).
        let rev = vec![faults[1], faults[0]];
        let twice = cone_keys(&n, &rev, FaultModel::PermanentStuckAt);
        assert_eq!(once[0], twice[1]);
        assert_eq!(once[1], twice[0]);
    }

    #[test]
    fn edit_outside_cone_preserves_key() {
        // Same structure except out1's gate flips OR -> XOR (a real
        // structural edit — the builder folds degenerate rewrites like
        // NOR(c, c) back to NOT(c)): faults in cone 0 keep their key,
        // faults in cone 1 change.
        let build = |second_xor: bool| {
            let mut b = NetlistBuilder::new(3);
            let a = b.input(0);
            let x = b.input(1);
            let c = b.input(2);
            let g0 = b.and(a, x);
            let g1 = if second_xor { b.xor(c, x) } else { b.or(c, x) };
            b.mark_output(g0);
            b.mark_output(g1);
            b.finish()
        };
        let n1 = build(false);
        let n2 = build(true);
        let faults = vec![Fault::new(NetId(0), true), Fault::new(NetId(2), true)];
        let k1 = cone_keys(&n1, &faults, FaultModel::PermanentStuckAt);
        let k2 = cone_keys(&n2, &faults, FaultModel::PermanentStuckAt);
        assert_eq!(k1[0], k2[0], "untouched cone key must survive the edit");
        assert_ne!(k1[1], k2[1], "edited cone key must change");
    }

    #[test]
    fn multibit_cluster_widens_the_cone() {
        let n = two_cone_netlist();
        let seed = Fault::new(NetId(2), true);
        let single = cone_keys(&n, &[seed], FaultModel::PermanentStuckAt);
        let cluster = cone_keys(&n, &[seed], FaultModel::MultiBitCluster { radius: 2 });
        assert_ne!(single[0], cluster[0], "cluster reaches more slots");
    }

    #[test]
    fn unreached_faults_share_the_empty_key() {
        // An input net feeding no output at all.
        let mut b = NetlistBuilder::new(2);
        let a = b.input(0);
        let _dangling = b.input(1);
        b.mark_output(a);
        let n = b.finish();
        let faults = vec![Fault::new(NetId(1), false), Fault::new(NetId(1), true)];
        let keys = cone_keys(&n, &faults, FaultModel::PermanentStuckAt);
        assert_eq!(keys[0], keys[1], "no reached slots: polarity is moot");
    }
}
