//! Property tests pinning the bit-packed sparse representation to the
//! row-major tensor on *real* built tables: random generated machines,
//! random latency bounds, and all four fault-model families. The packed
//! queries must agree bit for bit — same booleans, same indices, same
//! counts — and the GF(2) case kernel must answer cover checks exactly
//! like the full table.

use ced_fsm::encoded::EncodedFsm;
use ced_fsm::encoding::{assign, EncodingStrategy};
use ced_fsm::generator::{generate, GeneratorConfig};
use ced_logic::MinimizeOptions;
use ced_sim::detect::{DetectOptions, DetectabilityTable};
use ced_sim::fault::{collapsed_faults, FaultModel};
use ced_sim::packed::{PackedTable, SparseTables};
use ced_store::RowSet;
use proptest::prelude::*;

fn small_circuit_strategy() -> impl Strategy<Value = ced_fsm::FsmCircuit> {
    (1usize..=2, 2usize..=6, 1usize..=3, any::<u64>()).prop_map(
        |(inputs, states, outputs, seed)| {
            let fsm = generate(&GeneratorConfig {
                name: "sparse-prop".into(),
                num_inputs: inputs,
                num_states: states,
                num_outputs: outputs,
                cubes_per_state: 3,
                self_loop_bias: 0.3,
                output_dc_prob: 0.1,
                output_pool: 2,
                seed,
            });
            let enc = assign(&fsm, EncodingStrategy::Natural);
            EncodedFsm::new(fsm, enc)
                .expect("well-formed")
                .synthesize(&MinimizeOptions::default())
        },
    )
}

/// One representative of each fault-model family, indexed so proptest
/// can pick among them.
fn model(index: usize) -> FaultModel {
    match index % 4 {
        0 => FaultModel::PermanentStuckAt,
        1 => FaultModel::TransientSeu { duration: 2 },
        2 => FaultModel::Intermittent { period: 2 },
        _ => FaultModel::MultiBitCluster { radius: 1 },
    }
}

/// A deterministic stream of clipped mask families.
fn mask_families(num_bits: usize, seed: u64, count: usize) -> Vec<Vec<u64>> {
    let clip = if num_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << num_bits) - 1
    };
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 7
    };
    (0..count)
        .map(|i| (0..=(i % 3)).map(|_| next() & clip).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every packed query agrees with its row-major twin on a real
    /// tensor, whatever the fault model and latency bound.
    #[test]
    fn packed_table_matches_dense_on_built_tensors(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
        model_index in 0usize..4,
        mask_seed in any::<u64>(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let table = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency: p,
                fault_model: model(model_index),
                ..DetectOptions::default()
            },
        ).expect("fits").0;
        let packed = PackedTable::from_table(&table);
        prop_assert_eq!(packed.len(), table.len());
        prop_assert_eq!(packed.num_bits(), table.num_bits());
        prop_assert_eq!(packed.latency(), table.latency());
        for masks in mask_families(table.num_bits(), mask_seed, 12) {
            prop_assert_eq!(
                packed.all_covered(&masks),
                table.all_covered(&masks),
                "masks {:?}", masks
            );
            prop_assert_eq!(packed.uncovered_rows(&masks), table.uncovered_rows(&masks));
        }
    }

    /// The case-kernel boolean equals the full-table boolean on real
    /// tensors — the witness map is sound on machine-shaped structure,
    /// not just on synthetic rows.
    #[test]
    fn kernel_cover_check_matches_full_on_built_tensors(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
        model_index in 0usize..4,
        mask_seed in any::<u64>(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let table = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency: p,
                fault_model: model(model_index),
                ..DetectOptions::default()
            },
        ).expect("fits").0;
        let sparse = SparseTables::build(&table);
        prop_assert!(sparse.kernel().len() <= table.len());
        prop_assert_eq!(sparse.reduction().len(), table.len());
        for masks in mask_families(table.num_bits(), mask_seed, 16) {
            prop_assert_eq!(
                sparse.all_covered(&masks),
                table.all_covered(&masks),
                "masks {:?}", masks
            );
        }
        // Singleton masks cover every built table; the kernel must say
        // so too.
        let singles: Vec<u64> = (0..table.num_bits()).map(|b| 1 << b).collect();
        prop_assert!(sparse.all_covered(&singles));
    }

    /// Witness soundness on real tensors: every dropped row's witness
    /// is at least as hard to detect — any mask detecting the witness
    /// detects the dropped row. This is the per-row obligation behind
    /// the kernel boolean, checked directly.
    #[test]
    fn case_witnesses_are_sound_on_built_tensors(
        circuit in small_circuit_strategy(),
        p in 1usize..=2,
        model_index in 0usize..4,
        mask_seed in any::<u64>(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let table = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency: p,
                fault_model: model(model_index),
                ..DetectOptions::default()
            },
        ).expect("fits").0;
        let sparse = SparseTables::build(&table);
        let reduction = sparse.reduction();
        let rows = table.rows();
        for masks in mask_families(table.num_bits(), mask_seed, 8) {
            for (i, row) in rows.iter().enumerate() {
                let w = reduction.witness_for(i);
                for &m in &masks {
                    if rows[w].detected_by(m) {
                        prop_assert!(
                            row.detected_by(m),
                            "mask {m:#x} detects witness {w} but not row {i}"
                        );
                    }
                }
            }
        }
    }

    /// Greedy scoring parity: the packed covered-count over a shrinking
    /// uncovered set equals the filtered row-major count on real
    /// tensors (the query the greedy hill climber spends its time in).
    #[test]
    fn packed_covered_count_matches_on_built_tensors(
        circuit in small_circuit_strategy(),
        p in 1usize..=2,
        mask_seed in any::<u64>(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let table = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: p, ..DetectOptions::default() },
        ).expect("fits").0;
        let packed = PackedTable::from_table(&table);
        let mut uncovered = RowSet::full(table.len());
        for (step, masks) in mask_families(table.num_bits(), mask_seed, 6).iter().enumerate() {
            for &mask in masks {
                let dense = uncovered
                    .iter()
                    .filter(|&i| table.rows()[i].detected_by(mask))
                    .count();
                prop_assert_eq!(packed.covered_count(mask, &uncovered), dense);
            }
            // Shrink the uncovered set as the greedy loop would.
            for i in (step..table.len()).step_by(3) {
                uncovered.remove(i);
            }
        }
    }
}
