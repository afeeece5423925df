//! Property-based tests for the fault-simulation layer: table
//! extraction fidelity, detectability invariants, dominance-reduction
//! equivalence, the analytic/operational soundness link, and the
//! survivability layer (checkpoint serialization fidelity).

use ced_fsm::encoded::EncodedFsm;
use ced_fsm::encoding::{assign, EncodingStrategy};
use ced_fsm::generator::{generate, GeneratorConfig};
use ced_logic::MinimizeOptions;
use ced_sim::coverage::{simulate_fault_detection, SimOutcome};
use ced_sim::detect::{DetectOptions, DetectabilityTable, Semantics};
use ced_sim::fault::{all_faults, collapsed_faults, FaultModel};
use ced_sim::tables::TransitionTables;
use proptest::prelude::*;

fn small_circuit_strategy() -> impl Strategy<Value = ced_fsm::FsmCircuit> {
    (1usize..=2, 2usize..=6, 1usize..=3, any::<u64>()).prop_map(
        |(inputs, states, outputs, seed)| {
            let fsm = generate(&GeneratorConfig {
                name: "sim-prop".into(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tables_match_circuit_stepping(circuit in small_circuit_strategy()) {
        let t = TransitionTables::good(&circuit);
        for code in 0..(1u64 << circuit.state_bits()) {
            for input in 0..(1u64 << circuit.num_inputs()) {
                let (next, out) = circuit.step(code, input);
                prop_assert_eq!(t.next(code, input), next);
                prop_assert_eq!(t.output(code, input), out);
            }
        }
    }

    #[test]
    fn collapsed_faults_are_subset_of_all(circuit in small_circuit_strategy()) {
        let all = all_faults(circuit.netlist());
        let collapsed = collapsed_faults(circuit.netlist());
        prop_assert!(collapsed.len() <= all.len());
        for f in &collapsed {
            prop_assert!(all.contains(f));
        }
    }

    #[test]
    fn detectability_rows_have_nonzero_activation(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let (table, stats) = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: p, ..DetectOptions::default() },
        ).expect("fits");
        prop_assert_eq!(stats.rows, table.len());
        for row in table.rows() {
            prop_assert!(row.any_step_union() != 0, "all-zero row");
            prop_assert_eq!(row.steps.len(), p);
        }
        // Singleton masks always cover.
        let singles: Vec<u64> = (0..table.num_bits()).map(|b| 1 << b).collect();
        prop_assert!(table.all_covered(&singles));
    }

    #[test]
    fn online_reduction_equals_offline(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let online = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: p, reduce: true, ..DetectOptions::default() },
        ).expect("fits").0;
        let offline = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: p, reduce: false, ..DetectOptions::default() },
        ).expect("fits").0.dominance_reduced();
        prop_assert_eq!(online, offline);
    }

    #[test]
    fn reduction_preserves_coverage_for_random_masks(
        circuit in small_circuit_strategy(),
        masks in proptest::collection::vec(1u64..64, 1..4),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let raw = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: 2, reduce: false, ..DetectOptions::default() },
        ).expect("fits").0;
        let reduced = raw.dominance_reduced();
        let n = raw.num_bits();
        let clip = if n >= 64 { u64::MAX } else { (1 << n) - 1 };
        let masks: Vec<u64> = masks.iter().map(|m| m & clip).filter(|&m| m != 0).collect();
        prop_assert_eq!(raw.all_covered(&masks), reduced.all_covered(&masks));
    }

    #[test]
    fn semantics_coincide_at_latency_one(circuit in small_circuit_strategy()) {
        let faults = collapsed_faults(circuit.netlist());
        let a = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: 1, semantics: Semantics::Lockstep, ..DetectOptions::default() },
        ).expect("fits").0;
        let b = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: 1, semantics: Semantics::FaultyTrajectory, ..DetectOptions::default() },
        ).expect("fits").0;
        prop_assert_eq!(a, b);
    }

    #[test]
    fn register_upsets_always_covered_by_state_singletons(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
    ) {
        let table = ced_sim::models::register_upset_table(&circuit, p);
        let masks: Vec<u64> = (0..circuit.state_bits()).map(|b| 1 << b).collect();
        prop_assert!(table.all_covered(&masks));
        for row in table.rows() {
            prop_assert!(row.steps[0].count_ones() == 1, "flip step must be a single bit");
            prop_assert!(row.steps[0] < (1 << circuit.state_bits()));
        }
    }

    #[test]
    fn merged_tables_cover_both_parts(
        circuit in small_circuit_strategy(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let stuck = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions { latency: 2, reduce: false, ..DetectOptions::default() },
        ).expect("fits").0;
        let upsets = ced_sim::models::register_upset_table(&circuit, 2);
        let merged = stuck.merged(&upsets);
        // A random-ish family of masks: coverage of merged implies
        // coverage of each part.
        for masks in [vec![0b01u64, 0b10], vec![(1 << circuit.total_bits()) - 1], vec![0b11]] {
            if merged.all_covered(&masks) {
                prop_assert!(stuck.all_covered(&masks));
                prop_assert!(upsets.all_covered(&masks));
            }
        }
    }

    #[test]
    fn diagnosis_never_excludes_the_true_fault(
        circuit in small_circuit_strategy(),
        seed in any::<u64>(),
    ) {
        use ced_sim::diagnose::{FaultDictionary, Observation};
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let faults = collapsed_faults(circuit.netlist());
        let masks: Vec<u64> = (0..circuit.total_bits()).map(|b| 1 << b).collect();
        let dict = FaultDictionary::build(&circuit, &faults, &masks);
        let good = TransitionTables::good(&circuit);
        for (i, &f) in faults.iter().enumerate().take(6) {
            let bad = TransitionTables::faulty(&circuit, &[f]);
            let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
            let mut state = circuit.reset_code();
            let mut obs = Vec::new();
            for _ in 0..40 {
                let input = rng.next_u64() & ((1 << circuit.num_inputs()) - 1);
                let d = good.response(state, input) ^ bad.response(state, input);
                let mut syndrome = 0u64;
                for (l, &m) in masks.iter().enumerate() {
                    if (m & d).count_ones() & 1 == 1 {
                        syndrome |= 1 << l;
                    }
                }
                obs.push(Observation { state, input, syndrome });
                state = bad.next(state, input);
            }
            prop_assert!(dict.diagnose(&obs).contains(&i));
        }
    }

    #[test]
    fn build_checkpoints_round_trip_bit_exactly(
        circuit in small_circuit_strategy(),
        p in 1usize..=2,
    ) {
        use ced_runtime::{decode_checkpoint, encode_checkpoint, Budget};
        use ced_sim::detect::{BuildCheckpoint, BuildControl};

        // Capture every fault-boundary checkpoint of a real build.
        let faults = collapsed_faults(circuit.netlist());
        let budget = Budget::unlimited();
        let mut captured: Vec<BuildCheckpoint> = Vec::new();
        let mut sink = |c: &BuildCheckpoint| captured.push(c.clone());
        let mut control = BuildControl::new(&budget);
        control.checkpoint_every = 1;
        control.on_checkpoint = Some(&mut sink);
        DetectabilityTable::build_many_controlled(
            &circuit,
            &faults,
            &DetectOptions { latency: p, ..DetectOptions::default() },
            &[p],
            control,
        ).expect("fits");
        prop_assert!(!captured.is_empty(), "a build over ≥1 fault must checkpoint");

        const KIND: u16 = 7;
        for ckpt in &captured {
            // Payload round trip is bit-exact in both directions.
            let payload = ckpt.to_bytes();
            let back = BuildCheckpoint::from_bytes(&payload).expect("payload decodes");
            prop_assert_eq!(&back, ckpt);
            prop_assert_eq!(back.to_bytes(), payload.clone());
            // And so is the trip through the on-disk envelope.
            let container = encode_checkpoint(KIND, &payload);
            prop_assert_eq!(decode_checkpoint(&container, KIND).expect("envelope"), payload);
        }

        // A build resumed from a serialized mid-run checkpoint yields
        // a table identical to the uninterrupted build.
        let options = DetectOptions { latency: p, ..DetectOptions::default() };
        let clean = DetectabilityTable::build_many(&circuit, &faults, &options, &[p])
            .expect("fits");
        let mid = BuildCheckpoint::from_bytes(&captured[captured.len() / 2].to_bytes())
            .expect("payload decodes");
        let mut control = BuildControl::new(&budget);
        control.resume = Some(mid);
        let resumed = DetectabilityTable::build_many_controlled(
            &circuit,
            &faults,
            &options,
            &[p],
            control,
        ).expect("resume fits");
        prop_assert_eq!(resumed, clean);
    }

    #[test]
    fn corrupting_any_checkpoint_byte_is_detected(
        circuit in small_circuit_strategy(),
        offset_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        use ced_runtime::{decode_checkpoint, encode_checkpoint, Budget, CheckpointError};
        use ced_sim::detect::{BuildCheckpoint, BuildControl};

        let faults = collapsed_faults(circuit.netlist());
        let budget = Budget::unlimited();
        let mut captured: Option<BuildCheckpoint> = None;
        let mut sink = |c: &BuildCheckpoint| captured = Some(c.clone());
        let mut control = BuildControl::new(&budget);
        control.checkpoint_every = 1;
        control.on_checkpoint = Some(&mut sink);
        DetectabilityTable::build_many_controlled(
            &circuit,
            &faults,
            &DetectOptions::default(),
            &[1],
            control,
        ).expect("fits");
        let payload = captured.expect("checkpoint captured").to_bytes();

        const KIND: u16 = 7;
        let clean = encode_checkpoint(KIND, &payload);
        let offset = offset_seed % clean.len();
        let mut corrupt = clean.clone();
        corrupt[offset] ^= flip;

        // No single-byte corruption may ever decode successfully.
        let err = decode_checkpoint(&corrupt, KIND)
            .expect_err("corrupted envelope must be rejected");
        // A flipped *payload* byte is specifically a checksum mismatch
        // (header corruption may trip an earlier, equally-typed check).
        if offset >= 16 && offset < 16 + payload.len() {
            prop_assert!(
                matches!(err, CheckpointError::ChecksumMismatch { .. }),
                "payload corruption at {} produced {:?}", offset, err
            );
        }
    }

    #[test]
    fn pooled_build_matches_serial_at_every_job_count(
        circuit in small_circuit_strategy(),
        p in 1usize..=2,
        jobs in 2usize..=4,
    ) {
        use ced_par::ParExec;
        use ced_runtime::Budget;
        use ced_sim::detect::BuildControl;

        let faults = collapsed_faults(circuit.netlist());
        let options = DetectOptions { latency: p, ..DetectOptions::default() };
        let serial = DetectabilityTable::build_many(&circuit, &faults, &options, &[p])
            .expect("fits");
        let budget = Budget::unlimited();
        let pool = ParExec::new(jobs);
        let pooled = DetectabilityTable::build_many_controlled(
            &circuit,
            &faults,
            &options,
            &[p],
            BuildControl { pool: Some(&pool), ..BuildControl::new(&budget) },
        ).expect("fits");
        prop_assert_eq!(&serial, &pooled);
        // Bitwise, not just structurally: the serialized tensors agree.
        for ((ts, _), (tp, _)) in serial.iter().zip(&pooled) {
            prop_assert_eq!(ts.to_bytes(), tp.to_bytes());
        }
    }

    #[test]
    fn build_errors_surface_identically_under_the_pool(
        circuit in small_circuit_strategy(),
        jobs in 2usize..=4,
    ) {
        use ced_par::ParExec;
        use ced_runtime::Budget;
        use ced_sim::detect::BuildControl;

        let faults = collapsed_faults(circuit.netlist());
        let budget = Budget::unlimited();
        let pool = ParExec::new(jobs);
        // A row cap of 1 and an overflowing tensor volume: both error
        // paths must produce the same typed error at the same point no
        // matter which prefetch worker was in flight when it tripped.
        for options in [
            DetectOptions { latency: 1, max_rows: 1, ..DetectOptions::default() },
            DetectOptions { latency: 2, max_rows: usize::MAX / 2, ..DetectOptions::default() },
        ] {
            let serial = DetectabilityTable::build_many(&circuit, &faults, &options, &[options.latency]);
            let pooled = DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &options,
                &[options.latency],
                BuildControl { pool: Some(&pool), ..BuildControl::new(&budget) },
            );
            match (&serial, &pooled) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                _ => prop_assert!(false, "serial {serial:?} vs pooled {pooled:?}"),
            }
        }
    }

    #[test]
    fn degenerate_fault_models_collapse_to_permanent(
        circuit in small_circuit_strategy(),
        p in 1usize..=3,
    ) {
        // A never-deasserting SEU, an every-step intermittent and a
        // zero-radius cluster are the permanent model in disguise: the
        // timed/multi-net enumerators must reproduce the permanent
        // tensor bit for bit on arbitrary machines, both semantics.
        let faults = collapsed_faults(circuit.netlist());
        for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
            let base = DetectOptions {
                latency: p,
                semantics,
                ..DetectOptions::default()
            };
            let permanent = DetectabilityTable::build(&circuit, &faults, &base)
                .expect("fits").0;
            for model in [
                FaultModel::TransientSeu { duration: usize::MAX },
                FaultModel::Intermittent { period: 1 },
                FaultModel::MultiBitCluster { radius: 0 },
            ] {
                let got = DetectabilityTable::build(
                    &circuit,
                    &faults,
                    &DetectOptions { fault_model: model, ..base.clone() },
                ).expect("fits").0;
                prop_assert_eq!(&got, &permanent, "p={} {:?} {}", p, semantics, model);
                prop_assert_eq!(got.to_bytes(), permanent.to_bytes());
            }
        }
    }

    #[test]
    fn timed_models_at_latency_one_match_permanent(
        circuit in small_circuit_strategy(),
        duration in 1usize..=3,
        period in 2usize..=4,
    ) {
        // Step 1 is active under every model, so a latency-1 tensor
        // cannot see a fault deassert: all models coincide there.
        let faults = collapsed_faults(circuit.netlist());
        for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
            let base = DetectOptions {
                latency: 1,
                semantics,
                ..DetectOptions::default()
            };
            let permanent = DetectabilityTable::build(&circuit, &faults, &base)
                .expect("fits").0;
            for model in [
                FaultModel::TransientSeu { duration },
                FaultModel::Intermittent { period },
            ] {
                let got = DetectabilityTable::build(
                    &circuit,
                    &faults,
                    &DetectOptions { fault_model: model, ..base.clone() },
                ).expect("fits").0;
                prop_assert_eq!(&got, &permanent, "{:?} {}", semantics, model);
            }
        }
    }

    #[test]
    fn singleton_monitors_never_miss_operationally(
        circuit in small_circuit_strategy(),
        seed in any::<u64>(),
    ) {
        let faults = collapsed_faults(circuit.netlist());
        let singles: Vec<u64> = (0..circuit.total_bits()).map(|b| 1 << b).collect();
        for (i, &f) in faults.iter().enumerate().take(12) {
            for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
                let out = simulate_fault_detection(
                    &circuit, f, &singles, 1, 300, seed ^ i as u64, semantics,
                );
                let missed = matches!(out, SimOutcome::Missed { .. });
                prop_assert!(!missed);
            }
        }
    }
}
