//! A tour of the whole toolchain on one machine: parse → state-minimize
//! → encode → synthesize → export → re-import → equivalence-check →
//! protect with bounded-latency CED → diagnose an injected fault.
//!
//! Run with: `cargo run -p ced-examples --bin toolchain_tour`

use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_fsm::encoded::EncodedFsm;
use ced_fsm::encoding::{assign, EncodingStrategy};
use ced_fsm::kiss;
use ced_fsm::minimize::minimize_states;
use ced_logic::{blif, MinimizeOptions};
use ced_sim::detect::{DetectOptions, DetectabilityTable};
use ced_sim::diagnose::{FaultDictionary, Observation};
use ced_sim::equiv::check_equivalence;
use ced_sim::fault::collapsed_faults;
use ced_sim::models::register_upset_table;
use ced_sim::tables::TransitionTables;

/// A deliberately bloated controller: states `e2`/`e3` duplicate `e0`/
/// `e1`'s behaviour and should disappear under minimization.
const KISS2: &str = "\
.model bloated
.i 1
.o 2
.s 5
.r e0
0 e0 e0 00
1 e0 e1 01
0 e1 e2 10
1 e1 f  11
0 e2 e2 00
1 e2 e3 01
0 e3 e0 10
1 e3 f  11
- f  e0 00
.e
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse and minimize.
    let fsm = kiss::parse(KISS2)?;
    let min = minimize_states(&fsm)?;
    println!(
        "1. parsed `{}`: {} states → minimized to {}",
        fsm.name(),
        fsm.num_states(),
        min.num_states()
    );

    // 2. Encode and synthesize both; prove them equivalent at gate level.
    let synth = |m: &ced_fsm::Fsm| {
        let enc = assign(m, EncodingStrategy::Gray);
        EncodedFsm::new(m.clone(), enc).map(|e| e.synthesize(&MinimizeOptions::default()))
    };
    let big = synth(&fsm)?;
    let small = synth(&min)?;
    println!(
        "2. synthesized: {} vs {} gates; equivalence: {:?}",
        big.gate_count(),
        small.gate_count(),
        check_equivalence(&big, &small).is_equivalent()
    );

    // 3. Export to BLIF, re-import, sanity-check one transition.
    let text = small.to_blif();
    let model = blif::parse(&text)?;
    println!(
        "3. BLIF round-trip: {} latches, {} gates re-imported",
        model.latches.len(),
        model.netlist.gate_count()
    );

    // 4. Protect with bounded-latency CED (stuck-at ∪ register upsets).
    let faults = collapsed_faults(small.netlist());
    let stuck = DetectabilityTable::build(
        &small,
        &faults,
        &DetectOptions {
            latency: 2,
            reduce: false,
            ..DetectOptions::default()
        },
    )?
    .0;
    let combined = stuck.merged(&register_upset_table(&small, 2));
    let outcome = minimize_parity_functions(&combined, &CedOptions::default());
    println!(
        "4. CED: {} combined erroneous cases (stuck-at + register upsets) \
         covered by q = {} parity trees at p = 2",
        combined.len(),
        outcome.q
    );

    // 5. Inject a fault, collect checker observations, diagnose.
    let dict = FaultDictionary::build(&small, &faults, &outcome.cover.masks);
    let culprit = 3usize;
    let good = TransitionTables::good(&small);
    let bad = TransitionTables::faulty(&small, &[faults[culprit]]);
    let mut state = small.reset_code();
    let mut observations = Vec::new();
    let mut x = 0x5EEDu64;
    for _ in 0..150 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let input = (x >> 40) & ((1 << small.num_inputs()) - 1);
        let d = good.response(state, input) ^ bad.response(state, input);
        let mut syndrome = 0u64;
        for (l, &m) in outcome.cover.masks.iter().enumerate() {
            if (m & d).count_ones() & 1 == 1 {
                syndrome |= 1 << l;
            }
        }
        observations.push(Observation {
            state,
            input,
            syndrome,
        });
        state = bad.next(state, input);
    }
    let candidates = dict.diagnose(&observations);
    println!(
        "5. diagnosis: injected {} → {} candidate fault(s) after 150 cycles \
         (dictionary resolution {:.2})",
        faults[culprit],
        candidates.len(),
        dict.resolution()
    );
    assert!(candidates.contains(&culprit), "true fault must survive");
    println!("\ntour complete ✓");
    Ok(())
}
