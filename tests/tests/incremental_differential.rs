//! Incremental ≡ from-scratch differential suite. The pinned
//! invariant of the edit→re-diagnose loop: a baseline-seeded analysis
//! of an edited machine is **byte-identical** to analyzing the edited
//! machine from scratch — across fault models, job counts and store
//! temperature. The baseline only changes wall-clock
//! (per-fault-cone fragments promoted from the previous revision) and
//! the stderr summary; never a payload byte.
//!
//! Also pinned here: structural edits fall back to the whole-stage
//! path (still byte-identical), fragment promotion observably reuses
//! the baseline's work, and a *validly-encoded but wrong* fragment or
//! whole-table artifact — the strongest poisoning the
//! content-addressed layer cannot catch by checksum — trips the
//! byte-for-byte composition check, degrades to a monolithic rebuild,
//! and still yields the exact from-scratch payload.

use ced_core::pipeline::PipelineOptions;
use ced_fsm::machine::{Fsm, OutputValue};
use ced_fsm::suite as bench;
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_serve::ops::check_text_with_baseline;
use ced_serve::{DeltaSummary, OpKind, OpRequest};
use ced_sim::detect::TENSOR_STAGE;
use ced_sim::fault::FaultModel;
use ced_store::{StageCounters, Store, TENSOR_FRAG_STAGE};
use std::path::PathBuf;

const MACHINES: [&str; 3] = ["s27", "tav", "dk512"];
const LATENCY: usize = 2;

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
}

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("ced-incr-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic splitmix64 — the suite must pick the same "random"
/// edits on every run and platform.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Rebuilds `fsm` with transition `t_idx`'s output bit `bit` set to
/// `v` — the single-edit class of the paper's design loop.
fn with_output_edit(fsm: &Fsm, t_idx: usize, bit: usize, v: OutputValue) -> Fsm {
    let mut out = Fsm::new(fsm.name(), fsm.num_inputs(), fsm.num_outputs());
    for s in fsm.state_names() {
        out.add_state(s.clone());
    }
    out.set_reset_state(fsm.reset_state()).unwrap();
    for (i, t) in fsm.transitions().iter().enumerate() {
        let mut output = t.output.clone();
        if i == t_idx {
            output[bit] = v;
        }
        out.add_transition(t.input.clone(), t.from, t.to, output)
            .unwrap();
    }
    out
}

/// A random single-output-bit flip (don't-cares harden to 1).
fn random_output_edit(fsm: &Fsm, rng: &mut Lcg) -> Fsm {
    let t_idx = rng.below(fsm.transitions().len());
    let bit = rng.below(fsm.num_outputs());
    let v = match fsm.transitions()[t_idx].output[bit] {
        OutputValue::Zero | OutputValue::DontCare => OutputValue::One,
        OutputValue::One => OutputValue::Zero,
    };
    with_output_edit(fsm, t_idx, bit, v)
}

/// Rebuilds `fsm` with one transition retargeted to another state — a
/// structural edit the delta front-end must refuse to seed.
fn with_retargeted_transition(fsm: &Fsm, t_idx: usize) -> Fsm {
    let mut out = Fsm::new(fsm.name(), fsm.num_inputs(), fsm.num_outputs());
    for s in fsm.state_names() {
        out.add_state(s.clone());
    }
    out.set_reset_state(fsm.reset_state()).unwrap();
    for (i, t) in fsm.transitions().iter().enumerate() {
        let mut to = t.to;
        if i == t_idx {
            to = ced_fsm::machine::StateId((t.to.0 + 1) % fsm.num_states() as u32);
        }
        out.add_transition(t.input.clone(), t.from, to, t.output.clone())
            .unwrap();
    }
    out
}

fn request(model: FaultModel) -> OpRequest {
    let mut request = OpRequest::new(OpKind::Check, "");
    request.latency = LATENCY;
    request.options = PipelineOptions::paper_defaults();
    request.options.fault_model = model;
    request
}

/// One analysis as the CLI/daemon runs it; returns (payload, summary).
fn analyze(
    fsm: &Fsm,
    baseline: Option<&Fsm>,
    request: &OpRequest,
    jobs: usize,
    store: Option<&Store>,
) -> (String, Option<DeltaSummary>) {
    let pool = ParExec::new(jobs);
    check_text_with_baseline(fsm, baseline, request, &Budget::new(), &pool, store)
        .expect("analysis completes")
}

fn stage_counters(store: &Store, stage: &str) -> StageCounters {
    store
        .stats()
        .stages
        .into_iter()
        .find(|(s, _)| s == stage)
        .map(|(_, c)| c)
        .unwrap_or_default()
}

fn frag_counters(store: &Store) -> StageCounters {
    stage_counters(store, TENSOR_FRAG_STAGE)
}

/// Every `(key, bytes)` the store holds under `stage`, in key order.
fn stage_artifacts(store: &Store, stage: &str) -> Vec<(u64, Vec<u8>)> {
    store
        .entries()
        .into_iter()
        .filter(|e| e.stage == stage)
        .filter_map(|e| {
            store
                .get_artifact(stage, e.fingerprint)
                .map(|bytes| (e.fingerprint, bytes))
        })
        .collect()
}

/// The tentpole differential: for every paper machine and fault
/// model, a random single-output-bit edit
/// analyzed incrementally — warm store seeded by the baseline's own
/// run, and cold store with nothing to promote — matches the
/// from-scratch storeless payload byte-for-byte, at 1 and 4 jobs.
#[test]
fn incremental_matches_scratch_across_models_jobs_and_temperature() {
    let configs: [(&str, FaultModel); 2] = [
        ("perm", FaultModel::PermanentStuckAt),
        ("trans", FaultModel::TransientSeu { duration: 4 }),
    ];
    let mut rng = Lcg(0xCED5);
    for name in MACHINES {
        let base = scaled(name);
        for (tag, model) in configs {
            let edited = random_output_edit(&base, &mut rng);
            let request = request(model);
            let what = format!("{name}/{tag}");

            // From-scratch reference: no store, no baseline.
            let (reference, none) = analyze(&edited, None, &request, 1, None);
            assert!(none.is_none(), "{what}: no baseline, no summary");

            // Warm incremental: the baseline's own run fills the
            // store, then the edited machine analyzes against it.
            let scratch = ScratchDir::new(&format!("warm-{name}-{tag}"));
            let store = Store::open(&scratch.0).expect("store opens");
            let _ = analyze(&base, None, &request, 1, Some(&store));
            for jobs in [1, 4] {
                let (warm, summary) = analyze(&edited, Some(&base), &request, jobs, Some(&store));
                assert_eq!(
                    warm, reference,
                    "{what}: warm incremental (jobs {jobs}) vs from-scratch"
                );
                let summary = summary.expect("baseline produces a summary");
                assert!(summary.cones_total > 0, "{what}: cones counted");
            }

            // Cold incremental: a baseline but an empty store —
            // nothing to promote, still byte-identical.
            let scratch = ScratchDir::new(&format!("cold-{name}-{tag}"));
            let store = Store::open(&scratch.0).expect("store opens");
            let (cold, _) = analyze(&edited, Some(&base), &request, 4, Some(&store));
            assert_eq!(cold, reference, "{what}: cold incremental vs from-scratch");
        }
    }
}

/// Structural edits (a retargeted transition) must refuse the
/// promotion seed and fall back to the whole-stage path — and the
/// fallback must still be byte-identical to from-scratch.
#[test]
fn structural_edits_fall_back_whole_stage_and_stay_identical() {
    let base = scaled("tav");
    let mut rng = Lcg(0xBEEF);
    let edited = with_retargeted_transition(&base, rng.below(base.transitions().len()));
    let request = request(FaultModel::PermanentStuckAt);

    let (reference, _) = analyze(&edited, None, &request, 1, None);

    let scratch = ScratchDir::new("structural");
    let store = Store::open(&scratch.0).expect("store opens");
    let _ = analyze(&base, None, &request, 1, Some(&store));
    let (incremental, summary) = analyze(&edited, Some(&base), &request, 1, Some(&store));
    assert_eq!(incremental, reference, "structural fallback differential");
    let summary = summary.expect("summary present");
    assert!(
        !summary.seeded,
        "a next-state edit must not seed cross-machine promotion"
    );
    assert_eq!(summary.changed_codes, 0, "no seed, no changed-code count");
}

/// Fragment promotion must observably reuse the baseline's fragments:
/// after a warm baseline run, the incremental analysis of an
/// output-edited machine hits the fragment stage at least once per
/// structurally clean cone it reports.
#[test]
fn promotion_observably_reuses_baseline_fragments() {
    let base = scaled("s27");
    let edited = random_output_edit(&base, &mut Lcg(7));
    let request = request(FaultModel::PermanentStuckAt);

    let scratch = ScratchDir::new("promote");
    let store = Store::open(&scratch.0).expect("store opens");
    let _ = analyze(&base, None, &request, 1, Some(&store));
    let before = frag_counters(&store);
    let (_, summary) = analyze(&edited, Some(&base), &request, 1, Some(&store));
    let after = frag_counters(&store);
    let summary = summary.expect("summary present");

    assert!(summary.seeded, "output-only edit must seed promotion");
    let clean = summary.cones_total - summary.cones_dirty;
    assert!(clean > 0, "an s27-sized edit leaves clean cones");
    assert!(
        after.hits - before.hits >= clean as u64,
        "every structurally clean cone must at least probe its \
         baseline fragment (hits {} -> {}, clean {clean})",
        before.hits,
        after.hits
    );
}

/// The strongest poisoning the checksum layer cannot catch: replace
/// one fragment with a *different, validly encoded* fragment (another
/// key's payload), silently dropping the replaced fault's rows from
/// the reassembly. The byte-for-byte comparison with the stored
/// whole-table artifact must refuse it, mark the absorbed fragments
/// corrupt, rebuild monolithically, and produce the exact from-scratch
/// payload.
#[test]
fn poisoned_valid_fragment_trips_composition_and_degrades_to_rebuild() {
    let base = scaled("s27");
    let request = request(FaultModel::PermanentStuckAt);
    let (reference, _) = analyze(&base, None, &request, 1, None);

    let scratch = ScratchDir::new("poison");
    let store = Store::open(&scratch.0).expect("store opens");
    let _ = analyze(&base, None, &request, 1, Some(&store));

    // Find two fragments with different payloads and overwrite one
    // with the other's bytes — the victim still decodes fine but its
    // fault's rows silently vanish from the reassembly.
    let frags = stage_artifacts(&store, TENSOR_FRAG_STAGE);
    let (donor, victim) = {
        let mut pair = None;
        'outer: for i in 0..frags.len() {
            for j in i + 1..frags.len() {
                if frags[i].1 != frags[j].1 {
                    pair = Some((i, j));
                    break 'outer;
                }
            }
        }
        pair.expect("two distinct fragments exist")
    };
    store.note_corrupt(TENSOR_FRAG_STAGE, frags[victim].0);
    let corrupt_baseline = frag_counters(&store).corrupt;
    assert!(
        store.put_artifact(TENSOR_FRAG_STAGE, frags[victim].0, &frags[donor].1),
        "poisoned fragment stored"
    );

    // Identical machine as its own baseline: the delta seed forces
    // the fragment path (no whole-table shortcut), so the poisoned
    // fragments are actually read.
    let (rebuilt, summary) = analyze(&base, Some(&base), &request, 1, Some(&store));
    assert_eq!(
        rebuilt, reference,
        "poisoned fragments must degrade to a byte-identical rebuild"
    );
    assert!(summary.expect("summary present").seeded);
    assert!(
        frag_counters(&store).corrupt > corrupt_baseline,
        "the composition mismatch must mark the absorbed fragments corrupt"
    );
}

/// The same poisoning one level up: the base machine's whole-table
/// `tensor` artifact is replaced by an output-edited machine's table —
/// validly encoded, same dimensions, wrong rows. An identical-baseline
/// re-analysis composes the table from the (sound) fragments, finds it
/// differs from the stored artifact byte for byte, drops both sides,
/// rebuilds monolithically and re-publishes the clean table, so a later
/// plain warm `check` is served the right bytes.
#[test]
fn poisoned_whole_table_is_repaired_by_the_composition_check() {
    let base = scaled("s27");
    let request = request(FaultModel::PermanentStuckAt);
    let (reference, _) = analyze(&base, None, &request, 1, None);

    let clean = Store::in_memory();
    let _ = analyze(&base, None, &request, 1, Some(&clean));
    let clean_tables = stage_artifacts(&clean, TENSOR_STAGE);
    assert_eq!(clean_tables.len(), 1, "one bound, one whole-table artifact");

    let donor = Store::in_memory();
    let edited = random_output_edit(&base, &mut Lcg(7));
    let _ = analyze(&edited, None, &request, 1, Some(&donor));
    let donor_tables = stage_artifacts(&donor, TENSOR_STAGE);
    assert_eq!(donor_tables.len(), 1, "one bound, one whole-table artifact");
    assert_ne!(
        donor_tables[0].1, clean_tables[0].1,
        "the edit must change the table bytes"
    );

    let scratch = ScratchDir::new("poison-table");
    let store = Store::open(&scratch.0).expect("store opens");
    let _ = analyze(&base, None, &request, 1, Some(&store));
    let key = clean_tables[0].0;
    store.note_corrupt(TENSOR_STAGE, key);
    assert!(
        store.put_artifact(TENSOR_STAGE, key, &donor_tables[0].1),
        "poisoned table stored"
    );
    let corrupt_baseline = stage_counters(&store, TENSOR_STAGE).corrupt;

    let (rebuilt, summary) = analyze(&base, Some(&base), &request, 1, Some(&store));
    assert_eq!(
        rebuilt, reference,
        "a poisoned table must degrade to a byte-identical rebuild"
    );
    assert!(summary.expect("summary present").seeded);
    assert!(
        stage_counters(&store, TENSOR_STAGE).corrupt > corrupt_baseline,
        "the composition mismatch must mark the stored table corrupt"
    );
    assert_eq!(
        store.get_artifact(TENSOR_STAGE, key).as_deref(),
        Some(&clean_tables[0].1[..]),
        "the rebuild must replace the poisoned table with the clean one"
    );

    let (warm, _) = analyze(&base, None, &request, 1, Some(&store));
    assert_eq!(warm, reference, "a plain warm check after the repair");
}
