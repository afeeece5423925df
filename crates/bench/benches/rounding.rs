//! Criterion bench of randomized rounding: cost of one rounding attempt
//! (sampling + exact Statement-4 verification) and of full
//! `round_cover` calls at different table sizes.

use ced_core::ip::ParityCover;
use ced_core::round::{round_cover, RoundingOptions};
use ced_lp::rounding::round_to_mask;
use ced_sim::detect::{DetectabilityTable, EcRow};
use ced_sim::packed::SparseTables;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn synth_table(num_bits: usize, rows: usize) -> DetectabilityTable {
    let mut state = 0x1357_9BDF_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 20
    };
    let mask = (1u64 << num_bits) - 1;
    let ec: Vec<EcRow> = (0..rows)
        .map(|_| EcRow {
            steps: vec![(next() & mask).max(1), next() & mask & next()],
        })
        .collect();
    DetectabilityTable::from_rows(num_bits, 2, ec)
}

fn bench_rounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounding");

    group.bench_function("sample_mask_16bits", |b| {
        let beta = vec![0.3; 16];
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(round_to_mask(&beta, &mut rng)))
    });

    for &m in &[100usize, 1000, 10_000] {
        let table = synth_table(16, m);
        let masks: Vec<u64> = ParityCover::singletons(16).masks;
        group.bench_with_input(BenchmarkId::new("verify_statement4", m), &m, |b, _| {
            b.iter(|| black_box(table.all_covered(&masks)))
        });
    }

    let tables = SparseTables::build(&synth_table(16, 1000));
    let beta = vec![vec![0.4; 16]];
    group.bench_function("round_cover_m1000", |b| {
        b.iter(|| {
            let r = round_cover(
                &tables,
                6,
                &beta,
                &RoundingOptions {
                    iterations: 50,
                    seed: 7,
                },
            );
            black_box(r.is_ok())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rounding);
criterion_main!(benches);
