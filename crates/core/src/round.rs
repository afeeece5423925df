//! Randomized rounding of the LP relaxation (paper §4).
//!
//! Samples integral parity masks from the fractional `β` — each bit
//! independently 1 with its fractional probability (Raghavan–Thompson)
//! — and keeps the first sample set that satisfies the exact integer
//! program (Statement 4, checked on the **full** detectability table,
//! even when the LP was built on a lazy row subset).

use crate::ip::ParityCover;
use ced_lp::rounding::round_to_mask;
use ced_sim::packed::SparseTables;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rounding configuration (the paper's `ITER` plus a seed).
#[derive(Debug, Clone)]
pub struct RoundingOptions {
    /// Maximum rounding attempts per feasibility query (`ITER`; the
    /// paper uses 10³).
    pub iterations: usize,
    /// RNG seed; runs are deterministic in it.
    pub seed: u64,
}

impl Default for RoundingOptions {
    fn default() -> RoundingOptions {
        RoundingOptions {
            iterations: 1000,
            seed: 0,
        }
    }
}

/// Result of a successful rounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rounded {
    /// The verified cover (deduplicated; may hold fewer than `q` masks).
    pub cover: ParityCover,
    /// Attempts consumed (1-based).
    pub attempts: usize,
}

/// Tracks the best failure for lazy-row refinement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundingFailure {
    /// Uncovered row indices of the attempt that came closest.
    pub best_uncovered: Vec<usize>,
}

/// Draws `q` masks from the fractional blocks and verifies them
/// against the packed tables of the detectability table.
///
/// With one block (symmetric LP), all `q` masks are sampled i.i.d. from
/// it; with `q` blocks (full Statement 5), one mask per block. The
/// per-attempt success check runs on the packed case kernel; the final
/// failure enumeration runs on the packed full table.
///
/// # Panics
///
/// Panics if `betas` is empty or any block's length differs from the
/// table's bit count.
pub fn round_cover(
    tables: &SparseTables,
    q: usize,
    betas: &[Vec<f64>],
    options: &RoundingOptions,
) -> Result<Rounded, RoundingFailure> {
    assert!(!betas.is_empty(), "no fractional blocks");
    for b in betas {
        assert_eq!(b.len(), tables.full().num_bits(), "block arity mismatch");
    }
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut last_masks: Vec<u64> = Vec::new();

    // Probability scaling schedule (Raghavan–Thompson is often applied
    // to a scaled fractional point): cycle a few amplification factors
    // so that sparse LP optima still produce occasionally-richer masks.
    const SCALES: [f64; 4] = [1.0, 1.35, 1.7, 2.2];
    let mut scaled: Vec<Vec<Vec<f64>>> = Vec::with_capacity(SCALES.len());
    for &alpha in &SCALES {
        scaled.push(
            betas
                .iter()
                .map(|b| b.iter().map(|&x| (alpha * x).clamp(0.0, 1.0)).collect())
                .collect(),
        );
    }

    for attempt in 1..=options.iterations {
        let betas = &scaled[(attempt - 1) % SCALES.len()];
        let masks: Vec<u64> = if betas.len() == 1 {
            (0..q).map(|_| round_to_mask(&betas[0], &mut rng)).collect()
        } else {
            betas.iter().map(|b| round_to_mask(b, &mut rng)).collect()
        };
        let cover = ParityCover::new(masks);
        // Early-exit check keeps failed attempts cheap; the full
        // uncovered list is only materialized once, on final failure.
        if tables.all_covered(&cover.masks) {
            return Ok(Rounded {
                cover,
                attempts: attempt,
            });
        }
        last_masks = cover.masks;
    }
    Err(RoundingFailure {
        // Row generation feeds these into the LP, so they must come
        // from the full table, never the kernel.
        best_uncovered: tables.full().uncovered_rows(&last_masks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_sim::detect::{DetectabilityTable, EcRow};

    fn tables(rows: Vec<Vec<u64>>) -> SparseTables {
        let p = rows[0].len();
        SparseTables::build(&DetectabilityTable::from_rows(
            4,
            p,
            rows.into_iter().map(|steps| EcRow { steps }).collect(),
        ))
    }

    #[test]
    fn integral_beta_rounds_deterministically() {
        let t = tables(vec![vec![0b0001], vec![0b0010]]);
        let beta = vec![vec![1.0, 1.0, 0.0, 0.0]];
        let r = round_cover(&t, 1, &beta, &RoundingOptions::default()).unwrap();
        // Mask 0b0011 covers row 0 (bit0 odd) and row 1 (bit1 odd).
        assert_eq!(r.cover.masks, vec![0b0011]);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn fractional_beta_succeeds_with_retries() {
        let t = tables(vec![vec![0b0001], vec![0b0010], vec![0b0100]]);
        let beta = vec![vec![0.6, 0.6, 0.6, 0.0]];
        let r = round_cover(
            &t,
            3,
            &beta,
            &RoundingOptions {
                iterations: 500,
                seed: 3,
            },
        )
        .expect("should find a cover within 500 tries");
        assert!(t.all_covered(&r.cover.masks));
    }

    #[test]
    fn impossible_rounding_reports_best_failure() {
        // Row detectable only by bit 3, but β gives it probability 0.
        let t = tables(vec![vec![0b1000], vec![0b0001]]);
        let beta = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let err = round_cover(
            &t,
            2,
            &beta,
            &RoundingOptions {
                iterations: 50,
                seed: 0,
            },
        )
        .unwrap_err();
        assert_eq!(err.best_uncovered, vec![0]);
    }

    #[test]
    fn per_block_sampling_for_full_form() {
        let t = tables(vec![vec![0b0001], vec![0b0010]]);
        let betas = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]];
        let r = round_cover(&t, 2, &betas, &RoundingOptions::default()).unwrap();
        assert_eq!(r.cover.masks, vec![0b0001, 0b0010]);
    }

    #[test]
    fn duplicate_masks_deduplicated_in_cover() {
        let t = tables(vec![vec![0b0001]]);
        let beta = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let r = round_cover(&t, 3, &beta, &RoundingOptions::default()).unwrap();
        assert_eq!(r.cover.len(), 1, "identical samples must merge");
    }
}
