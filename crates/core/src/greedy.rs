//! Greedy set-cover baseline for parity selection.
//!
//! The paper notes the problem "may be modelled as an NP-complete
//! minimum cover problem, for which several heuristics exist" but that
//! explicitly materializing all `2^n` parity candidates is infeasible.
//! This baseline sidesteps materialization by *local search*: each new
//! parity mask is grown by bit flips that maximize the number of
//! still-uncovered erroneous cases it detects. It serves as the
//! comparison point for the LP + randomized-rounding ablation (A1 in
//! DESIGN.md).

use crate::ip::ParityCover;
use ced_sim::detect::DetectabilityTable;
use ced_sim::packed::PackedTable;
use ced_store::RowSet;

/// Options for the greedy baseline.
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Random restarts per mask (hill climbing restarts).
    pub restarts: usize,
    /// Seed for restart initialization.
    pub seed: u64,
}

impl Default for GreedyOptions {
    fn default() -> GreedyOptions {
        GreedyOptions {
            restarts: 8,
            seed: 0,
        }
    }
}

/// Builds a verified cover greedily: repeatedly add the locally best
/// parity mask until every erroneous case is covered.
///
/// Termination is guaranteed: if hill climbing stalls, the mask falls
/// back to a singleton on a detecting bit of the first uncovered row,
/// which always covers at least that row.
pub fn greedy_cover(table: &DetectabilityTable, options: &GreedyOptions) -> ParityCover {
    greedy_cover_with(table, &PackedTable::from_table(table), options)
}

/// [`greedy_cover`] on an already-packed view of `table` (built from
/// this exact table): the hill climber's scoring query counts covered
/// rows 64 at a time.
pub fn greedy_cover_with(
    table: &DetectabilityTable,
    packed: &PackedTable,
    options: &GreedyOptions,
) -> ParityCover {
    let n = table.num_bits();
    let mut masks: Vec<u64> = Vec::new();
    let mut uncovered = RowSet::full(table.len());
    let mut rng_state = options.seed ^ 0xD1B5_4A32_D192_ED03;

    while !uncovered.is_empty() {
        let best = best_mask(packed, &uncovered, n, options, &mut rng_state);
        let mask = if packed.covered_count(best, &uncovered) == 0 {
            // Fallback: singleton on the first detecting bit of the first
            // uncovered row's activation step.
            let first = uncovered.first_set().expect("nonempty uncovered set");
            let row = &table.rows()[first];
            match row.steps.iter().copied().find(|&d| d != 0) {
                Some(d) => 1u64 << d.trailing_zeros(),
                None => {
                    // The row shows no discrepancy at any step: no parity
                    // mask can ever cover it. Drop it so the loop
                    // terminates; full-table verification downstream
                    // (ip::verify_cover / the solver ladder) reports it.
                    uncovered.remove(first);
                    continue;
                }
            }
        } else {
            best
        };
        masks.push(mask);
        let newly: Vec<usize> = uncovered
            .iter()
            .filter(|&i| table.rows()[i].detected_by(mask))
            .collect();
        for i in newly {
            uncovered.remove(i);
        }
    }
    ParityCover::new(masks)
}

/// Hill-climbs masks by single-bit flips, over several restarts.
fn best_mask(
    packed: &PackedTable,
    uncovered: &RowSet,
    n: usize,
    options: &GreedyOptions,
    rng_state: &mut u64,
) -> u64 {
    let mut best = 0u64;
    let mut best_score = 0usize;
    for restart in 0..options.restarts.max(1) {
        // Start points: empty mask first, then random masks.
        let mut mask = if restart == 0 {
            0u64
        } else {
            *rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*rng_state >> (64 - n as u32)) & (u64::MAX >> (64 - n as u32))
        };
        let mut score = packed.covered_count(mask, uncovered);
        loop {
            let mut improved = false;
            for b in 0..n {
                let candidate = mask ^ (1u64 << b);
                let s = packed.covered_count(candidate, uncovered);
                if s > score {
                    mask = candidate;
                    score = s;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if score > best_score {
            best_score = score;
            best = mask;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_sim::detect::EcRow;

    fn table(num_bits: usize, rows: Vec<Vec<u64>>) -> DetectabilityTable {
        let p = rows.first().map_or(1, |r| r.len());
        DetectabilityTable::from_rows(
            num_bits,
            p,
            rows.into_iter().map(|steps| EcRow { steps }).collect(),
        )
    }

    #[test]
    fn covers_simple_table_with_one_mask() {
        let t = table(4, vec![vec![0b0001], vec![0b0011], vec![0b0101]]);
        let cover = greedy_cover(&t, &GreedyOptions::default());
        assert!(t.all_covered(&cover.masks));
        assert_eq!(cover.len(), 1);
    }

    #[test]
    fn handles_parity_conflicts() {
        let t = table(2, vec![vec![0b01], vec![0b10], vec![0b11]]);
        let cover = greedy_cover(&t, &GreedyOptions::default());
        assert!(t.all_covered(&cover.masks));
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn empty_table_needs_nothing() {
        let t = table(3, vec![]);
        let cover = greedy_cover(&t, &GreedyOptions::default());
        assert!(cover.is_empty());
    }

    #[test]
    fn multi_step_detection_used() {
        // Only step 2 distinguishes; greedy must still cover.
        let t = table(3, vec![vec![0b011, 0b001], vec![0b011, 0b010]]);
        let cover = greedy_cover(&t, &GreedyOptions::default());
        assert!(t.all_covered(&cover.masks));
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<u64>> = (0..12u64).map(|i| vec![(i % 7) + 1]).collect();
        let t = table(3, rows);
        let a = greedy_cover(&t, &GreedyOptions::default());
        let b = greedy_cover(&t, &GreedyOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn fallback_singleton_terminates() {
        // Adversarial: restarts = 0 → hill climbing from empty mask only.
        let t = table(4, vec![vec![0b1010], vec![0b0101]]);
        let cover = greedy_cover(
            &t,
            &GreedyOptions {
                restarts: 1,
                seed: 0,
            },
        );
        assert!(t.all_covered(&cover.masks));
    }
}
