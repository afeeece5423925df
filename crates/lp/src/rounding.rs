//! Randomized rounding (Raghavan–Thompson).
//!
//! Turns a fractional LP point into a random integral point: each 0/1
//! variable independently becomes 1 with probability equal to its
//! fractional value. The paper rounds the Statement-5 relaxation a fixed
//! number of times (`ITER`) and keeps the first integral point that
//! satisfies the original integer program.
//!
//! # Examples
//!
//! ```
//! use ced_lp::rounding::round_binary;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let bits = round_binary(&[0.0, 1.0, 0.5], &mut rng);
//! assert!(!bits[0]);
//! assert!(bits[1]);
//! ```

use rand::Rng;

/// Rounds a fractional 0–1 vector to booleans: entry `x` becomes `true`
/// with probability `clamp(x, 0, 1)`.
pub fn round_binary<R: Rng + ?Sized>(fractional: &[f64], rng: &mut R) -> Vec<bool> {
    fractional
        .iter()
        .map(|&x| {
            let p = x.clamp(0.0, 1.0);
            // Avoid sampling for the (common) integral entries.
            if p <= 0.0 {
                false
            } else if p >= 1.0 {
                true
            } else {
                rng.gen_bool(p)
            }
        })
        .collect()
}

/// Rounds a fractional 0–1 vector into a bitmask (bit `i` = entry `i`).
///
/// # Panics
///
/// Panics if `fractional.len() > 64`.
pub fn round_to_mask<R: Rng + ?Sized>(fractional: &[f64], rng: &mut R) -> u64 {
    assert!(
        fractional.len() <= 64,
        "mask rounding limited to 64 entries"
    );
    round_binary(fractional, rng)
        .into_iter()
        .enumerate()
        .fold(0u64, |m, (i, b)| if b { m | (1 << i) } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn integral_entries_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let bits = round_binary(&[0.0, 1.0, 1.0, 0.0], &mut rng);
            assert_eq!(bits, vec![false, true, true, false]);
        }
    }

    #[test]
    fn out_of_range_values_clamped() {
        let mut rng = StdRng::seed_from_u64(0);
        let bits = round_binary(&[-0.5, 1.5], &mut rng);
        assert_eq!(bits, vec![false, true]);
    }

    #[test]
    fn half_probability_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut ones = 0usize;
        let n = 10_000;
        for _ in 0..n {
            if round_binary(&[0.5], &mut rng)[0] {
                ones += 1;
            }
        }
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "biased rounding: {frac}");
    }

    #[test]
    fn mask_rounding() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = round_to_mask(&[1.0, 0.0, 1.0], &mut rng);
        assert_eq!(m, 0b101);
    }
}
