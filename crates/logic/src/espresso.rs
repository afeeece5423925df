//! An Espresso-style heuristic two-level minimizer.
//!
//! Implements the classic EXPAND → IRREDUNDANT → REDUCE loop over an
//! (ON-set, DC-set) specification, iterating until the cover cost stops
//! improving. This is the workhorse behind the "SIS" substitute used to
//! cost the FSM next-state/output logic and the CED predictor.
//!
//! The implementation favours clarity over the last few percent of
//! quality: EXPAND raises literals greedily against the OFF-set,
//! IRREDUNDANT removes relatively redundant cubes greedily (largest
//! first), and REDUCE shrinks each cube to the supercube of the part of
//! the function only it covers.
//!
//! # Examples
//!
//! ```
//! use ced_logic::cover::Cover;
//! use ced_logic::espresso::{minimize, MinimizeOptions};
//!
//! // f = a'b'c' + a'b'c + ab'c' + ab'c  ==  b'
//! let on = Cover::parse(3, &["000", "100", "001", "101"])?;
//! let dc = Cover::empty(3);
//! let min = minimize(&on, &dc, &MinimizeOptions::default());
//! assert_eq!(min.len(), 1);
//! assert_eq!(min.cubes()[0].to_string(), "-0-");
//! # Ok::<(), ced_logic::cube::ParseCubeError>(())
//! ```

use crate::cover::Cover;
use crate::cube::{Cube, Literal};
use ced_runtime::{Budget, Interrupted};

/// Tuning knobs for [`minimize`].
#[derive(Debug, Clone)]
pub struct MinimizeOptions {
    /// Maximum number of EXPAND/IRREDUNDANT/REDUCE sweeps.
    pub max_iterations: usize,
    /// Run a final EXPAND + IRREDUNDANT after the loop exits.
    pub final_expand: bool,
}

impl Default for MinimizeOptions {
    fn default() -> MinimizeOptions {
        MinimizeOptions {
            max_iterations: 8,
            final_expand: true,
        }
    }
}

/// Cost of a cover: primary = cube count, secondary = literal count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoverCost {
    /// Number of product terms.
    pub cubes: usize,
    /// Number of literals summed over all terms.
    pub literals: usize,
}

impl CoverCost {
    /// Measures a cover.
    pub fn of(cover: &Cover) -> CoverCost {
        CoverCost {
            cubes: cover.len(),
            literals: cover.literal_count(),
        }
    }
}

/// Minimizes `on` against the don't-care set `dc`, returning a cover `F`
/// with `on ⊆ F ⊆ on ∪ dc` and (heuristically) few cubes/literals.
///
/// Minterms appearing in both `on` and `dc` are treated as required
/// (the ON-set takes precedence), so the contract `on ⊆ F` holds even
/// for overlapping specifications.
///
/// The result is verified cheap invariants aside — callers that need a
/// guarantee should check with [`Cover::contains_cover`], as the unit
/// tests here do.
///
/// # Panics
///
/// Panics if `on` and `dc` have different widths.
pub fn minimize(on: &Cover, dc: &Cover, options: &MinimizeOptions) -> Cover {
    match minimize_budgeted(on, dc, options, &Budget::unlimited()) {
        Ok(f) => f,
        Err(_) => unreachable!("an unlimited budget cannot interrupt"),
    }
}

/// [`minimize`] under a [`Budget`]: one work unit is charged per cube
/// per sweep, and the budget is checked before every
/// EXPAND/IRREDUNDANT/REDUCE sweep, so a cancelled or over-deadline
/// minimization stops between sweeps with a typed error instead of
/// grinding the full iteration count.
///
/// # Errors
///
/// The budget's interruption; minimization is restartable from scratch
/// (the sweeps carry no external state worth checkpointing).
///
/// # Panics
///
/// See [`minimize`].
pub fn minimize_budgeted(
    on: &Cover,
    dc: &Cover,
    options: &MinimizeOptions,
    budget: &Budget,
) -> Result<Cover, Interrupted> {
    assert_eq!(on.width(), dc.width(), "ON/DC width mismatch");
    if on.is_empty() {
        return Ok(Cover::empty(on.width()));
    }
    // ON priority: a minterm required by ON must survive even if the
    // caller also listed it as DC (IRREDUNDANT would otherwise drop
    // cubes "covered" by the DC set alone).
    let dc = &dc.sharp(on);
    let care_off = on.union(dc).complement();
    if care_off.is_empty() {
        // The function is 1 everywhere it is cared about.
        return Ok(Cover::tautology(on.width()));
    }

    let mut f = on.clone();
    f.remove_contained();
    let mut best_cost = CoverCost::of(&f);

    for _ in 0..options.max_iterations {
        budget.tick(f.len() as u64 + 1, "espresso:sweep")?;
        f = expand(&f, &care_off);
        f = irredundant(&f, on, dc);
        let cost_after_first = CoverCost::of(&f);
        f = reduce(&f, dc);
        f = expand(&f, &care_off);
        f = irredundant(&f, on, dc);
        let cost = CoverCost::of(&f).min(cost_after_first);
        if cost >= best_cost {
            break;
        }
        best_cost = cost;
    }
    if options.final_expand {
        budget.tick(f.len() as u64 + 1, "espresso:final-expand")?;
        f = expand(&f, &care_off);
        f = irredundant(&f, on, dc);
    }
    Ok(f)
}

/// EXPAND: enlarge each cube as much as possible without hitting the
/// OFF-set, then drop cubes contained in the expanded ones.
///
/// Literals are raised in order of increasing OFF-set conflict count, a
/// light-weight version of Espresso's column ordering heuristic.
pub fn expand(f: &Cover, off: &Cover) -> Cover {
    let width = f.width();
    // Weight of a variable: how many OFF cubes bind it. Raising a literal
    // on a rarely-bound variable is less likely to collide with OFF.
    let mut weight = vec![0usize; width];
    for c in off.cubes() {
        for v in 0..width {
            if c.literal(v) != Literal::DontCare {
                weight[v] += 1;
            }
        }
    }

    let mut expanded: Vec<Cube> = Vec::with_capacity(f.len());
    for cube in f.cubes() {
        let mut cur = cube.clone();
        let mut vars: Vec<usize> = cur.support();
        vars.sort_by_key(|&v| weight[v]);
        for v in vars {
            let raised = cur.with(v, Literal::DontCare);
            if off.cubes().iter().all(|o| raised.disjoint(o)) {
                cur = raised;
            }
        }
        expanded.push(cur);
    }
    let mut out = Cover::from_cubes(width, expanded);
    out.remove_contained();
    out
}

/// IRREDUNDANT: remove cubes covered by the remaining cubes plus the
/// don't-care set. Cubes are visited largest-first so that big cubes are
/// preferentially kept.
pub fn irredundant(f: &Cover, on: &Cover, dc: &Cover) -> Cover {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Visit smaller cubes first for removal (they are the most likely to
    // be redundant); equivalently keep larger cubes.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].literal_count());
    order.reverse(); // most literals (smallest cubes) first

    let mut alive = vec![true; cubes.len()];
    for &i in &order {
        // Build rest ∪ DC and check containment of cube i.
        let mut rest = Cover::empty(width);
        for (j, c) in cubes.iter().enumerate() {
            if j != i && alive[j] {
                rest.push(c.clone());
            }
        }
        let rest = rest.union(dc);
        if rest.contains_cube(&cubes[i]) {
            alive[i] = false;
        }
    }
    let mut idx = 0;
    cubes.retain(|_| {
        let k = alive[idx];
        idx += 1;
        k
    });
    let out = Cover::from_cubes(width, cubes);
    debug_assert!(out.union(dc).contains_cover(on), "irredundant broke cover");
    out
}

/// REDUCE: shrink each cube to the smallest cube still covering the part
/// of the ON-set that no other cube (nor the DC-set) covers, opening room
/// for the next EXPAND to move in a different direction.
pub fn reduce(f: &Cover, dc: &Cover) -> Cover {
    let width = f.width();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Largest cubes first, as in Espresso.
    cubes.sort_by_key(|c| c.literal_count());
    for i in 0..cubes.len() {
        let mut rest = Cover::empty(width);
        for (j, c) in cubes.iter().enumerate() {
            if j != i {
                rest.push(c.clone());
            }
        }
        let rest = rest.union(dc);
        // Part of cube i not covered elsewhere.
        let only_mine = Cover::from_cubes(width, vec![cubes[i].clone()]).sharp(&rest);
        if let Some(sc) = only_mine.supercube() {
            cubes[i] = sc;
        }
        // If only_mine is empty the cube is redundant; leave it for
        // IRREDUNDANT to remove (shrinking to nothing is not expressible
        // as a cube).
    }
    Cover::from_cubes(width, cubes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(width: usize, cubes: &[&str]) -> Cover {
        Cover::parse(width, cubes).unwrap()
    }

    /// Checks ON ⊆ F ⊆ ON ∪ DC.
    fn check_valid(f: &Cover, on: &Cover, dc: &Cover) {
        assert!(
            f.union(dc).contains_cover(on),
            "minimized cover misses ON minterms"
        );
        assert!(
            on.union(dc).contains_cover(f),
            "minimized cover spills outside ON ∪ DC"
        );
    }

    #[test]
    fn merges_adjacent_minterms() {
        let on = cover(3, &["000", "100", "001", "101"]);
        let dc = Cover::empty(3);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        check_valid(&min, &on, &dc);
        assert_eq!(min.len(), 1);
        assert_eq!(min.cubes()[0].to_string(), "-0-");
    }

    #[test]
    fn uses_dont_cares() {
        // ON = {00}, DC = {01, 10, 11} → constant 1 is a legal cover.
        let on = cover(2, &["00"]);
        let dc = cover(2, &["01", "10", "11"]);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        check_valid(&min, &on, &dc);
        assert_eq!(min.len(), 1);
        assert!(min.cubes()[0].is_full());
    }

    #[test]
    fn minimizes_xor_to_two_cubes() {
        // XOR is already minimal at 2 cubes.
        let on = cover(2, &["01", "10"]);
        let dc = Cover::empty(2);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        check_valid(&min, &on, &dc);
        assert_eq!(min.len(), 2);
        assert_eq!(min.literal_count(), 4);
    }

    #[test]
    fn classic_espresso_example() {
        // From the Espresso book: f = a'b' + ab minimizes no further, but
        // a redundant middle term must go.
        let on = cover(2, &["00", "11", "0-"]);
        let dc = Cover::empty(2);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        check_valid(&min, &on, &dc);
        assert!(min.len() <= 2);
    }

    #[test]
    fn empty_on_set() {
        let on = Cover::empty(3);
        let dc = cover(3, &["1--"]);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        assert!(min.is_empty());
    }

    #[test]
    fn full_care_set() {
        let on = cover(1, &["0", "1"]);
        let dc = Cover::empty(1);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        assert_eq!(min.len(), 1);
        assert!(min.cubes()[0].is_full());
    }

    #[test]
    fn reduce_then_expand_escapes_local_minimum() {
        // A function where naive expansion order matters:
        // f = a'b' + b'c + ab  (3 cubes) can be written as a'b' + ab + b'c;
        // the loop should not increase cost.
        let on = cover(3, &["00-", "-01", "11-"]);
        let dc = Cover::empty(3);
        let min = minimize(&on, &dc, &MinimizeOptions::default());
        check_valid(&min, &on, &dc);
        assert!(min.len() <= 3);
    }

    #[test]
    fn random_functions_stay_equivalent() {
        // Deterministic pseudo-random covers; verify exact equivalence when
        // DC is empty.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..30 {
            let width = 4 + (next() % 3) as usize; // 4..6
            let ncubes = 1 + (next() % 8) as usize;
            let mut cubes = Vec::new();
            for _ in 0..ncubes {
                let mut c = Cube::full(width);
                for v in 0..width {
                    match next() % 3 {
                        0 => c.set(v, Literal::Negative),
                        1 => c.set(v, Literal::Positive),
                        _ => {}
                    }
                }
                cubes.push(c);
            }
            let on = Cover::from_cubes(width, cubes);
            let dc = Cover::empty(width);
            let min = minimize(&on, &dc, &MinimizeOptions::default());
            assert!(min.equivalent(&on), "lost equivalence for {on}");
            assert!(
                CoverCost::of(&min)
                    <= CoverCost::of(&{
                        let mut x = on.clone();
                        x.remove_contained();
                        x
                    })
                    || min.equivalent(&on)
            );
        }
    }

    #[test]
    fn expand_respects_off_set() {
        let on = cover(3, &["110"]);
        let off = cover(3, &["111"]);
        let e = expand(&on, &off);
        for c in e.cubes() {
            assert!(c.disjoint(&"111".parse().unwrap()));
        }
    }

    #[test]
    fn irredundant_removes_covered_cube() {
        let f = cover(2, &["1-", "-1", "11"]);
        let on = f.clone();
        let out = irredundant(&f, &on, &Cover::empty(2));
        assert_eq!(out.len(), 2);
    }
}
