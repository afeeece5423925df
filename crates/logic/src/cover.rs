//! Single-output cube covers (sum-of-products) and the unate recursive
//! paradigm: tautology checking, cover/cube containment, complementation
//! and the sharp (difference) operation.
//!
//! These are the classical algorithms underlying Espresso
//! (Brayton et al., *Logic Minimization Algorithms for VLSI Synthesis*).
//!
//! # Examples
//!
//! ```
//! use ced_logic::cover::Cover;
//!
//! // f = a'b + ab' + ab  ==  a + b
//! let f = Cover::parse(2, &["01", "10", "11"])?;
//! assert!(!f.is_tautology());
//! let g = f.complement(); // a'b'
//! assert_eq!(g.len(), 1);
//! assert!(g.covers_minterm(0b00));
//! assert!(!g.covers_minterm(0b01));
//! # Ok::<(), ced_logic::cube::ParseCubeError>(())
//! ```

use crate::cube::{Cube, Literal, ParseCubeError};
use std::fmt;

/// A disjunction of [`Cube`]s over a fixed variable width.
///
/// The empty cover is the constant-0 function; a cover containing the full
/// cube is the constant-1 function.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cover {
    width: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// Creates the empty (constant-0) cover of the given width.
    pub fn empty(width: usize) -> Cover {
        Cover {
            width,
            cubes: Vec::new(),
        }
    }

    /// Creates the constant-1 cover (single full cube).
    pub fn tautology(width: usize) -> Cover {
        Cover {
            width,
            cubes: vec![Cube::full(width)],
        }
    }

    /// Creates a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube's width differs from `width`.
    pub fn from_cubes(width: usize, cubes: Vec<Cube>) -> Cover {
        for c in &cubes {
            assert_eq!(c.width(), width, "cube width mismatch in cover");
        }
        Cover { width, cubes }
    }

    /// Parses a cover from PLA-style cube strings.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCubeError`] if any string contains an invalid
    /// character or has the wrong length.
    pub fn parse(width: usize, cubes: &[&str]) -> Result<Cover, ParseCubeError> {
        let mut parsed = Vec::with_capacity(cubes.len());
        for s in cubes {
            if s.len() != width {
                return Err(ParseCubeError { position: None });
            }
            parsed.push(s.parse::<Cube>()?);
        }
        Ok(Cover {
            width,
            cubes: parsed,
        })
    }

    /// Number of variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True iff the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes of this cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube width differs from the cover width.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.width(), self.width, "cube width mismatch in cover");
        self.cubes.push(cube);
    }

    /// Total number of literals across all cubes (a common cost metric).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Evaluates the cover on a single minterm (bit `i` = variable `i`).
    pub fn covers_minterm(&self, assignment: u64) -> bool {
        self.cubes.iter().any(|c| c.covers_minterm(assignment))
    }

    /// Removes cubes contained in another single cube of the cover
    /// (single-cube containment).
    pub fn remove_contained(&mut self) {
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if self.cubes[i].contains(&self.cubes[j])
                    && (self.cubes[i] != self.cubes[j] || i < j)
                {
                    keep[j] = false;
                }
            }
        }
        let mut idx = 0;
        self.cubes.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
    }

    /// The cofactor of the cover with respect to a cube.
    pub fn cofactor(&self, wrt: &Cube) -> Cover {
        let cubes = self.cubes.iter().filter_map(|c| c.cofactor(wrt)).collect();
        Cover {
            width: self.width,
            cubes,
        }
    }

    /// The cofactor with respect to a single literal.
    pub fn cofactor_var(&self, var: usize, value: bool) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter_map(|c| c.cofactor_var(var, value))
            .collect();
        Cover {
            width: self.width,
            cubes,
        }
    }

    /// Selects the most binate variable: the variable that appears in both
    /// polarities in the largest number of cubes, breaking ties toward the
    /// most frequently bound variable. Returns `None` when no cube binds
    /// any variable.
    pub fn most_binate_variable(&self) -> Option<usize> {
        let w = self.width;
        let mut pos = vec![0usize; w];
        let mut neg = vec![0usize; w];
        for c in &self.cubes {
            for v in 0..w {
                match c.literal(v) {
                    Literal::Positive => pos[v] += 1,
                    Literal::Negative => neg[v] += 1,
                    Literal::DontCare => {}
                }
            }
        }
        (0..w)
            .filter(|&v| pos[v] + neg[v] > 0)
            .max_by_key(|&v| (pos[v].min(neg[v]), pos[v] + neg[v]))
    }

    /// True iff every variable appears in at most one polarity (unate).
    pub fn is_unate(&self) -> bool {
        for v in 0..self.width {
            let mut seen_pos = false;
            let mut seen_neg = false;
            for c in &self.cubes {
                match c.literal(v) {
                    Literal::Positive => seen_pos = true,
                    Literal::Negative => seen_neg = true,
                    Literal::DontCare => {}
                }
            }
            if seen_pos && seen_neg {
                return false;
            }
        }
        true
    }

    /// Tautology check by the unate recursive paradigm: true iff the cover
    /// evaluates to 1 on every minterm.
    ///
    /// # Examples
    ///
    /// ```
    /// use ced_logic::cover::Cover;
    /// let f = Cover::parse(2, &["1-", "0-"]).unwrap();
    /// assert!(f.is_tautology());
    /// ```
    pub fn is_tautology(&self) -> bool {
        // Fast exits.
        if self.cubes.iter().any(Cube::is_full) {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // Unate reduction: a unate cover is a tautology iff it contains the
        // full cube (already checked above).
        if self.is_unate() {
            return false;
        }
        let v = self
            .most_binate_variable()
            .expect("non-unate cover binds at least one variable");
        self.cofactor_var(v, false).is_tautology() && self.cofactor_var(v, true).is_tautology()
    }

    /// True iff this cover contains (covers every minterm of) `cube`.
    ///
    /// Implemented as a tautology check of the cofactor (unate recursion).
    pub fn contains_cube(&self, cube: &Cube) -> bool {
        self.cofactor(cube).is_tautology()
    }

    /// True iff this cover contains every minterm of `other`.
    pub fn contains_cover(&self, other: &Cover) -> bool {
        other.cubes.iter().all(|c| self.contains_cube(c))
    }

    /// True iff the two covers denote the same Boolean function.
    pub fn equivalent(&self, other: &Cover) -> bool {
        self.contains_cover(other) && other.contains_cover(self)
    }

    /// Complements the cover by unate recursion.
    ///
    /// The result covers exactly the minterms not covered by `self`.
    pub fn complement(&self) -> Cover {
        let mut out = self.complement_rec();
        out.remove_contained();
        out
    }

    fn complement_rec(&self) -> Cover {
        if self.cubes.is_empty() {
            return Cover::tautology(self.width);
        }
        if self.cubes.iter().any(Cube::is_full) {
            return Cover::empty(self.width);
        }
        if self.cubes.len() == 1 {
            return Self::complement_cube(&self.cubes[0]);
        }
        let v = self
            .most_binate_variable()
            .expect("non-trivial cover binds at least one variable");
        let c0 = self.cofactor_var(v, false).complement_rec();
        let c1 = self.cofactor_var(v, true).complement_rec();
        let mut cubes = Vec::with_capacity(c0.len() + c1.len());
        // Merge: cubes identical except for variable v combine to don't-care.
        let c1_cubes = c1.cubes;
        let mut used1 = vec![false; c1_cubes.len()];
        for a in c0.cubes {
            let mut merged = false;
            for (j, b) in c1_cubes.iter().enumerate() {
                if !used1[j] && a == *b {
                    used1[j] = true;
                    cubes.push(a.clone());
                    merged = true;
                    break;
                }
            }
            if !merged {
                cubes.push(a.with(v, Literal::Negative));
            }
        }
        for (j, b) in c1_cubes.into_iter().enumerate() {
            if !used1[j] {
                cubes.push(b.with(v, Literal::Positive));
            }
        }
        Cover {
            width: self.width,
            cubes,
        }
    }

    /// De Morgan complement of a single cube: one cube per literal.
    fn complement_cube(cube: &Cube) -> Cover {
        let width = cube.width();
        let mut cubes = Vec::new();
        for v in 0..width {
            match cube.literal(v) {
                Literal::Positive => cubes.push(Cube::full(width).with(v, Literal::Negative)),
                Literal::Negative => cubes.push(Cube::full(width).with(v, Literal::Positive)),
                Literal::DontCare => {}
            }
        }
        Cover { width, cubes }
    }

    /// The sharp operation `self # other`: minterms of `self` not in
    /// `other`, as a cover.
    pub fn sharp(&self, other: &Cover) -> Cover {
        let not_other = other.complement();
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &not_other.cubes {
                if let Some(c) = a.intersection(b) {
                    cubes.push(c);
                }
            }
        }
        let mut out = Cover {
            width: self.width,
            cubes,
        };
        out.remove_contained();
        out
    }

    /// Union (disjunction) of two covers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(self.width, other.width, "cover width mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            width: self.width,
            cubes,
        }
    }

    /// Intersection (conjunction) of two covers, by pairwise cube
    /// intersection.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn intersect(&self, other: &Cover) -> Cover {
        assert_eq!(self.width, other.width, "cover width mismatch");
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersection(b) {
                    cubes.push(c);
                }
            }
        }
        let mut out = Cover {
            width: self.width,
            cubes,
        };
        out.remove_contained();
        out
    }

    /// The smallest single cube containing the whole cover, or `None` for
    /// the empty cover.
    pub fn supercube(&self) -> Option<Cube> {
        let mut it = self.cubes.iter();
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, c| acc.supercube(c)))
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "(0)");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cover({} vars, [{}])", self.width, self)
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the cubes have differing widths. An empty iterator yields
    /// a zero-width empty cover.
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Cover {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let width = cubes.first().map_or(0, Cube::width);
        Cover::from_cubes(width, cubes)
    }
}

impl Extend<Cube> for Cover {
    fn extend<T: IntoIterator<Item = Cube>>(&mut self, iter: T) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(width: usize, cubes: &[&str]) -> Cover {
        Cover::parse(width, cubes).unwrap()
    }

    /// Brute-force truth vector of a cover over ≤ 16 vars.
    fn truth(c: &Cover) -> Vec<bool> {
        (0..(1u64 << c.width()))
            .map(|m| c.covers_minterm(m))
            .collect()
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let f = Cover::empty(3);
        assert!(!f.is_tautology());
        assert!(!f.covers_minterm(0));
        assert!(f.is_empty());
    }

    #[test]
    fn tautology_detection() {
        assert!(cover(2, &["1-", "0-"]).is_tautology());
        assert!(cover(2, &["11", "10", "01", "00"]).is_tautology());
        assert!(!cover(2, &["11", "10", "01"]).is_tautology());
        assert!(cover(3, &["1--", "-1-", "00-"]).is_tautology());
        assert!(Cover::tautology(4).is_tautology());
    }

    #[test]
    fn tautology_zero_width() {
        // Width-0 function: a single (empty) cube is constant 1.
        assert!(Cover::tautology(0).is_tautology());
        assert!(!Cover::empty(0).is_tautology());
    }

    #[test]
    fn unate_detection() {
        assert!(cover(3, &["1--", "-1-"]).is_unate());
        assert!(!cover(3, &["1--", "0--"]).is_unate());
    }

    #[test]
    fn contains_cube_by_multiple_cubes() {
        // f = a + b contains the cube "--" restricted to a+b's minterms? No:
        // f does not contain "--" (misses 00), but contains "1-" and "-1".
        let f = cover(2, &["1-", "-1"]);
        assert!(f.contains_cube(&"1-".parse().unwrap()));
        assert!(f.contains_cube(&"-1".parse().unwrap()));
        assert!(!f.contains_cube(&"--".parse().unwrap()));
        // "10" + "01" + "11" jointly cover cube "1-"? yes via 10 and 11.
        let g = cover(2, &["10", "01", "11"]);
        assert!(g.contains_cube(&"1-".parse().unwrap()));
    }

    #[test]
    fn complement_matches_brute_force() {
        let cases = [
            cover(3, &["1--", "-1-"]),
            cover(3, &["101", "010"]),
            cover(4, &["1--0", "-11-", "0-0-"]),
            Cover::empty(3),
            Cover::tautology(3),
            cover(1, &["1"]),
        ];
        for f in &cases {
            let g = f.complement();
            let tf = truth(f);
            let tg = truth(&g);
            for (m, (a, b)) in tf.iter().zip(&tg).enumerate() {
                assert_ne!(a, b, "complement wrong at minterm {m} of {f}");
            }
        }
    }

    #[test]
    fn sharp_removes_minterms() {
        let f = cover(3, &["1--"]);
        let g = cover(3, &["11-"]);
        let d = f.sharp(&g);
        let td = truth(&d);
        for m in 0..8u64 {
            let expect = f.covers_minterm(m) && !g.covers_minterm(m);
            assert_eq!(td[m as usize], expect, "sharp wrong at {m:03b}");
        }
    }

    #[test]
    fn union_and_intersect() {
        let f = cover(2, &["1-"]);
        let g = cover(2, &["-1"]);
        let u = f.union(&g);
        let i = f.intersect(&g);
        assert!(u.covers_minterm(0b01) && u.covers_minterm(0b10));
        assert!(i.covers_minterm(0b11));
        assert!(!i.covers_minterm(0b01));
        assert!(!i.covers_minterm(0b10));
    }

    #[test]
    fn equivalence() {
        // a'b + ab' + ab == a + b
        let f = cover(2, &["01", "10", "11"]);
        let g = cover(2, &["1-", "-1"]);
        assert!(f.equivalent(&g));
        let h = cover(2, &["1-"]);
        assert!(!f.equivalent(&h));
    }

    #[test]
    fn remove_contained_keeps_maximal() {
        let mut f = cover(3, &["1--", "10-", "101", "01-"]);
        f.remove_contained();
        assert_eq!(f.len(), 2);
        assert!(f.cubes().contains(&"1--".parse().unwrap()));
        assert!(f.cubes().contains(&"01-".parse().unwrap()));
    }

    #[test]
    fn remove_contained_dedupes_equal_cubes() {
        let mut f = cover(2, &["1-", "1-", "1-"]);
        f.remove_contained();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn supercube_of_cover() {
        let f = cover(3, &["101", "100"]);
        assert_eq!(f.supercube().unwrap().to_string(), "10-");
        assert!(Cover::empty(3).supercube().is_none());
    }

    #[test]
    fn most_binate_prefers_two_polarity_vars() {
        let f = cover(3, &["1--", "0--", "-1-"]);
        assert_eq!(f.most_binate_variable(), Some(0));
    }
}
