//! The shared coverage-bitset substrate.
//!
//! Two views of "which erroneous cases does this object cover" used to
//! be duplicated across crates:
//!
//! * **Step-set families** — a detectability row is canonically the
//!   *set* of its nonzero step masks, and a row whose step-set is a
//!   superset of another row's is implied by it (any parity cover of
//!   the subset row covers the superset row too). `sim::detect` kept
//!   one copy of this pruning inside its enumeration collector and a
//!   second in `dominance_reduced`. [`CoverageMatrix`] is that family,
//!   with the subset-enumeration dominance test and the
//!   supersets-removal cleanup in one place.
//!
//! * **Row bitsets** — the cover search in `core::exact` kept coverage
//!   words (`Vec<u64>` over table rows) per candidate mask, and
//!   `core::greedy` kept an uncovered-row index list. [`RowSet`] is
//!   that bitset, with the subset/dominance drop shared via
//!   [`drop_dominated`].
//!
//! Everything here is deterministic: iteration and serialization
//! orders are sorted, never hash order.

use ced_runtime::{ByteReader, ByteWriter, CheckpointError};
use std::collections::HashSet;

/// A family of canonical step-sets (each set sorted, distinct,
/// nonzero), optionally maintained in dominance-reduced (minimal
/// step-set) form.
///
/// Dominance: a set is *dominated* when some kept set is a subset of it
/// (including equality) — everything containing the kept set is already
/// implied for every covering question. Sets are tiny (`|s| ≤ p`, the
/// latency bound), so the test enumerates all `2^|s| − 1` subsets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMatrix {
    sets: HashSet<Vec<u64>>,
}

impl CoverageMatrix {
    /// An empty family.
    pub fn new() -> CoverageMatrix {
        CoverageMatrix::default()
    }

    /// Builds a family from pre-canonicalized sets (no dominance
    /// filtering; used to restore snapshots).
    pub fn from_sets(sets: impl IntoIterator<Item = Vec<u64>>) -> CoverageMatrix {
        CoverageMatrix {
            sets: sets.into_iter().collect(),
        }
    }

    /// The canonical step-set of a (partial) row: nonzero entries,
    /// sorted, deduplicated.
    pub fn canonical(steps: &[u64]) -> Vec<u64> {
        let mut s: Vec<u64> = steps.iter().copied().filter(|&d| d != 0).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Number of kept sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True iff no sets are kept.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// True iff exactly this canonical set is kept.
    pub fn contains(&self, set: &[u64]) -> bool {
        self.sets.contains(set)
    }

    /// True iff some kept set is a subset of `set` (including
    /// equality). Empty sets are never dominated.
    pub fn dominated(&self, set: &[u64]) -> bool {
        if set.is_empty() {
            return false;
        }
        let k = set.len();
        // All non-empty subsets of a ≤p-element set (p is small).
        for pick in 1..(1usize << k) {
            let subset: Vec<u64> = (0..k)
                .filter(|i| (pick >> i) & 1 == 1)
                .map(|i| set[i])
                .collect();
            if self.sets.contains(&subset) {
                return true;
            }
        }
        false
    }

    /// Inserts a pre-canonicalized set without any dominance check
    /// (raw-row mode and snapshot restore).
    pub fn insert_raw(&mut self, set: Vec<u64>) {
        self.sets.insert(set);
    }

    /// Inserts `set` unless it is empty or dominated; returns whether
    /// it was kept. The family may transiently hold supersets of later
    /// insertions — run [`Self::remove_supersets`] to re-minimalize.
    pub fn insert_minimal(&mut self, set: Vec<u64>) -> bool {
        if set.is_empty() || self.dominated(&set) {
            return false;
        }
        self.sets.insert(set);
        true
    }

    /// Removes every set that is a proper superset of another kept set,
    /// smallest sets first. Deterministic: ties are broken
    /// lexicographically, and equal-size distinct sets never dominate
    /// each other.
    pub fn remove_supersets(&mut self) {
        let mut by_len: Vec<Vec<u64>> = self.sets.drain().collect();
        by_len.sort_by(|a, b| (a.len(), a).cmp(&(b.len(), b)));
        let mut kept: HashSet<Vec<u64>> = HashSet::with_capacity(by_len.len());
        'outer: for s in by_len {
            let k = s.len();
            if k > 1 {
                // Proper non-empty subsets only (the set itself is
                // distinct from everything already kept).
                for pick in 1..((1usize << k) - 1) {
                    let subset: Vec<u64> = (0..k)
                        .filter(|i| (pick >> i) & 1 == 1)
                        .map(|i| s[i])
                        .collect();
                    if kept.contains(&subset) {
                        continue 'outer;
                    }
                }
            }
            kept.insert(s);
        }
        self.sets = kept;
    }

    /// The kept sets in sorted order (the canonical serialization and
    /// snapshot order — independent of hash iteration order).
    pub fn sorted_sets(&self) -> Vec<Vec<u64>> {
        let mut sets: Vec<Vec<u64>> = self.sets.iter().cloned().collect();
        sets.sort_unstable();
        sets
    }

    /// Consumes the family into its sorted sets.
    pub fn into_sorted_sets(self) -> Vec<Vec<u64>> {
        let mut sets: Vec<Vec<u64>> = self.sets.into_iter().collect();
        sets.sort_unstable();
        sets
    }

    /// Serializes the family in canonical (sorted) order.
    pub fn write(&self, w: &mut ByteWriter) {
        let sets = self.sorted_sets();
        w.usize(sets.len());
        for s in &sets {
            w.u64_slice(s);
        }
    }

    /// Deserializes a family written by [`Self::write`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncated or malformed payloads.
    pub fn read(r: &mut ByteReader<'_>) -> Result<CoverageMatrix, CheckpointError> {
        let n = r.usize()?;
        let mut sets = HashSet::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            sets.insert(r.u64_slice()?);
        }
        Ok(CoverageMatrix { sets })
    }
}

/// A bitset over the rows of a detectability table: which erroneous
/// cases an object (candidate parity mask, partial cover) detects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowSet {
    words: Vec<u64>,
    rows: usize,
}

impl RowSet {
    /// The empty set over `rows` rows.
    pub fn empty(rows: usize) -> RowSet {
        RowSet {
            words: vec![0u64; rows.div_ceil(64)],
            rows,
        }
    }

    /// The full set over `rows` rows.
    pub fn full(rows: usize) -> RowSet {
        let mut s = RowSet::empty(rows);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        let extra = s.words.len() * 64 - rows;
        if extra > 0 {
            if let Some(last) = s.words.last_mut() {
                *last >>= extra;
            }
        }
        s
    }

    /// Number of rows the set ranges over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The backing words (LSB-first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Marks row `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.rows);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears row `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.rows);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// True iff row `i` is marked.
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of marked rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no row is marked.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True iff every marked row of `self` is marked in `other`.
    pub fn is_subset_of(&self, other: &RowSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &RowSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The lowest unmarked row, if any.
    pub fn first_clear(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = wi * 64 + (!w).trailing_zeros() as usize;
                if i < self.rows {
                    return Some(i);
                }
            }
        }
        None
    }

    /// The lowest marked row, if any.
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates the marked rows in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// A GF(2) linear basis over `u64` vectors in row-echelon form: every
/// kept vector has a distinct leading (highest set) bit, maintained in
/// descending leading-bit order so reduction is a single pass.
#[derive(Debug, Clone, Default)]
struct Gf2Basis {
    vecs: Vec<u64>,
}

impl Gf2Basis {
    /// Reduces `v` against the basis; the result is `0` iff `v` lies in
    /// the span.
    fn reduce(&self, mut v: u64) -> u64 {
        for &b in &self.vecs {
            let lead = 63 - b.leading_zeros();
            if (v >> lead) & 1 == 1 {
                v ^= b;
            }
        }
        v
    }

    /// Inserts `v` if independent of the span; returns whether the
    /// dimension grew.
    fn insert(&mut self, v: u64) -> bool {
        let v = self.reduce(v);
        if v == 0 {
            return false;
        }
        self.vecs.push(v);
        // Keep descending leading-bit order; leading bits are distinct
        // by construction, so plain descending value order works.
        self.vecs.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    fn dim(&self) -> usize {
        self.vecs.len()
    }

    /// True iff `span(other) ⊆ span(self)`.
    fn spans(&self, other: &Gf2Basis) -> bool {
        other.vecs.iter().all(|&v| self.reduce(v) == 0)
    }
}

/// The result of [`reduce_cases`]: a kernel of erroneous cases whose
/// coverage implies coverage of the full case set, plus the witness map
/// proving it row by row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReduction {
    kernel: Vec<usize>,
    witness: Vec<usize>,
}

impl CaseReduction {
    /// The kept row indices, ascending. Covering exactly these rows is
    /// equivalent to covering every row of the input.
    pub fn kernel(&self) -> &[usize] {
        &self.kernel
    }

    /// The kernel row whose detection implies detection of `row` (the
    /// reconstruction map; a kernel row witnesses itself).
    pub fn witness_for(&self, row: usize) -> usize {
        self.witness[row]
    }

    /// Number of rows in the original case set.
    pub fn len(&self) -> usize {
        self.witness.len()
    }

    /// True iff the input had no rows.
    pub fn is_empty(&self) -> bool {
        self.witness.is_empty()
    }
}

/// Symmetry/dominance reduction of erroneous *cases* (rows of step
/// masks), strictly generalizing the step-set subset dominance of
/// [`CoverageMatrix`] to GF(2) span containment.
///
/// A parity mask `m` detects row `i` iff some step mask `d ∈ D(i)` has
/// odd overlap with `m`, i.e. iff `m` is *not* orthogonal to all of
/// `D(i)` — equivalently `m ∉ span(D(i))⊥`. If
/// `span(D(j)) ⊆ span(D(i))` then `span(D(i))⊥ ⊆ span(D(j))⊥`, so any
/// mask failing to detect row `i` also fails to detect row `j`:
/// **detecting `j` implies detecting `i`**, and row `i` may be dropped
/// with witness `j`. (A step-set subset is the special case where the
/// containment is witnessed by the generators themselves; XOR
/// combinations are what the span view adds.)
///
/// The kernel keeps, for each containment class, the row with the
/// smallest span — rows are processed in ascending `(dimension, index)`
/// order and a row is dropped the moment an already-kept row's span is
/// contained in its own. Ties (equal spans) keep the lowest index. The
/// witness map is total: a cover detects every input row iff it
/// detects every kernel row, because `detects(witness(i)) ⇒ detects(i)`
/// and every kernel row is its own witness. Deterministic in the input
/// order alone.
pub fn reduce_cases<R: AsRef<[u64]>>(rows: &[R]) -> CaseReduction {
    let m = rows.len();
    let mut bases = Vec::with_capacity(m);
    let mut support = vec![0u64; m];
    for (i, row) in rows.iter().enumerate() {
        let mut basis = Gf2Basis::default();
        for &d in row.as_ref() {
            if d != 0 {
                basis.insert(d);
                support[i] |= d;
            }
        }
        bases.push(basis);
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_unstable_by_key(|&i| (bases[i].dim(), i));
    let mut kernel: Vec<usize> = Vec::new();
    let mut witness = vec![usize::MAX; m];
    'rows: for &i in &order {
        for &j in &kernel {
            // Cheap necessary conditions first: a contained span has no
            // support outside the container's and no larger dimension.
            if bases[j].dim() <= bases[i].dim()
                && support[j] & !support[i] == 0
                && bases[i].spans(&bases[j])
            {
                witness[i] = j;
                continue 'rows;
            }
        }
        witness[i] = i;
        kernel.push(i);
    }
    kernel.sort_unstable();
    CaseReduction { kernel, witness }
}

/// Drops dominated candidates: a candidate whose coverage is a subset
/// of an earlier *kept* candidate's coverage (including equality) is
/// removed. The caller orders the input by preference (the cover
/// searches order by descending coverage size so supersets are seen
/// first); order among the survivors is preserved.
pub fn drop_dominated<T>(candidates: Vec<(RowSet, T)>) -> Vec<(RowSet, T)> {
    let mut kept: Vec<(RowSet, T)> = Vec::new();
    'outer: for (cov, payload) in candidates {
        for (kc, _) in &kept {
            if cov.is_subset_of(kc) {
                continue 'outer;
            }
        }
        kept.push((cov, payload));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sorts_dedups_and_drops_zeros() {
        assert_eq!(CoverageMatrix::canonical(&[3, 0, 1, 3]), vec![1, 3]);
        assert!(CoverageMatrix::canonical(&[0, 0]).is_empty());
    }

    #[test]
    fn dominance_includes_equality_and_subsets() {
        let mut m = CoverageMatrix::new();
        m.insert_raw(vec![2, 5]);
        assert!(m.dominated(&[2, 5]));
        assert!(m.dominated(&[1, 2, 5]));
        assert!(!m.dominated(&[2]));
        assert!(!m.dominated(&[]));
    }

    #[test]
    fn insert_minimal_skips_dominated_and_empty() {
        let mut m = CoverageMatrix::new();
        assert!(m.insert_minimal(vec![1, 2]));
        assert!(!m.insert_minimal(vec![1, 2, 3]));
        assert!(!m.insert_minimal(Vec::new()));
        // A subset of a kept set is NOT dominated by it; it supersedes.
        assert!(m.insert_minimal(vec![1]));
        m.remove_supersets();
        assert_eq!(m.sorted_sets(), vec![vec![1]]);
    }

    #[test]
    fn remove_supersets_is_order_independent() {
        let sets = [vec![1u64, 2, 3], vec![1, 2], vec![2], vec![4, 5], vec![4]];
        let mut forward = CoverageMatrix::new();
        for s in &sets {
            forward.insert_raw(s.clone());
        }
        let mut reverse = CoverageMatrix::new();
        for s in sets.iter().rev() {
            reverse.insert_raw(s.clone());
        }
        forward.remove_supersets();
        reverse.remove_supersets();
        assert_eq!(forward.sorted_sets(), reverse.sorted_sets());
        assert_eq!(forward.sorted_sets(), vec![vec![2], vec![4]]);
    }

    #[test]
    fn serialization_round_trips_in_canonical_order() {
        let mut m = CoverageMatrix::new();
        m.insert_raw(vec![7]);
        m.insert_raw(vec![1, 9]);
        let mut w = ByteWriter::new();
        m.write(&mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = CoverageMatrix::read(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.sorted_sets(), m.sorted_sets());
        // Canonical bytes: a second write is identical.
        let mut w2 = ByteWriter::new();
        back.write(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn rowset_basics() {
        let mut s = RowSet::empty(70);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(69);
        assert_eq!(s.count(), 2);
        assert!(s.contains(69) && !s.contains(68));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(s.first_set(), Some(0));
        assert_eq!(s.first_clear(), Some(1));
        s.remove(0);
        assert_eq!(s.first_set(), Some(69));
        let full = RowSet::full(70);
        assert_eq!(full.count(), 70);
        assert_eq!(full.first_clear(), None);
        assert!(s.is_subset_of(&full));
        assert!(!full.is_subset_of(&s));
        let mut u = s.clone();
        u.union_with(&full);
        assert_eq!(u, full);
    }

    /// Reference detection predicate: some step has odd overlap.
    fn detects(mask: u64, row: &[u64]) -> bool {
        row.iter().any(|&d| (d & mask).count_ones() & 1 == 1)
    }

    #[test]
    fn reduce_cases_subset_rows_dominate_supersets() {
        // Row 1's step-set is a superset of row 0's: covering row 0
        // covers row 1. Row 2 is independent.
        let rows = vec![vec![0b01u64], vec![0b01, 0b10], vec![0b100]];
        let red = reduce_cases(&rows);
        assert_eq!(red.kernel(), &[0, 2]);
        assert_eq!(red.witness_for(0), 0);
        assert_eq!(red.witness_for(1), 0);
        assert_eq!(red.witness_for(2), 2);
    }

    #[test]
    fn reduce_cases_sees_xor_combinations_beyond_subsets() {
        // span{011, 101} = {0, 011, 101, 110} contains span{110}: the
        // subset test misses this (110 is in neither step set), the
        // span test does not.
        let rows = vec![vec![0b011u64, 0b101], vec![0b110]];
        let red = reduce_cases(&rows);
        assert_eq!(red.kernel(), &[1]);
        assert_eq!(red.witness_for(0), 1);
    }

    #[test]
    fn reduce_cases_equal_spans_keep_lowest_index() {
        let rows = vec![vec![0b11u64, 0b01], vec![0b01, 0b10]];
        let red = reduce_cases(&rows);
        assert_eq!(red.kernel(), &[0]);
        assert_eq!(red.witness_for(1), 0);
    }

    #[test]
    fn reduce_cases_witnesses_are_sound_for_every_mask() {
        // Exhaustive check of the reconstruction property on a small
        // deterministic family: for every mask, detecting the witness
        // implies detecting the row — hence covering the kernel is
        // covering everything.
        let mut rows: Vec<Vec<u64>> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..40 {
            let mut row = Vec::new();
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push((x >> 40) & 0x1F);
            }
            rows.push(row);
        }
        let red = reduce_cases(&rows);
        for mask in 0..32u64 {
            for (i, row) in rows.iter().enumerate() {
                let w = red.witness_for(i);
                if detects(mask, &rows[w]) {
                    assert!(detects(mask, row), "mask {mask:#b} row {i} witness {w}");
                }
            }
            // Boolean equivalence: covers-kernel ⇔ covers-all.
            let all = rows.iter().all(|r| detects(mask, r));
            let kernel = red.kernel().iter().all(|&i| detects(mask, &rows[i]));
            assert_eq!(all, kernel, "mask {mask:#b}");
        }
    }

    #[test]
    fn drop_dominated_keeps_first_superset() {
        let mk = |rows: &[usize]| {
            let mut s = RowSet::empty(8);
            for &i in rows {
                s.insert(i);
            }
            s
        };
        let out = drop_dominated(vec![
            (mk(&[0, 1, 2]), "big"),
            (mk(&[0, 1]), "subset"),
            (mk(&[3]), "disjoint"),
            (mk(&[0, 1, 2]), "equal"),
        ]);
        let names: Vec<&str> = out.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["big", "disjoint"]);
    }
}
