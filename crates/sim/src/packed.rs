//! Bit-packed, column-major view of a detectability table, plus the
//! case-kernel pairing that makes coverage checks cheap on large
//! machines (DESIGN.md §15).
//!
//! [`crate::detect::DetectabilityTable`] stores the tensor `V(i,j,k)`
//! row-major: one [`crate::detect::EcRow`] per erroneous case, one
//! step-mask word per latency step. That layout is right for
//! enumeration and serialization, but the cover search asks the
//! *transposed* question millions of times: "which rows does this
//! parity mask detect?" [`PackedTable`] answers it 64 rows at a time —
//! for each (difference bit `j`, step `k`) it keeps a bitvector over
//! rows, so the detection parity of a mask at one step is the XOR of
//! `popcount(mask)` row-words, the same 64-wide word idiom the fault
//! simulator uses for patterns.
//!
//! Exactness: every query here is integer arithmetic on exactly the
//! bits of the source rows, so results are equal — not approximately,
//! but as the same booleans and indices — to the row-major queries
//! ([`crate::detect::DetectabilityTable::uncovered_rows`] and
//! friends). The differential test battery pins this.
//!
//! [`SparseTables`] adds the GF(2) case-kernel
//! ([`ced_store::reduce_cases`]): a subset of rows whose coverage
//! provably implies coverage of all rows. The kernel may be used
//! *only* for boolean success checks (is this cover complete?); row
//! enumeration, LP row feeding and greedy counting must stay on the
//! full table, because which rows those surface is byte-observable in
//! reports and search trajectories.

use crate::detect::DetectabilityTable;
use ced_store::{reduce_cases, CaseReduction, RowSet};

/// Column-major bit-packed tensor slices: for each (bit, step) a
/// bitvector over rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTable {
    rows: usize,
    num_bits: usize,
    latency: usize,
    /// Words per column (`rows.div_ceil(64)`).
    words: usize,
    /// `bits[(j * latency + k) * words + w]`: bit `r` is set iff row
    /// `w*64 + r`'s step `k` has difference bit `j` set.
    bits: Vec<u64>,
}

impl PackedTable {
    /// Packs every row of `table`.
    pub fn from_table(table: &DetectabilityTable) -> PackedTable {
        Self::from_rows(table, None)
    }

    /// Packs the selected rows of `table` (all rows when `subset` is
    /// `None`), preserving the given row order: packed row `i` is
    /// `table.rows()[subset[i]]`.
    pub fn from_rows(table: &DetectabilityTable, subset: Option<&[usize]>) -> PackedTable {
        let num_bits = table.num_bits();
        let latency = table.latency();
        let all = table.rows();
        let rows = subset.map_or(all.len(), <[usize]>::len);
        let words = rows.div_ceil(64);
        let mut bits = vec![0u64; num_bits * latency * words];
        for i in 0..rows {
            let row = &all[subset.map_or(i, |s| s[i])];
            for (k, &d) in row.steps.iter().enumerate() {
                let mut rem = d;
                while rem != 0 {
                    let j = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    bits[(j * latency + k) * words + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        PackedTable {
            rows,
            num_bits,
            latency,
            words,
            bits,
        }
    }

    /// Number of packed rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff no rows are packed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Difference-vector width in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Latency bound (steps per row).
    pub fn latency(&self) -> usize {
        self.latency
    }

    #[inline]
    fn col(&self, j: usize, k: usize) -> &[u64] {
        let base = (j * self.latency + k) * self.words;
        &self.bits[base..base + self.words]
    }

    /// Mask of representable difference bits.
    #[inline]
    fn bit_mask(&self) -> u64 {
        if self.num_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.num_bits) - 1
        }
    }

    /// The word of rows `w*64..` covered by `masks`: bit `r` set iff
    /// some mask detects packed row `w*64 + r`.
    #[inline]
    fn covered_word(&self, masks: &[u64], w: usize) -> u64 {
        let mut cov = 0u64;
        for &mask in masks {
            let mask = mask & self.bit_mask();
            for k in 0..self.latency {
                let mut par = 0u64;
                let mut rem = mask;
                while rem != 0 {
                    let j = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    par ^= self.col(j, k)[w];
                }
                cov |= par;
            }
        }
        cov
    }

    /// The full-coverage pattern for word `w` (partial last word).
    #[inline]
    fn full_word(&self, w: usize) -> u64 {
        let used = (self.rows - w * 64).min(64);
        if used == 64 {
            u64::MAX
        } else {
            (1u64 << used) - 1
        }
    }

    /// True iff every row is detected by some mask — equal to
    /// [`DetectabilityTable::all_covered`] on the packed rows, with a
    /// word-level early exit on the first uncovered block.
    pub fn all_covered(&self, masks: &[u64]) -> bool {
        (0..self.words).all(|w| self.covered_word(masks, w) == self.full_word(w))
    }

    /// Packed-row indices no mask detects, ascending — equal to
    /// [`DetectabilityTable::uncovered_rows`] on the packed rows.
    pub fn uncovered_rows(&self, masks: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        for w in 0..self.words {
            let mut miss = !self.covered_word(masks, w) & self.full_word(w);
            while miss != 0 {
                out.push(w * 64 + miss.trailing_zeros() as usize);
                miss &= miss - 1;
            }
        }
        out
    }

    /// How many rows of `uncovered` the single mask detects — the
    /// greedy search's scoring query, 64 rows per word with an early
    /// exit on fully-covered blocks.
    pub fn covered_count(&self, mask: u64, uncovered: &RowSet) -> usize {
        debug_assert_eq!(uncovered.rows(), self.rows);
        let uw = uncovered.words();
        let mut count = 0usize;
        for w in 0..self.words {
            if uw[w] == 0 {
                continue;
            }
            count += (self.covered_word(&[mask], w) & uw[w]).count_ones() as usize;
        }
        count
    }
}

/// The sparse engine's working set for one reduced table: the full
/// packed tensor (row enumeration, greedy counts) plus the packed case
/// kernel (boolean cover checks) and the reduction that proves the
/// kernel sufficient.
#[derive(Debug, Clone)]
pub struct SparseTables {
    full: PackedTable,
    kernel: PackedTable,
    reduction: CaseReduction,
}

impl SparseTables {
    /// Packs `table` and computes its case kernel.
    pub fn build(table: &DetectabilityTable) -> SparseTables {
        let steps: Vec<&[u64]> = table.rows().iter().map(|r| r.steps.as_slice()).collect();
        let reduction = reduce_cases(&steps);
        let full = PackedTable::from_table(table);
        let kernel = PackedTable::from_rows(table, Some(reduction.kernel()));
        SparseTables {
            full,
            kernel,
            reduction,
        }
    }

    /// The packed view of every row, in table order.
    pub fn full(&self) -> &PackedTable {
        &self.full
    }

    /// The packed view of the kernel rows only.
    pub fn kernel(&self) -> &PackedTable {
        &self.kernel
    }

    /// The kernel membership and witness map.
    pub fn reduction(&self) -> &CaseReduction {
        &self.reduction
    }

    /// True iff `masks` cover every row of the source table, decided on
    /// the kernel alone: by the witness map, covering each kernel row
    /// covers every row it witnesses, and the kernel rows are a subset
    /// of the table — so the boolean is exactly
    /// [`DetectabilityTable::all_covered`].
    pub fn all_covered(&self, masks: &[u64]) -> bool {
        self.kernel.all_covered(masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::EcRow;

    /// A deterministic pseudo-random table plus a mask stream.
    fn seeded_table(rows: usize, num_bits: usize, latency: usize, seed: u64) -> DetectabilityTable {
        let mut x = seed | 1;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        let mask = if num_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << num_bits) - 1
        };
        let rows: Vec<EcRow> = (0..rows)
            .map(|_| EcRow {
                steps: (0..latency).map(|_| next() & mask).collect(),
            })
            .filter(|r| r.steps.iter().any(|&d| d != 0))
            .collect();
        DetectabilityTable::from_rows(num_bits, latency, rows)
    }

    #[test]
    fn packed_queries_equal_row_major_queries() {
        for seed in 1..6u64 {
            let table = seeded_table(137, 9, 3, seed);
            let packed = PackedTable::from_table(&table);
            assert_eq!(packed.len(), table.len());
            let mut x = seed;
            for trial in 0..40 {
                let q = 1 + (trial % 3);
                let masks: Vec<u64> = (0..q)
                    .map(|i| {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
                        (x >> 30) & 0x1FF
                    })
                    .collect();
                assert_eq!(packed.all_covered(&masks), table.all_covered(&masks));
                assert_eq!(packed.uncovered_rows(&masks), table.uncovered_rows(&masks));
            }
        }
    }

    #[test]
    fn packed_covered_count_matches_filtered_iteration() {
        let table = seeded_table(90, 7, 2, 42);
        let packed = PackedTable::from_table(&table);
        let mut uncovered = RowSet::full(table.len());
        for i in (0..table.len()).step_by(3) {
            uncovered.remove(i);
        }
        for mask in 0..128u64 {
            let dense = uncovered
                .iter()
                .filter(|&i| table.rows()[i].detected_by(mask))
                .count();
            assert_eq!(packed.covered_count(mask, &uncovered), dense, "mask {mask}");
        }
    }

    #[test]
    fn kernel_check_equals_full_check() {
        for seed in 1..8u64 {
            let table = seeded_table(60, 6, 3, seed);
            let sparse = SparseTables::build(&table);
            assert!(sparse.kernel().len() <= sparse.full().len());
            let mut x = seed;
            for _ in 0..200 {
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let masks = [(x >> 20) & 0x3F, (x >> 40) & 0x3F];
                assert_eq!(
                    sparse.all_covered(&masks),
                    table.all_covered(&masks),
                    "seed {seed} masks {masks:?}"
                );
            }
        }
    }

    #[test]
    fn subset_packing_reindexes_rows() {
        let table = seeded_table(20, 5, 2, 7);
        let subset = [3usize, 9, 14];
        let packed = PackedTable::from_rows(&table, Some(&subset));
        assert_eq!(packed.len(), 3);
        for mask in 0..32u64 {
            let expect: Vec<usize> = subset
                .iter()
                .enumerate()
                .filter(|&(_, &orig)| !table.rows()[orig].detected_by(mask))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(packed.uncovered_rows(&[mask]), expect);
        }
    }
}
