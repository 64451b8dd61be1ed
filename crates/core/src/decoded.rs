//! The potential table decoded once into per-variable state columns.
//!
//! Algorithm 3 decodes each stored key with one divide and one modulo per
//! variable of interest, on every scan. Structure learning scans the same
//! immutable table once per variable pair (drafting) and once per
//! conditional-independence test (thickening and thinning), so the same
//! divisions are repeated thousands of times. A [`DecodedTable`] pays them
//! once: it holds one `u16` state column per variable plus the entry
//! counts, and [`DecodedTable::marginal`] gathers any marginal from the
//! columns it needs with multiply-adds only, laid out directly in the
//! caller's variable order.
//!
//! The view is read-only and `Sync`, so the all-pairs schedule shares one
//! view across its threads. Its marginals are exactly those of
//! [`marginalize`](crate::marginal::marginalize) followed by
//! [`MarginalTable::reorder`]: counts are integer sums, so the order in
//! which entries are visited cannot change them.

use crate::codec::KeyCodec;
use crate::error::CoreError;
use crate::marginal::MarginalTable;
use crate::potential::PotentialTable;

/// A read-only, column-major decoding of a [`PotentialTable`]; see the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use wfbn_core::{construct::sequential_build, marginal::marginalize, DecodedTable};
/// use wfbn_data::{Dataset, Schema};
///
/// let schema = Schema::new(vec![2, 3, 2]).unwrap();
/// let d = Dataset::from_rows(schema, &[&[0, 2, 1], &[1, 2, 1], &[1, 0, 0]]).unwrap();
/// let table = sequential_build(&d).unwrap().table;
/// let view = DecodedTable::new(&table);
/// let m = view.marginal(&[2, 0]).unwrap(); // X₂ fastest, then X₀
/// assert_eq!(m.vars(), &[2, 0]);
/// assert_eq!(m.count(&[1, 1]), 1);
/// assert_eq!(m, marginalize(&table, &[0, 2], 1).unwrap().reorder(&[2, 0]));
/// ```
#[derive(Debug, Clone)]
pub struct DecodedTable {
    codec: KeyCodec,
    /// Column-major states: `states[v * E + e]` is the state of variable `v`
    /// in stored entry `e`, for `E` stored entries. One allocation, so a
    /// dropped view hands its pages straight back.
    states: Vec<u16>,
    /// `counts[e]` is the observation count of stored entry `e`.
    counts: Vec<u64>,
    total: u64,
}

impl DecodedTable {
    /// Decodes every stored key of `table` once (`key % r; key /= r` per
    /// variable), in partition order.
    pub fn new(table: &PotentialTable) -> Self {
        let codec = table.codec().clone();
        let entries = table.num_entries();
        let mut states = vec![0u16; codec.num_vars() * entries];
        let mut counts = Vec::with_capacity(entries);
        for (e, (key, count)) in table.iter().enumerate() {
            let mut rest = key;
            for v in 0..codec.num_vars() {
                let r = codec.arity(v);
                // A state is below its arity, which the schema keeps in u16.
                states[v * entries + e] = (rest % r) as u16;
                rest /= r;
            }
            counts.push(count);
        }
        Self {
            codec,
            states,
            counts,
            total: table.total_count(),
        }
    }

    /// The state column of variable `v`, one state per stored entry.
    fn column(&self, v: usize) -> &[u16] {
        let entries = self.counts.len();
        &self.states[v * entries..(v + 1) * entries]
    }

    /// The key codec of the source table's schema.
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.codec.num_vars()
    }

    /// Number of stored entries (distinct observed state strings).
    pub fn num_entries(&self) -> usize {
        self.counts.len()
    }

    /// Total observations `m` in the source table.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The marginal over the variables in `order`, laid out in that order
    /// (first variable fastest), as
    /// [`conditional_mutual_information`](crate::entropy::conditional_mutual_information)
    /// expects it.
    ///
    /// `order` may list the variables in any order, but must name each at
    /// most once; it fails with the same errors as
    /// [`marginalize`](crate::marginal::marginalize) on the sorted set,
    /// including the refusal of state spaces too large to materialize.
    pub fn marginal(&self, order: &[usize]) -> Result<MarginalTable, CoreError> {
        let mut out = MarginalTable::zeroed_in_order(&self.codec, order, self.total)?;
        // Cell index of every entry, one column at a time. The cell count is
        // capped far below 2^32, so u32 holds every partial index.
        let mut cells: Vec<u32> = Vec::new();
        let mut stride = 1u32;
        for &v in order {
            let column = self.column(v);
            if cells.is_empty() {
                cells.extend(column.iter().map(|&s| u32::from(s)));
            } else {
                for (cell, &s) in cells.iter_mut().zip(column) {
                    *cell += u32::from(s) * stride;
                }
            }
            stride *= self.codec.arity(v) as u32;
        }
        let acc = out.counts_mut();
        for (&cell, &count) in cells.iter().zip(&self.counts) {
            acc[cell as usize] += count;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::waitfree_build;
    use crate::marginal::marginalize;
    use wfbn_data::{Generator, Schema, UniformIndependent};

    fn table(arities: Vec<u16>, m: usize, seed: u64) -> PotentialTable {
        let data = UniformIndependent::new(Schema::new(arities).unwrap()).generate(m, seed);
        waitfree_build(&data, 3).unwrap().table
    }

    #[test]
    fn columns_round_trip_every_key() {
        let t = table(vec![2, 3, 4, 2], 2_000, 5);
        let view = DecodedTable::new(&t);
        assert_eq!(view.num_entries(), t.num_entries());
        assert_eq!(view.total(), 2_000);
        for (e, (key, count)) in t.iter().enumerate() {
            let states: Vec<u16> = (0..4).map(|v| view.column(v)[e]).collect();
            assert_eq!(t.codec().encode(&states), key);
            assert_eq!(view.counts[e], count);
        }
    }

    #[test]
    fn gathered_marginals_equal_sorted_scans_reordered() {
        let t = table(vec![2, 3, 2, 4, 3], 5_000, 9);
        let view = DecodedTable::new(&t);
        for order in [vec![3usize], vec![4, 0], vec![1, 3, 0], vec![2, 4, 1, 0]] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let expected = marginalize(&t, &sorted, 2).unwrap().reorder(&order);
            assert_eq!(view.marginal(&order).unwrap(), expected, "{order:?}");
        }
    }

    #[test]
    fn bad_variable_sets_fail_like_marginalize() {
        let t = table(vec![2; 4], 100, 1);
        let view = DecodedTable::new(&t);
        for bad in [vec![], vec![1, 1], vec![0, 9], vec![2, 0, 2]] {
            let mut sorted = bad.clone();
            sorted.sort_unstable();
            assert_eq!(
                view.marginal(&bad).unwrap_err(),
                marginalize(&t, &sorted, 1).unwrap_err(),
                "{bad:?}"
            );
        }
    }
}
