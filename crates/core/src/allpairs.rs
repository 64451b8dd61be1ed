//! All-pairs mutual information — the drafting phase's statistics test
//! (paper Algorithm 4).
//!
//! Cheng et al.'s first phase evaluates `I(Xᵢ; Xⱼ)` for **every** pair of
//! variables. Algorithm 4 deals the `n(n−1)/2` pairs round-robin over the
//! `P` cores; for each of its pairs a core computes the pairwise joint
//! `P(x, y)`, derives both singleton marginals from the joint (the paper's
//! optimization eliminating two of the three marginalization passes), and
//! evaluates Equation 1.
//!
//! Two schedules are provided:
//!
//! * [`all_pairs_mi`] — pair-parallel (the paper's Algorithm 4): the table
//!   is decoded once into state columns ([`DecodedTable`]), then each core
//!   gathers the joints of its pairs from two columns apiece. Decoding
//!   costs `O(E · n)` divides once for `E` table entries; each pair then
//!   costs `O(E)` multiply-adds, with no divides.
//! * [`all_pairs_mi_fused`] — table-parallel extension: each core scans its
//!   own partitions *once*, decodes the full state string per entry
//!   (`O(n)`), and updates the joints of **all** pairs in registers/L1
//!   (`O(n²)` updates per entry). Same asymptotics, different constants;
//!   both appear in the ablation bench.
//!
//! Both produce identical joint counts, hence identical MI values, and both
//! return a symmetric [`MiMatrix`].

use crate::decoded::DecodedTable;
use crate::entropy::mutual_information;
use crate::error::CoreError;
use crate::potential::PotentialTable;
use wfbn_concurrent::{pair_count, pairs_for_thread, run_on_threads};
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// Symmetric matrix of pairwise mutual information values (nats).
#[derive(Debug, Clone, PartialEq)]
pub struct MiMatrix {
    n: usize,
    /// Strict upper triangle, row-major: (0,1), (0,2), …, (n−2,n−1).
    values: Vec<f64>,
}

impl MiMatrix {
    fn zeroed(n: usize) -> Self {
        Self {
            n,
            values: vec![0.0; pair_count(n)],
        }
    }

    #[inline]
    fn flat_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Elements before row i: Σ_{k<i} (n−1−k) = i·(2n−i−1)/2.
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// `I(Xᵢ; Xⱼ)`; symmetric, and 0 on the diagonal by convention.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        match i.cmp(&j) {
            core::cmp::Ordering::Less => self.values[self.flat_index(i, j)],
            core::cmp::Ordering::Greater => self.values[self.flat_index(j, i)],
            core::cmp::Ordering::Equal => 0.0,
        }
    }

    fn set(&mut self, i: usize, j: usize, value: f64) {
        let idx = self.flat_index(i, j);
        self.values[idx] = value;
    }

    /// Iterates `(i, j, I(Xᵢ;Xⱼ))` over the strict upper triangle.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| ((i + 1)..self.n).map(move |j| (i, j, self.get(i, j))))
    }

    /// Pairs with MI strictly above `threshold`, sorted by MI descending —
    /// the candidate-edge list the drafting phase consumes.
    pub fn candidate_edges(&self, threshold: f64) -> Vec<(usize, usize, f64)> {
        let mut edges: Vec<(usize, usize, f64)> = self
            .iter_pairs()
            .filter(|&(_, _, mi)| mi > threshold)
            .collect();
        edges.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("MI is never NaN"));
        edges
    }

    /// Largest absolute difference against another matrix (test helper).
    pub fn max_abs_diff(&self, other: &MiMatrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Computes all-pairs MI with the paper's pair-parallel schedule
/// (Algorithm 4) on `threads` threads.
///
/// # Examples
///
/// ```
/// use wfbn_core::{allpairs::all_pairs_mi, construct::waitfree_build};
/// use wfbn_data::{CorrelatedChain, Generator, Schema};
///
/// let schema = Schema::uniform(5, 2).unwrap();
/// let data = CorrelatedChain::new(schema, 0.9).unwrap().generate(20_000, 3);
/// let table = waitfree_build(&data, 2).unwrap().table;
/// let mi = all_pairs_mi(&table, 2);
/// // Adjacent chain variables share more information than distant ones.
/// assert!(mi.get(0, 1) > mi.get(0, 4));
/// ```
pub fn all_pairs_mi(table: &PotentialTable, threads: usize) -> MiMatrix {
    all_pairs_mi_recorded(table, threads, &NoopRecorder)
}

/// [`all_pairs_mi`] with telemetry: the one-off decode of the table and
/// each thread's pair loop attribute their wall time to
/// [`Stage::Marginal`] (the decode on core 0, before the pair threads
/// start); each thread counts the pairs it evaluated
/// ([`Counter::PairsScanned`]) and the table entries its gathers touched
/// ([`Counter::EntriesScanned`] — every pair reads all `E` entries of its
/// two columns, the `O(E·n²)` constant the fused schedule removes).
pub fn all_pairs_mi_recorded<R: Recorder>(
    table: &PotentialTable,
    threads: usize,
    rec: &R,
) -> MiMatrix {
    assert!(threads > 0, "need at least one thread");
    let view = {
        let mut cr = rec.core(0);
        let t0 = cr.now();
        let view = DecodedTable::new(table);
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        view
    };
    pairs_mi_recorded(&view, threads, rec)
}

/// [`all_pairs_mi`] over an already-decoded table: the form a caller that
/// goes on scanning the same table (the structure learner's CI tests)
/// uses, so the table is decoded only once.
pub fn all_pairs_mi_decoded(view: &DecodedTable, threads: usize) -> MiMatrix {
    assert!(threads > 0, "need at least one thread");
    pairs_mi_recorded(view, threads, &NoopRecorder)
}

/// Algorithm 4's schedule on the columns: pairs dealt round-robin over
/// `threads`, each joint gathered on its owning thread.
fn pairs_mi_recorded<R: Recorder>(view: &DecodedTable, threads: usize, rec: &R) -> MiMatrix {
    let n = view.num_vars();
    let entries = view.num_entries() as u64;
    let mut matrix = MiMatrix::zeroed(n);
    let per_thread = run_on_threads(threads, |t| {
        let mut cr = rec.core(t);
        let t0 = cr.now();
        let mut local: Vec<(usize, usize, f64)> = Vec::new();
        for (i, j) in pairs_for_thread(n, t, threads) {
            let pair = view
                .marginal(&[i, j])
                .expect("pair vars are valid by construction");
            local.push((i, j, mutual_information(&pair)));
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::PairsScanned, local.len() as u64);
        cr.add(Counter::EntriesScanned, local.len() as u64 * entries);
        local
    });
    for thread_results in per_thread {
        for (i, j, mi) in thread_results {
            matrix.set(i, j, mi);
        }
    }
    matrix
}

/// Computes all-pairs MI with the fused table-parallel schedule: one scan of
/// the table per thread, all pairwise joints accumulated simultaneously.
pub fn all_pairs_mi_fused(table: &PotentialTable, threads: usize) -> MiMatrix {
    all_pairs_mi_fused_recorded(table, threads, &NoopRecorder)
}

/// [`all_pairs_mi_fused`] with telemetry: each scan thread attributes its
/// wall time to [`Stage::Marginal`] and counts the entries it decoded
/// ([`Counter::EntriesScanned`] — each entry is read once, unlike the
/// pair-parallel schedule); the merging core additionally records the
/// `n(n−1)/2` evaluated pairs under [`Counter::PairsScanned`].
pub fn all_pairs_mi_fused_recorded<R: Recorder>(
    table: &PotentialTable,
    threads: usize,
    rec: &R,
) -> MiMatrix {
    assert!(threads > 0, "need at least one thread");
    let codec = table.codec();
    let n = codec.num_vars();
    let total = table.total_count();
    let p = table.num_partitions();
    let t = threads.min(p);

    // Layout of the fused accumulator: for pair index q = flat(i,j) a block
    // of r_i·r_j cells at offset[q].
    let mut offsets = Vec::with_capacity(pair_count(n));
    let mut cells = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            offsets.push(cells);
            cells += (codec.arity(i) * codec.arity(j)) as usize;
        }
    }
    let flat = |i: usize, j: usize| i * (2 * n - i - 1) / 2 + (j - i - 1);

    let partials = run_on_threads(t, |tid| {
        let mut cr = rec.core(tid);
        let t0 = cr.now();
        let mut scanned = 0u64;
        let mut acc = vec![0u64; cells];
        let mut digits = vec![0u64; n];
        let mut part_idx = tid;
        while part_idx < p {
            for (key, count) in table.partition(part_idx).iter() {
                scanned += 1;
                // Decode the full state string once.
                let mut rest = key;
                for (d, jj) in digits.iter_mut().zip(0..n) {
                    let r = codec.arity(jj);
                    *d = rest % r;
                    rest /= r;
                }
                // Update every pair's joint cell.
                for i in 0..n {
                    let ri = codec.arity(i);
                    for j in (i + 1)..n {
                        let cell = digits[j] * ri + digits[i];
                        acc[offsets[flat(i, j)] + cell as usize] += count;
                    }
                }
            }
            part_idx += t;
        }
        cr.stage_ns(Stage::Marginal, cr.now().saturating_sub(t0));
        cr.add(Counter::EntriesScanned, scanned);
        acc
    });

    // Merge partials, then evaluate MI per pair.
    let mut acc = vec![0u64; cells];
    for partial in &partials {
        for (a, b) in acc.iter_mut().zip(partial) {
            *a += b;
        }
    }
    let mut matrix = MiMatrix::zeroed(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let q = flat(i, j);
            let block_len = (codec.arity(i) * codec.arity(j)) as usize;
            let block = &acc[offsets[q]..offsets[q] + block_len];
            let pair = crate::marginal::MarginalTable::from_raw_parts(
                vec![i, j],
                vec![codec.arity(i), codec.arity(j)],
                block.to_vec(),
                total,
            );
            matrix.set(i, j, mutual_information(&pair));
        }
    }
    // The merge/evaluate step runs on the calling thread after the scan
    // threads have joined, so reusing core 0's handle stays single-writer.
    let mut cr = rec.core(0);
    cr.add(Counter::PairsScanned, pair_count(n) as u64);
    matrix
}

/// Convenience wrapper: validates inputs and returns a `Result` rather than
/// panicking (library-boundary entry point used by the `bn` crate).
pub fn try_all_pairs_mi(table: &PotentialTable, threads: usize) -> Result<MiMatrix, CoreError> {
    if threads == 0 {
        return Err(CoreError::ZeroThreads);
    }
    if table.total_count() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    Ok(all_pairs_mi(table, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_data::{CorrelatedChain, Dataset, Generator, Schema, UniformIndependent};

    fn build_for_tests(data: &Dataset, p: usize) -> PotentialTable {
        crate::construct::waitfree_build(data, p).unwrap().table
    }

    #[test]
    fn pairwise_schedules_agree() {
        let schema = Schema::new(vec![2, 3, 2, 4, 2, 3]).unwrap();
        let data = CorrelatedChain::new(schema, 0.6)
            .unwrap()
            .generate(8_000, 21);
        let table = build_for_tests(&data, 3);
        let a = all_pairs_mi(&table, 1);
        let b = all_pairs_mi(&table, 4);
        let c = all_pairs_mi_fused(&table, 3);
        let d = all_pairs_mi_decoded(&DecodedTable::new(&table), 2);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
    }

    #[test]
    fn chain_structure_is_visible_in_the_matrix() {
        let schema = Schema::uniform(6, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(40_000, 7);
        let table = build_for_tests(&data, 4);
        let mi = all_pairs_mi(&table, 2);
        for i in 0..5 {
            assert!(
                mi.get(i, i + 1) > 0.15,
                "adjacent pair ({i},{}) too weak: {}",
                i + 1,
                mi.get(i, i + 1)
            );
        }
        assert!(
            mi.get(0, 5) < mi.get(0, 1),
            "MI should decay along the chain"
        );
    }

    #[test]
    fn independent_data_yields_tiny_values() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(50_000, 2);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        for (_, _, v) in mi.iter_pairs() {
            assert!(v >= 0.0);
            assert!(v < 1e-3, "independent pair with MI {v}");
        }
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let schema = Schema::uniform(4, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.5)
            .unwrap()
            .generate(5_000, 9);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        for i in 0..4 {
            assert_eq!(mi.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(mi.get(i, j), mi.get(j, i));
            }
        }
    }

    #[test]
    fn candidate_edges_sorted_descending() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.8)
            .unwrap()
            .generate(20_000, 4);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 2);
        let edges = mi.candidate_edges(0.01);
        assert!(!edges.is_empty());
        for w in edges.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        for &(i, j, v) in &edges {
            assert!(i < j);
            assert!(v > 0.01);
        }
    }

    #[test]
    fn iter_pairs_covers_triangle() {
        let schema = Schema::uniform(7, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(1_000, 1);
        let table = build_for_tests(&data, 2);
        let mi = all_pairs_mi(&table, 3);
        let pairs: Vec<(usize, usize)> = mi.iter_pairs().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(pairs.len(), pair_count(7));
        let unique: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(unique.len(), pairs.len());
    }

    #[test]
    fn try_variant_validates() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = UniformIndependent::new(schema).generate(100, 1);
        let table = build_for_tests(&data, 2);
        assert!(matches!(
            try_all_pairs_mi(&table, 0),
            Err(CoreError::ZeroThreads)
        ));
        assert!(try_all_pairs_mi(&table, 2).is_ok());
    }
}
