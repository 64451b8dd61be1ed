//! The wait-free table-construction primitive (paper Algorithms 1 & 2).
//!
//! # How the race is designed away
//!
//! A naïve parallel build — all threads incrementing a shared map — races on
//! the counts of popular keys; locking fixes correctness but serializes the
//! hot path. The paper's primitive instead *partitions the key space*: core
//! `p` is the unique writer of partition `p`. The build runs in two stages
//! with exactly one barrier between them:
//!
//! * **Stage 1** (Algorithm 1): each core streams its contiguous chunk of
//!   rows, encodes each row to a key, and either applies it to its own
//!   private table (if it owns the key) or routes it onto the wait-free SPSC
//!   queue addressed to the owning core — through a per-destination
//!   write-combining buffer that ships `(key, count)` blocks. Since a queue
//!   has exactly one producer and one consumer, no operation in this stage
//!   can block or even retry: every core makes progress on every step
//!   (*wait-freedom*).
//! * **Barrier** — the single synchronization step.
//! * **Stage 2** (Algorithm 2): each core drains the `P − 1` queues addressed
//!   to it block by block and applies the keys to its own table. Again,
//!   single-writer everywhere.
//!
//! Total work is `O(m·n / P)` per core for encoding plus `O(m / P)` expected
//! queue traffic — the complexities stated in the paper.

use crate::codec::KeyCodec;
use crate::count_table::CountTable;
use crate::engine::{self, Job, Schedule};
use crate::error::CoreError;
use crate::partition::KeyPartitioner;
use crate::potential::PotentialTable;
use crate::stats::{BuildStats, ThreadStats};
use wfbn_data::Dataset;
use wfbn_obs::{CoreRecorder, Counter, NoopRecorder, Recorder, Stage};

/// Result of a construction run: the table plus instrumentation.
#[derive(Debug)]
pub struct BuiltTable {
    /// The distributed potential table.
    pub table: PotentialTable,
    /// Per-thread counters.
    pub stats: BuildStats,
}

/// Cap on the per-partition capacity hint, to keep pre-allocation bounded
/// for huge inputs (the tables grow on demand past this). 2²² entries
/// (≈ 96 MiB of slot arrays at the load limit) covers the paper's 1M-sample
/// configurations without a single rehash; the old 2¹⁶ cap made the first
/// build of a large CSV pay O(log m) growth storms per core.
const MAX_PREALLOC_ENTRIES: u64 = 1 << 22;

pub(crate) fn capacity_hint(m: usize, space: u64, p: usize) -> usize {
    let per_core_rows = (m / p.max(1)) as u64 + 1;
    let per_core_keys = space.div_ceil(p as u64);
    per_core_rows.min(per_core_keys).min(MAX_PREALLOC_ENTRIES) as usize
}

/// Builds the potential table on a single thread (the speedup baseline and
/// the reference implementation for equivalence tests).
pub fn sequential_build(data: &Dataset) -> Result<BuiltTable, CoreError> {
    sequential_build_recorded(data, &NoopRecorder)
}

/// [`sequential_build`] with telemetry: stage timing, row/update counters,
/// and the probe-length histogram flow into core 0 of `rec`.
///
/// With [`NoopRecorder`] this monomorphizes to the uninstrumented loop —
/// every recorder call is an empty inlined body and `now()` never reads the
/// clock.
pub fn sequential_build_recorded<R: Recorder>(
    data: &Dataset,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    if data.num_samples() == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let codec = KeyCodec::new(data.schema());
    let mut table =
        CountTable::with_capacity(capacity_hint(data.num_samples(), codec.state_space(), 1));
    let mut stats = ThreadStats::default();
    let mut cr = rec.core(0);
    let t0 = cr.now();
    for row in data.rows() {
        let probes = table.increment_probed(codec.encode(row), 1);
        cr.probe_len(probes);
        stats.rows_encoded += 1;
        stats.local_updates += 1;
    }
    cr.stage_ns(Stage::Encode, cr.now().saturating_sub(t0));
    cr.add(Counter::RowsEncoded, stats.rows_encoded);
    cr.add(Counter::LocalUpdates, stats.local_updates);
    cr.add(Counter::TableGrows, table.grows());
    stats.probes = table.probes();
    Ok(BuiltTable {
        table: PotentialTable::from_parts(codec, KeyPartitioner::modulo(1), vec![table]),
        stats: BuildStats {
            per_thread: vec![stats],
        },
    })
}

/// Builds the potential table with `p` threads using the paper's wait-free
/// two-stage primitive and its `key % P` partitioner.
///
/// # Examples
///
/// ```
/// use wfbn_core::construct::{sequential_build, waitfree_build};
/// use wfbn_data::{Generator, Schema, UniformIndependent};
///
/// let data = UniformIndependent::new(Schema::uniform(10, 2).unwrap()).generate(5_000, 1);
/// let seq = sequential_build(&data).unwrap();
/// let par = waitfree_build(&data, 4).unwrap();
/// assert_eq!(seq.table.to_sorted_vec(), par.table.to_sorted_vec());
/// ```
pub fn waitfree_build(data: &Dataset, p: usize) -> Result<BuiltTable, CoreError> {
    waitfree_build_recorded(data, p, &NoopRecorder)
}

/// [`waitfree_build`] with telemetry flowing into `rec` (core `t` of the
/// recorder receives worker `t`'s events).
pub fn waitfree_build_recorded<R: Recorder>(
    data: &Dataset,
    p: usize,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    if p == 0 {
        return Err(CoreError::ZeroThreads);
    }
    waitfree_build_with_recorded(data, KeyPartitioner::modulo(p), rec)
}

/// Builds the potential table with an explicit key partitioner (the thread
/// count is the partitioner's partition count).
pub fn waitfree_build_with(
    data: &Dataset,
    partitioner: KeyPartitioner,
) -> Result<BuiltTable, CoreError> {
    waitfree_build_with_recorded(data, partitioner, &NoopRecorder)
}

/// [`waitfree_build_with`] with telemetry flowing into `rec`.
///
/// Worker `t` obtains the exclusive per-core handle `rec.core(t)` at spawn
/// and reports through it only, preserving the build's single-writer-per-word
/// discipline for the telemetry words. Per-stage wall time (encode/route,
/// barrier wait, drain), routing and batching counters (`blocks_flushed` /
/// `keys_coalesced` on the producing core), the probe-length histogram,
/// queue backlog high-water marks, segment links, and table growth events
/// are all attributed to the core that incurred them.
pub fn waitfree_build_with_recorded<R: Recorder>(
    data: &Dataset,
    partitioner: KeyPartitioner,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    build_with(data, partitioner, Schedule::TwoStage, rec)
}

/// The narrow (`u64`-key) build of `data` over `partitioner`'s partitions
/// under `schedule`.
pub(crate) fn build_with<R: Recorder>(
    data: &Dataset,
    partitioner: KeyPartitioner,
    schedule: Schedule,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    let p = partitioner.partitions();
    if p == 0 {
        return Err(CoreError::ZeroThreads);
    }
    let m = data.num_samples();
    if m == 0 {
        return Err(CoreError::EmptyDataset);
    }
    let codec = KeyCodec::new(data.schema());
    let job = Job {
        rows: data.row_range(0, m),
        n: codec.num_vars(),
        encode: |rows: &[u16], keys: &mut Vec<u64>| codec.encode_rows(rows, keys),
        owner: |key| partitioner.owner(key),
        hint: capacity_hint(m, codec.state_space(), p),
        schedule,
    };
    let (partitions, per_thread) = engine::run(&job, vec![None; p], rec)
        .into_iter()
        .map(|(slot, stats)| (slot.expect("every worker opens its partition"), stats))
        .unzip();
    Ok(BuiltTable {
        table: PotentialTable::from_parts(codec, partitioner, partitions),
        stats: BuildStats { per_thread },
    })
}

/// Builds the potential table on a single thread through the block-granular
/// hot paths: [`KeyCodec::encode_rows`] block encoding and
/// [`CountTable::increment_keys`] pre-hashed block application, with the
/// table pre-sized from `m` — the `P = 1` case of every builder.
///
/// Produces a table identical to [`sequential_build`]'s — the block paths
/// reorder no arithmetic, they only amortize per-element overhead — and is
/// the wall-clock P=1 fast path the benchmarks compare against.
pub fn sequential_build_batched(data: &Dataset) -> Result<BuiltTable, CoreError> {
    sequential_build_batched_recorded(data, &NoopRecorder)
}

/// [`sequential_build_batched`] with telemetry flowing into core 0 of `rec`.
pub fn sequential_build_batched_recorded<R: Recorder>(
    data: &Dataset,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    waitfree_build_recorded(data, 1, rec)
}

/// Alias of [`waitfree_build`], kept for callers of the batched name: every
/// build runs the block-granular transport.
pub fn waitfree_build_batched(data: &Dataset, p: usize) -> Result<BuiltTable, CoreError> {
    waitfree_build(data, p)
}

/// Alias of [`waitfree_build_recorded`].
pub fn waitfree_build_batched_recorded<R: Recorder>(
    data: &Dataset,
    p: usize,
    rec: &R,
) -> Result<BuiltTable, CoreError> {
    waitfree_build_recorded(data, p, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_data::{CorrelatedChain, Generator, Schema, UniformIndependent, ZipfIndependent};

    fn uniform_data(n: usize, r: u16, m: usize, seed: u64) -> Dataset {
        UniformIndependent::new(Schema::uniform(n, r).unwrap()).generate(m, seed)
    }

    #[test]
    fn sequential_counts_every_row() {
        let data = uniform_data(6, 2, 2000, 3);
        let built = sequential_build(&data).unwrap();
        assert_eq!(built.table.total_count(), 2000);
        assert_eq!(built.stats.total_rows(), 2000);
        assert_eq!(built.stats.total_forwarded(), 0);
    }

    #[test]
    fn parallel_equals_sequential_for_many_thread_counts() {
        let data = uniform_data(8, 3, 5000, 11);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        for p in [1usize, 2, 3, 4, 7, 8] {
            let built = waitfree_build(&data, p).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "mismatch at p={p}");
            assert_eq!(built.table.total_count(), 5000);
        }
    }

    #[test]
    fn equivalence_holds_for_all_partitioners() {
        let data = uniform_data(10, 2, 3000, 5);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let space = 1u64 << 10;
        for part in [
            KeyPartitioner::modulo(4),
            KeyPartitioner::range(4, space),
            KeyPartitioner::hashed(4),
        ] {
            let built = waitfree_build_with(&data, part).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "{}", part.name());
        }
    }

    #[test]
    fn equivalence_on_skewed_and_correlated_data() {
        let schema = Schema::new(vec![2, 3, 4, 2, 5]).unwrap();
        for data in [
            ZipfIndependent::new(schema.clone(), 1.5)
                .unwrap()
                .generate(4000, 2),
            CorrelatedChain::new(schema, 0.9).unwrap().generate(4000, 2),
        ] {
            let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
            for p in [2usize, 5] {
                assert_eq!(
                    waitfree_build(&data, p).unwrap().table.to_sorted_vec(),
                    reference
                );
            }
        }
    }

    #[test]
    fn forward_fraction_matches_theory_for_uniform_keys() {
        // With uniform keys and modulo(P), a key is foreign w.p. (P−1)/P.
        let data = uniform_data(12, 2, 20_000, 7);
        for p in [2usize, 4, 8] {
            let built = waitfree_build(&data, p).unwrap();
            let expected = (p as f64 - 1.0) / p as f64;
            let got = built.stats.forward_fraction();
            assert!(
                (got - expected).abs() < 0.02,
                "p={p}: got {got}, expected {expected}"
            );
            assert_eq!(built.stats.total_forwarded(), built.stats.total_drained());
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let data = uniform_data(4, 2, 3, 9);
        let built = waitfree_build(&data, 8).unwrap();
        assert_eq!(built.table.total_count(), 3);
        assert_eq!(built.stats.total_rows(), 3);
    }

    #[test]
    fn single_row_dataset() {
        let schema = Schema::uniform(5, 2).unwrap();
        let data = Dataset::from_rows(schema, &[&[1, 0, 1, 0, 1]]).unwrap();
        let built = waitfree_build(&data, 4).unwrap();
        assert_eq!(built.table.num_entries(), 1);
        let key = built.table.codec().encode(&[1, 0, 1, 0, 1]);
        assert_eq!(built.table.count_of(key), 1);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[]).unwrap();
        assert_eq!(
            sequential_build(&data).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            waitfree_build(&data, 4).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            waitfree_build(&data, 0).unwrap_err(),
            CoreError::ZeroThreads
        );
    }

    #[test]
    fn every_key_lands_in_its_owning_partition() {
        let data = uniform_data(9, 2, 5000, 13);
        let built = waitfree_build(&data, 4).unwrap();
        let part = *built.table.partitioner().unwrap();
        for (p_idx, t) in built.table.partitions().iter().enumerate() {
            for (key, _) in t.iter() {
                assert_eq!(part.owner(key), p_idx);
            }
        }
    }

    #[test]
    fn duplicate_heavy_input_counts_correctly() {
        // All rows identical: one key with count m, forwarded by all
        // non-owner threads.
        let schema = Schema::uniform(6, 2).unwrap();
        let rows: Vec<&[u16]> = (0..997).map(|_| &[1u16, 0, 1, 1, 0, 1] as &[u16]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let built = waitfree_build(&data, 4).unwrap();
        assert_eq!(built.table.num_entries(), 1);
        assert_eq!(built.table.total_count(), 997);
    }

    #[test]
    fn batched_builds_match_scalar_builds_exactly() {
        let data = uniform_data(8, 3, 5000, 11);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        assert_eq!(
            sequential_build_batched(&data).unwrap().table.to_sorted_vec(),
            reference
        );
        for p in [1usize, 2, 3, 4, 7, 8] {
            let built = waitfree_build_batched(&data, p).unwrap();
            assert_eq!(built.table.to_sorted_vec(), reference, "mismatch at p={p}");
            assert_eq!(built.stats.total_rows(), 5000);
            assert_eq!(built.stats.total_forwarded(), built.stats.total_drained());
        }
    }

    #[test]
    fn batched_build_on_skewed_data_coalesces_and_stays_exact() {
        let schema = Schema::new(vec![2, 3, 2]).unwrap(); // tiny state space: many runs
        let data = ZipfIndependent::new(schema, 1.5).unwrap().generate(8000, 4);
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let built = waitfree_build_batched(&data, 4).unwrap();
        assert_eq!(built.table.to_sorted_vec(), reference);
        let s = &built.stats;
        assert!(
            s.total_keys_coalesced() > 0,
            "skewed keys over a 12-state space must produce duplicate runs"
        );
        assert!(s.total_keys_coalesced() <= s.total_forwarded());
        assert!(s.total_blocks_flushed() > 0);
        assert!(
            s.total_blocks_flushed() <= s.total_forwarded() - s.total_keys_coalesced(),
            "every flush must carry at least one element"
        );
    }

    #[test]
    fn scalar_build_reports_no_batch_counters() {
        // The per-element reference build routes nothing, so it batches
        // nothing either.
        let data = uniform_data(8, 2, 1000, 5);
        let s = sequential_build(&data).unwrap().stats;
        assert_eq!(s.total_blocks_flushed(), 0);
        assert_eq!(s.total_keys_coalesced(), 0);
    }

    #[test]
    fn batched_edge_cases_match_scalar() {
        // Single row, more threads than rows, duplicate-heavy input.
        let schema = Schema::uniform(6, 2).unwrap();
        let rows: Vec<&[u16]> = (0..997).map(|_| &[1u16, 0, 1, 1, 0, 1] as &[u16]).collect();
        let dup = Dataset::from_rows(schema.clone(), &rows).unwrap();
        assert_eq!(
            waitfree_build_batched(&dup, 4).unwrap().table.to_sorted_vec(),
            waitfree_build(&dup, 4).unwrap().table.to_sorted_vec()
        );
        let single = Dataset::from_rows(schema, &[&[1, 0, 1, 0, 1, 0]]).unwrap();
        let built = waitfree_build_batched(&single, 8).unwrap();
        assert_eq!(built.table.total_count(), 1);
        let tiny = uniform_data(4, 2, 3, 9);
        assert_eq!(
            waitfree_build_batched(&tiny, 8).unwrap().table.to_sorted_vec(),
            sequential_build(&tiny).unwrap().table.to_sorted_vec()
        );
    }

    #[test]
    fn batched_empty_and_zero_thread_errors_match_scalar() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = Dataset::from_rows(schema, &[]).unwrap();
        assert_eq!(
            sequential_build_batched(&data).unwrap_err(),
            CoreError::EmptyDataset
        );
        assert_eq!(
            waitfree_build_batched(&data, 4).unwrap_err(),
            CoreError::EmptyDataset
        );
        let ok = uniform_data(3, 2, 10, 1);
        assert_eq!(
            waitfree_build_batched(&ok, 0).unwrap_err(),
            CoreError::ZeroThreads
        );
    }

    #[test]
    fn deterministic_table_regardless_of_scheduling() {
        // Run the same parallel build many times: the resulting multiset of
        // (key, count) pairs must be identical every time.
        let data = uniform_data(8, 2, 2000, 21);
        let reference = waitfree_build(&data, 4).unwrap().table.to_sorted_vec();
        for _ in 0..10 {
            assert_eq!(
                waitfree_build(&data, 4).unwrap().table.to_sorted_vec(),
                reference
            );
        }
    }
}
