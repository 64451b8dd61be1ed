//! The one two-stage worker body behind every builder: one-shot
//! ([`construct`](crate::construct), whose module docs walk through the
//! paper's Algorithms 1 and 2), barrier-free ([`pipeline`](crate::pipeline)),
//! streaming ([`stream`](crate::stream)) and 128-bit ([`wide`](crate::wide)).
//!
//! Worker `t` encodes its contiguous chunk of rows [`ENC_BLOCK`] at a time,
//! applies the keys it owns to its private table, and routes every foreign
//! key through its write-combining [`Combiner`], which ships `(key, count)`
//! blocks with `push_block` onto the SPSC queue addressed to the owner.
//! Stage 2 drains the `P − 1` queues addressed to `t` with `pop_block` and
//! applies each block with the pre-hashed `increment_block_probed`. The
//! [`Schedule`] orders the stages: the paper's single barrier, or none.
//! One partition skips queues, barrier and threads altogether.
//!
//! The body is generic over the partition table through [`Partition`]
//! (`u64` keys in [`CountTable`], `u128` keys in [`WideCountTable`]) and over
//! where a partition lives between builds through [`Slot`]: a fresh table
//! allocated by its owning worker, or a persistent `Arc` that the worker
//! diverges with `Arc::make_mut` (copy-on-publish on the owning core, in
//! parallel across partitions).

use crate::batch::Combiner;
use crate::count_table::CountTable;
use crate::stats::ThreadStats;
use crate::wide::WideCountTable;
use std::sync::Arc;
use wfbn_concurrent::{channel, row_chunks, Consumer, Producer, SpinBarrier};
use wfbn_obs::{CoreRecorder, Counter, Recorder, Stage};

/// Rows per encode block: 256 rows × 30 binary variables ≈ 15 KiB of input
/// and 2 KiB of keys per block — L1-resident, while amortizing the
/// per-block loop overhead to noise. The pipelined schedule also drains its
/// queues once per block.
pub(crate) const ENC_BLOCK: usize = 256;

/// How stage 2 is ordered against stage 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// The paper's two-stage primitive: one barrier between the stages.
    TwoStage,
    /// No barrier: drain whatever has arrived after every encode block, then
    /// wait for each peer to close its queue (the paper's future work).
    Pipelined,
}

/// The partition-table operations the worker body uses.
pub(crate) trait Partition: Send {
    /// Key type (`u64` narrow, `u128` wide).
    type Key: Copy + PartialEq + Send;
    fn with_capacity(entries: usize) -> Self;
    fn increment_probed(&mut self, key: Self::Key, by: u64) -> u64;
    fn increment_keys_probed(&mut self, keys: &[Self::Key], probe: impl FnMut(u64));
    fn increment_block_probed(&mut self, block: &[(Self::Key, u64)], probe: impl FnMut(u64));
    fn grows(&self) -> u64;
    fn probes(&self) -> u64;
}

impl Partition for CountTable {
    type Key = u64;
    fn with_capacity(entries: usize) -> Self {
        CountTable::with_capacity(entries)
    }
    fn increment_probed(&mut self, key: u64, by: u64) -> u64 {
        CountTable::increment_probed(self, key, by)
    }
    fn increment_keys_probed(&mut self, keys: &[u64], probe: impl FnMut(u64)) {
        CountTable::increment_keys_probed(self, keys, probe);
    }
    fn increment_block_probed(&mut self, block: &[(u64, u64)], probe: impl FnMut(u64)) {
        CountTable::increment_block_probed(self, block, probe);
    }
    fn grows(&self) -> u64 {
        CountTable::grows(self)
    }
    fn probes(&self) -> u64 {
        CountTable::probes(self)
    }
}

impl Partition for WideCountTable {
    type Key = u128;
    fn with_capacity(entries: usize) -> Self {
        WideCountTable::with_capacity(entries)
    }
    fn increment_probed(&mut self, key: u128, by: u64) -> u64 {
        WideCountTable::increment_probed(self, key, by)
    }
    fn increment_keys_probed(&mut self, keys: &[u128], mut probe: impl FnMut(u64)) {
        for &key in keys {
            probe(WideCountTable::increment_probed(self, key, 1));
        }
    }
    fn increment_block_probed(&mut self, block: &[(u128, u64)], probe: impl FnMut(u64)) {
        WideCountTable::increment_block_probed(self, block, probe);
    }
    fn grows(&self) -> u64 {
        WideCountTable::grows(self)
    }
    fn probes(&self) -> u64 {
        WideCountTable::probes(self)
    }
}

/// Where a worker's partition lives between builds.
pub(crate) trait Slot: Send {
    type Table: Partition;
    /// The partition, ready for this build's writes; called on the worker
    /// that owns it.
    fn open(&mut self, hint: usize) -> &mut Self::Table;
}

/// A one-shot build: the owning worker allocates (and first-touches) its
/// table.
impl<T: Partition> Slot for Option<T> {
    type Table = T;
    fn open(&mut self, hint: usize) -> &mut T {
        self.get_or_insert_with(|| T::with_capacity(hint))
    }
}

/// A persistent (streaming) partition: shared with published snapshots, it
/// is copied by its owning worker before the first write of a build.
impl<T: Partition + Clone + Sync> Slot for Arc<T> {
    type Table = T;
    fn open(&mut self, _hint: usize) -> &mut T {
        Arc::make_mut(self)
    }
}

type KeyOf<S> = <<S as Slot>::Table as Partition>::Key;

/// What one build applies: row-major input, how to encode and route it, and
/// how to synchronize the stages.
pub(crate) struct Job<'a, E, O> {
    /// Whole rows, row-major, `n` states each.
    pub rows: &'a [u16],
    pub n: usize,
    /// Encodes a block of whole rows into `keys` (cleared first).
    pub encode: E,
    /// The partition owning a key.
    pub owner: O,
    /// Capacity hint for tables the build allocates.
    pub hint: usize,
    pub schedule: Schedule,
}

/// One worker's queue endpoints: producers toward every other worker and
/// consumers of the queues addressed to it (`None` at its own index).
struct Endpoints<K> {
    producers: Vec<Option<Producer<(K, u64)>>>,
    consumers: Vec<Option<Consumer<(K, u64)>>>,
}

/// The queue matrix `Q` of Algorithm 1: one SPSC channel per ordered pair
/// `(from, to)`, `from ≠ to`, dealt out per worker.
fn queue_matrix<K>(p: usize) -> Vec<Endpoints<K>> {
    let mut endpoints: Vec<Endpoints<K>> = (0..p)
        .map(|_| Endpoints {
            producers: (0..p).map(|_| None).collect(),
            consumers: (0..p).map(|_| None).collect(),
        })
        .collect();
    for from in 0..p {
        for to in (0..p).filter(|&to| to != from) {
            let (tx, rx) = channel();
            endpoints[from].producers[to] = Some(tx);
            endpoints[to].consumers[from] = Some(rx);
        }
    }
    endpoints
}

/// Runs one build over `slots.len()` partitions and hands every slot back
/// with its worker's counters for this build (`probes` is the table's
/// cumulative count).
///
/// Worker `t` reports through `rec.core(t)` only: per-stage wall time
/// (encode/route, barrier wait, drain), routing and batching counters, the
/// probe-length histogram, queue backlog high-water marks, segment links and
/// this build's table growth. Under the `ownership-audit` feature every
/// table and queue write of the workers, including the copy-on-publish copy
/// of a shared partition, goes through the single-writer auditor.
pub(crate) fn run<S, E, O, R>(job: &Job<'_, E, O>, slots: Vec<S>, rec: &R) -> Vec<(S, ThreadStats)>
where
    S: Slot,
    E: Fn(&[u16], &mut Vec<KeyOf<S>>) + Sync,
    O: Fn(KeyOf<S>) -> usize + Sync,
    R: Recorder,
{
    let p = slots.len();
    if p == 1 {
        // Degenerate case: no queues, no barrier, no threads.
        return slots
            .into_iter()
            .map(|mut slot| {
                let stats = single(job, slot.open(job.hint), rec);
                (slot, stats)
            })
            .collect();
    }
    let chunks = row_chunks(job.rows.len() / job.n, p);
    let barrier = SpinBarrier::new(p);
    #[cfg(feature = "ownership-audit")]
    let build_audit = wfbn_concurrent::audit::BuildAudit::new();
    std::thread::scope(|s| {
        let barrier = &barrier;
        #[cfg(feature = "ownership-audit")]
        let build_audit = &build_audit;
        let handles: Vec<_> = queue_matrix(p)
            .into_iter()
            .zip(slots)
            .enumerate()
            .map(|(t, (ep, mut slot))| {
                let rows = &job.rows[chunks[t].start * job.n..chunks[t].end * job.n];
                std::thread::Builder::new()
                    .name(format!("wfbn-build-{t}"))
                    .spawn_scoped(s, move || {
                        // Core `t` reports every table/queue write to the
                        // shadow map; any word two cores write in one stage
                        // aborts the build with the culprits named.
                        #[cfg(feature = "ownership-audit")]
                        let _audit = wfbn_concurrent::audit::enter(build_audit, t);
                        let stats = worker(job, t, ep, rows, barrier, slot.open(job.hint), rec);
                        (slot, stats)
                    })
                    .expect("failed to spawn build thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("build thread panicked"))
            .collect()
    })
}

/// The single-partition build: whole encoded blocks applied with the
/// pre-hashed `increment_keys_probed`, all charged to core 0's encode stage.
fn single<T, E, O, R>(job: &Job<'_, E, O>, table: &mut T, rec: &R) -> ThreadStats
where
    T: Partition,
    E: Fn(&[u16], &mut Vec<T::Key>),
    R: Recorder,
{
    let mut stats = ThreadStats::default();
    let mut cr = rec.core(0);
    let grows_before = table.grows();
    let mut keys = Vec::with_capacity(ENC_BLOCK);
    let t0 = cr.now();
    for rows in job.rows.chunks(ENC_BLOCK * job.n) {
        (job.encode)(rows, &mut keys);
        table.increment_keys_probed(&keys, |probes| cr.probe_len(probes));
        stats.rows_encoded += keys.len() as u64;
    }
    stats.local_updates = stats.rows_encoded;
    cr.stage_ns(Stage::Encode, cr.now().saturating_sub(t0));
    cr.add(Counter::RowsEncoded, stats.rows_encoded);
    cr.add(Counter::LocalUpdates, stats.local_updates);
    cr.add(Counter::TableGrows, table.grows() - grows_before);
    stats.probes = table.probes();
    stats
}

/// Worker `t`'s whole build: stage 1 over its chunk `rows`, the schedule's
/// synchronization, stage 2 into `table`.
fn worker<T, E, O, R>(
    job: &Job<'_, E, O>,
    t: usize,
    ep: Endpoints<T::Key>,
    rows: &[u16],
    barrier: &SpinBarrier,
    table: &mut T,
    rec: &R,
) -> ThreadStats
where
    T: Partition,
    E: Fn(&[u16], &mut Vec<T::Key>),
    O: Fn(T::Key) -> usize,
    R: Recorder,
{
    let Endpoints {
        mut producers,
        consumers,
    } = ep;
    let mut consumers: Vec<_> = consumers.into_iter().flatten().collect();
    let mut stats = ThreadStats::default();
    let mut cr = rec.core(t);
    let grows_before = table.grows();
    let mut combiner = Combiner::new(producers.len());
    let mut keys = Vec::with_capacity(ENC_BLOCK);
    let mut block = Vec::new();
    let owns = |key| (job.owner)(key) == t;
    let t0 = cr.now();

    // ---- Stage 1 (Algorithm 1) ----
    for row_block in rows.chunks(ENC_BLOCK * job.n) {
        (job.encode)(row_block, &mut keys);
        stats.rows_encoded += keys.len() as u64;
        for &key in &keys {
            let owner = (job.owner)(key);
            if owner == t {
                cr.probe_len(table.increment_probed(key, 1));
                stats.local_updates += 1;
            } else {
                combiner.route(owner, key, &mut producers);
                stats.forwarded += 1;
            }
        }
        if job.schedule == Schedule::Pipelined {
            for consumer in &mut consumers {
                drain::<T, R>(consumer, &mut block, table, &mut stats, &mut cr, owns);
            }
        }
    }
    // Ship the router's residue, then close the outgoing queues: nothing
    // may follow a close, and a pipelined peer stops waiting on seeing it.
    combiner.flush_all(&mut producers);
    stats.blocks_flushed = combiner.blocks_flushed();
    stats.keys_coalesced = combiner.keys_coalesced();
    let segments_linked: u64 = producers
        .iter()
        .flatten()
        .map(Producer::segments_linked)
        .sum();
    drop(producers);
    let mut t1 = cr.now();
    cr.stage_ns(Stage::Encode, t1.saturating_sub(t0));

    if job.schedule == Schedule::TwoStage {
        // ---- The single synchronization step ----
        barrier.wait();
        #[cfg(feature = "ownership-audit")]
        wfbn_concurrent::audit::set_stage(2);
        let t2 = cr.now();
        cr.stage_ns(Stage::Barrier, t2.saturating_sub(t1));
        t1 = t2;
    }

    // ---- Stage 2 (Algorithm 2) ----
    // wf-bound: peers-close(P) — every peer closes its queues when its
    // finite stage 1 ends (after the barrier all already have, so one sweep
    // suffices), so each of the P-1 consumers is retained finitely often.
    while !consumers.is_empty() {
        consumers.retain_mut(|consumer| {
            // Observe `closed` *before* the final drain, so a peer that
            // flushed then closed cannot slip a block past us.
            let closed = consumer.is_closed();
            drain::<T, R>(consumer, &mut block, table, &mut stats, &mut cr, owns);
            !closed
        });
        if !consumers.is_empty() {
            std::hint::spin_loop();
        }
    }
    cr.stage_ns(Stage::Drain, cr.now().saturating_sub(t1));
    cr.add(Counter::RowsEncoded, stats.rows_encoded);
    cr.add(Counter::LocalUpdates, stats.local_updates);
    cr.add(Counter::Forwarded, stats.forwarded);
    cr.add(Counter::Drained, stats.drained);
    cr.add(Counter::SegmentsLinked, segments_linked);
    cr.add(Counter::TableGrows, table.grows() - grows_before);
    cr.add(Counter::BlocksFlushed, stats.blocks_flushed);
    cr.add(Counter::KeysCoalesced, stats.keys_coalesced);
    stats.probes = table.probes();
    stats
}

/// Applies every block visible on `consumer` to the owner's `table`; `owns`
/// tells the owner's keys (checked in debug builds).
fn drain<T: Partition, R: Recorder>(
    consumer: &mut Consumer<(T::Key, u64)>,
    block: &mut Vec<(T::Key, u64)>,
    table: &mut T,
    stats: &mut ThreadStats,
    cr: &mut R::Core<'_>,
    owns: impl Fn(T::Key) -> bool,
) {
    if R::ENABLED {
        cr.queue_depth(consumer.visible_backlog());
    }
    // wf-bound: backlog(visible) — each round takes a committed chunk and
    // exits on the first empty poll; chunks are bounded by the blocks the
    // peer flushes.
    loop {
        block.clear();
        if consumer.pop_block(block) == 0 {
            break;
        }
        debug_assert!(block.iter().all(|&(key, _)| owns(key)));
        table.increment_block_probed(block, |probes| cr.probe_len(probes));
        stats.drained += block.iter().map(|&(_, count)| count).sum::<u64>();
    }
}

#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::*;
    use wfbn_obs::NoopRecorder;

    /// Model-checks the stage-1 → barrier → stage-2 handoff on the block
    /// transport.
    ///
    /// [`run`] spawns scoped std threads, which the model checker cannot
    /// schedule, so this test hands the real [`worker`] body — encode,
    /// route through the [`Combiner`], `push_block`, close, cross the real
    /// [`SpinBarrier`], `pop_block` into the real [`CountTable`] — to
    /// loom-owned threads over the real [`queue_matrix`]. Core 0's input
    /// holds a duplicate run (coalesced into one `(key, 2)` element); core
    /// 1 forwards three keys, crossing a loom-sized segment seam. Every
    /// schedule within the preemption bound must yield the same counts.
    #[test]
    fn two_stage_handoff_produces_exact_counts_under_every_schedule() {
        loom::model(|| {
            const P: usize = 2;
            // One-variable rows, so a row's state is its key; ownership is
            // key % 2.
            let inputs: [Vec<u16>; P] = [vec![0, 1, 1, 2], vec![3, 4, 6, 8]];
            let barrier = Arc::new(SpinBarrier::new(P));
            let handles: Vec<_> = queue_matrix::<u64>(P)
                .into_iter()
                .zip(inputs)
                .enumerate()
                .map(|(t, (ep, rows))| {
                    let barrier = Arc::clone(&barrier);
                    loom::thread::spawn(move || {
                        let job = Job {
                            rows: &rows,
                            n: 1,
                            encode: |rows: &[u16], keys: &mut Vec<u64>| {
                                keys.clear();
                                keys.extend(rows.iter().map(|&s| u64::from(s)));
                            },
                            owner: |key: u64| (key % P as u64) as usize,
                            hint: 4,
                            schedule: Schedule::TwoStage,
                        };
                        let mut table = CountTable::with_capacity(4);
                        worker(&job, t, ep, &rows, &barrier, &mut table, &NoopRecorder);
                        for (key, _) in table.iter() {
                            assert_eq!((key % P as u64) as usize, t, "drained a key we do not own");
                        }
                        table
                    })
                })
                .collect();
            let mut merged: Vec<(u64, u64)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap().iter().collect::<Vec<_>>())
                .collect();
            merged.sort_unstable();
            assert_eq!(
                merged,
                vec![(0, 1), (1, 2), (2, 1), (3, 1), (4, 1), (6, 1), (8, 1)],
                "handoff lost, duplicated, or misrouted a key"
            );
        });
        assert!(
            loom::explored_interleavings() >= 2,
            "model explored only {} schedule(s)",
            loom::explored_interleavings()
        );
    }
}
