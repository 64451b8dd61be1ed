//! The offline paths: the three table builders (`wfbn build`), build plus
//! all-pairs MI (`wfbn mi`), and the Cheng learner (`wfbn learn`). Each
//! function runs one unit of work; the caller interleaves units.

use crate::report::Ledger;
use crate::stats::{imbalance, median};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use wfbn_bn::cheng::ChengLearner;
use wfbn_bn::pdag::PDag;
use wfbn_core::obs::{CoreReport, Counter, Stage};
use wfbn_core::{
    all_pairs_mi, all_pairs_mi_recorded, sequential_build, sequential_build_batched,
    waitfree_build, waitfree_build_batched, waitfree_build_batched_recorded,
    waitfree_build_recorded, BuiltTable, CoreError, CoreMetrics, MiMatrix,
};
use wfbn_data::Dataset;
use wfbn_pram::{simulate_sequential_build_batched, simulate_waitfree_build_batched, CostModel};

/// Every parallel call runs at this many threads (= the host's cores).
pub const P: usize = 2;

/// Largest MI difference from the single-thread reference that passes.
const MI_TOLERANCE: f64 = 1e-12;

fn learner() -> ChengLearner {
    ChengLearner {
        threads: P,
        ..Default::default()
    }
}

/// What every build must equal: the scalar sequential build's entries.
pub fn build_reference(data: &Dataset) -> Result<Vec<(u64, u64)>, CoreError> {
    Ok(sequential_build(data)?.table.to_sorted_vec())
}

/// One learn input with its references: the single-thread all-pairs MI,
/// and the CPDAG its first learn produced (every later one must match).
pub struct LearnSet<'a> {
    pub data: &'a Dataset,
    mi_ref: MiMatrix,
    cpdag: Option<PDag>,
    /// CI tests of the structure learned from this set.
    pub ci_tests: usize,
}

impl<'a> LearnSet<'a> {
    pub fn new(data: &'a Dataset) -> Result<Self, CoreError> {
        Ok(LearnSet {
            data,
            mi_ref: all_pairs_mi(&sequential_build(data)?.table, 1),
            cpdag: None,
            ci_tests: 0,
        })
    }

    fn check_mi(&self, mi: &MiMatrix) -> Option<String> {
        let diff = mi.max_abs_diff(&self.mi_ref);
        (diff > MI_TOLERANCE).then(|| format!("all-pairs MI off the reference by {diff}"))
    }

    fn check_cpdag(&mut self, cpdag: PDag) -> Option<String> {
        match &self.cpdag {
            None => {
                self.cpdag = Some(cpdag);
                None
            }
            Some(first) => (*first != cpdag).then(|| "learned CPDAG changed between reps".into()),
        }
    }
}

fn check_build(
    ledger: &mut Ledger,
    name: &str,
    built: Result<BuiltTable, CoreError>,
    reference: &[(u64, u64)],
) -> Option<BuiltTable> {
    match built {
        Err(e) => {
            ledger.op(Some(format!("{name}: {e}")));
            None
        }
        Ok(b) => {
            let same = b.table.to_sorted_vec() == reference;
            ledger.op((!same).then(|| format!("{name} differs from the sequential reference")));
            Some(b)
        }
    }
}

/// Rows/s of each builder, one sample per build.
#[derive(Debug, Default)]
pub struct BuildSamples {
    pub waitfree: Vec<f64>,
    pub batched: Vec<f64>,
    pub sequential: Vec<f64>,
    rounds: usize,
}

type Builder = fn(&Dataset) -> Result<BuiltTable, CoreError>;

/// One round of the three builders, rotating which goes first so drift in
/// the host spreads evenly over them.
pub fn build_round(
    data: &Dataset,
    reference: &[(u64, u64)],
    out: &mut BuildSamples,
    ledger: &mut Ledger,
) {
    let builders: [(&str, Builder); 3] = [
        ("waitfree_build", |d| waitfree_build(d, P)),
        ("waitfree_build_batched", |d| waitfree_build_batched(d, P)),
        ("sequential_build_batched", sequential_build_batched),
    ];
    let m = data.num_samples() as f64;
    for k in 0..3 {
        let i = (out.rounds + k) % 3;
        let (name, build) = builders[i];
        let t = Instant::now();
        let built = black_box(build(black_box(data)));
        let rate = m / t.elapsed().as_secs_f64();
        if check_build(ledger, name, built, reference).is_some() {
            [&mut out.waitfree, &mut out.batched, &mut out.sequential][i].push(rate);
        }
    }
    out.rounds += 1;
}

/// Timings kept apart per learn sample. The samples' CI-test counts differ
/// by about a third, and how many reps fit in a run varies, so a pooled
/// median would move with which samples got the extra reps.
#[derive(Debug, Default)]
pub struct PerSet(Vec<Vec<f64>>);

impl PerSet {
    pub fn push(&mut self, set: usize, v: f64) {
        if self.0.len() <= set {
            self.0.resize(set + 1, Vec::new());
        }
        self.0[set].push(v);
    }

    /// Median over the samples of each sample's median, so one rep caught
    /// in a host stall does not set it; `NaN` if some sample has no timing.
    pub fn summary(&self) -> f64 {
        let per_set: Vec<f64> = self.0.iter().map(|v| median(v)).collect();
        if per_set.iter().any(|v| v.is_nan()) {
            return f64::NAN;
        }
        median(&per_set)
    }

    /// Timings over every sample.
    pub fn count(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// Seconds of the `wfbn mi` path (`init_s`) and of `ChengLearner::learn`.
#[derive(Debug, Default)]
pub struct LearnSamples {
    pub init_s: PerSet,
    pub learn_s: PerSet,
}

/// One `wfbn mi` op, build then all-pairs MI; returns its seconds if it
/// passed its check.
pub fn init_once(set: &LearnSet, ledger: &mut Ledger) -> Option<f64> {
    let t = Instant::now();
    let mi = waitfree_build(set.data, P).map(|b| all_pairs_mi(&b.table, P));
    let secs = t.elapsed().as_secs_f64();
    let problem = match &mi {
        Err(e) => Some(format!("init build: {e}")),
        Ok(mi) => set.check_mi(mi),
    };
    ledger.op(problem).then_some(secs)
}

/// One init then one learn on `set`, learn sample number `k`.
pub fn learn_rep(k: usize, set: &mut LearnSet, out: &mut LearnSamples, ledger: &mut Ledger) {
    if let Some(s) = init_once(set, ledger) {
        out.init_s.push(k, s);
    }
    let t = Instant::now();
    let learned = learner().learn(set.data);
    let secs = t.elapsed().as_secs_f64();
    match learned {
        Err(e) => {
            ledger.op(Some(format!("learn: {e:?}")));
        }
        Ok(r) => {
            set.ci_tests = r.stats.ci_tests;
            if ledger.op(set.check_cpdag(r.cpdag)) {
                out.learn_s.push(k, secs);
            }
        }
    }
}

/// Per-build figures of the construct layer, in [`CONSTRUCT_COLUMNS`] order.
#[derive(Debug, Default)]
pub struct ConstructLayer {
    pub rows: Vec<[f64; 10]>,
    pub wall_ms: Vec<f64>,
}

pub const CONSTRUCT_COLUMNS: [(&str, &str); 10] = [
    ("construct.stage1_ms", "ms"),
    ("construct.barrier_ms", "ms"),
    ("construct.stage2_ms", "ms"),
    ("construct.residual_ms", "ms"),
    ("construct.forwarded_frac", "ratio"),
    ("construct.coalesced_frac", "ratio"),
    ("construct.segments_linked", "count"),
    ("construct.probes_per_key", "count"),
    ("construct.table_grows", "count"),
    ("construct.partition_imbalance", "ratio"),
];

impl ConstructLayer {
    /// Median of each column.
    pub fn medians(&self) -> [f64; 10] {
        std::array::from_fn(|c| median(&self.rows.iter().map(|r| r[c]).collect::<Vec<_>>()))
    }
}

/// One traced `waitfree_build_batched` with per-core stage timers.
/// Conservation: every row encoded once, and no core's stage sum exceeds
/// the call's wall time.
pub fn construct_traced(
    data: &Dataset,
    reference: &[(u64, u64)],
    tr: &mut Tracer,
    out: &mut ConstructLayer,
    ledger: &mut Ledger,
) {
    let m = data.num_samples() as u64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let rec = CoreMetrics::new(P);
    let (built, wall) = tr.span("construct", || {
        waitfree_build_batched_recorded(data, P, &rec)
    });
    let Some(b) = check_build(ledger, "waitfree_build_batched_recorded", built, reference) else {
        return;
    };
    let r = rec.snapshot();
    let core_sum =
        |c: &CoreReport| c.stage(Stage::Encode) + c.stage(Stage::Barrier) + c.stage(Stage::Drain);
    let longest = r.cores.iter().map(core_sum).max().unwrap_or(0);
    let rows = r.total(Counter::RowsEncoded);
    ledger.check(rows == m, || {
        format!("construct: rows_encoded {rows} != m {m}")
    });
    ledger.check(longest <= wall, || {
        format!("construct: core stage sum {longest} ns exceeds the call's {wall} ns")
    });
    let s = &b.stats;
    let probes: u64 = s.per_thread.iter().map(|t| t.probes).sum();
    let sizes: Vec<f64> = b
        .table
        .partition_sizes()
        .iter()
        .map(|&n| n as f64)
        .collect();
    out.rows.push([
        ms(r.stage_max_ns(Stage::Encode)),
        ms(r.stage_max_ns(Stage::Barrier)),
        ms(r.stage_max_ns(Stage::Drain)),
        ms(wall.saturating_sub(longest)),
        s.forward_fraction(),
        s.total_keys_coalesced() as f64 / s.total_forwarded().max(1) as f64,
        r.total(Counter::SegmentsLinked) as f64,
        probes as f64 / m as f64,
        r.total(Counter::TableGrows) as f64,
        imbalance(&sizes),
    ]);
    out.wall_ms.push(ms(wall));
}

/// The PRAM model's P=2 speedup of the batched build on `data`.
pub fn pram_speedup(data: &Dataset) -> f64 {
    let model = CostModel::default();
    let (seq, _) = simulate_sequential_build_batched(data, &model);
    let (par, _) = simulate_waitfree_build_batched(data, P, &model);
    seq.elapsed_cycles / par.elapsed_cycles
}

/// Per-rep figures of the MI and learner layers.
#[derive(Debug, Default)]
pub struct LearnLayer {
    pub init_build_ms: Vec<f64>,
    pub init_ms: PerSet,
    pub mi_ms: Vec<f64>,
    pub entries_scanned: Vec<f64>,
    pub ns_per_entry_pair: Vec<f64>,
    pub core_skew: Vec<f64>,
    pub learn_ms: PerSet,
    pub post_draft_ms: Vec<f64>,
    pub ci_tests: Vec<f64>,
    pub draft_edges: Vec<f64>,
}

/// One traced init and learn on `set`, learn sample number `k`. `learn` is
/// split into the build and `learn_from_table` it consists of; the
/// post-draft time is the `learn_from_table` span minus this rep's
/// all-pairs MI span.
pub fn learn_traced(
    k: usize,
    set: &mut LearnSet,
    tr: &mut Tracer,
    out: &mut LearnLayer,
    ledger: &mut Ledger,
) {
    let data = set.data;
    let n = data.num_vars() as u64;
    let ms = |ns: u64| ns as f64 / 1e6;
    tr.enter("init");
    let brec = CoreMetrics::new(P);
    let (built, build_ns) = tr.span("construct", || waitfree_build_recorded(data, P, &brec));
    let table = match built {
        Ok(b) => b.table,
        Err(e) => {
            tr.exit();
            ledger.op(Some(format!("init build: {e}")));
            return;
        }
    };
    let mrec = CoreMetrics::new(P);
    let (mi, mi_ns) = tr.span("allpairs", || all_pairs_mi_recorded(&table, P, &mrec));
    let init_ns = tr.exit();
    ledger.op(set.check_mi(&mi));
    let r = mrec.snapshot();
    let pairs = r.total(Counter::PairsScanned);
    ledger.check(pairs == n * (n - 1) / 2, || {
        format!("allpairs: pairs_scanned {pairs} != n(n-1)/2 for n={n}")
    });
    let per_core: Vec<f64> = r
        .cores
        .iter()
        .map(|c| c.stage(Stage::Marginal) as f64)
        .collect();
    let slowest = per_core.iter().copied().fold(0.0, f64::max);
    ledger.check(slowest <= mi_ns as f64, || {
        format!("allpairs: core marginal {slowest} ns exceeds the call's {mi_ns} ns")
    });
    let entries = r.total(Counter::EntriesScanned) as f64;
    out.entries_scanned.push(entries);
    out.ns_per_entry_pair
        .push(per_core.iter().sum::<f64>() / entries);
    out.core_skew
        .push(slowest / per_core.iter().copied().fold(f64::MAX, f64::min));
    out.init_build_ms.push(ms(build_ns));
    out.mi_ms.push(ms(mi_ns));
    out.init_ms.push(k, ms(init_ns));

    tr.enter("learn");
    let (table, _) = tr.span("construct", || waitfree_build(data, P));
    let learned = match table {
        Ok(b) => tr.span("cheng", || learner().learn_from_table(&b.table)),
        Err(e) => (Err(e.into()), 0),
    };
    let learn_ns = tr.exit();
    match learned {
        (Err(e), _) => {
            ledger.op(Some(format!("traced learn: {e:?}")));
        }
        (Ok(r), cheng_ns) => {
            out.ci_tests.push(r.stats.ci_tests as f64);
            out.draft_edges.push(r.stats.draft_edges as f64);
            if ledger.op(set.check_cpdag(r.cpdag)) {
                out.learn_ms.push(k, ms(learn_ns));
                out.post_draft_ms.push(ms(cheng_ns.saturating_sub(mi_ns)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_set_is_the_median_of_each_sets_median() {
        let mut s = PerSet::default();
        for (set, v) in [
            (0, 1.0),
            (0, 3.0),
            (1, 10.0),
            (2, 4.0),
            (2, 5.0),
            (2, 100.0),
        ] {
            s.push(set, v);
        }
        assert_eq!(s.summary(), 5.0);
        assert_eq!(s.count(), 6);
        s.push(4, 1.0);
        assert!(s.summary().is_nan(), "set 3 has no timing");
    }
}
