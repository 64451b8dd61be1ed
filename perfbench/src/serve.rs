//! The serve path (`wfbn serve` defaults: one writer thread absorbing at
//! P=1, one reader) driven by a closed-loop client, plus direct
//! `StreamingBuilder` calls for the stream layer.

use crate::report::Ledger;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{slice, SplitMix, BATCH_ROWS};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wfbn_bn::network::BayesNet;
use wfbn_core::obs::{Counter, Recorder, Stage};
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::{sequential_build, CoreError, CoreMetrics};
use wfbn_data::Dataset;
use wfbn_serve::engine::{Engine, EngineConfig};
use wfbn_serve::reader::QueryReader;
use wfbn_serve::ServeError;

/// Dense cells a wide scope may reach: about the entry count of the
/// preloaded tables, so a wide marginal costs about as much as its scan.
const WIDE_CELLS: u64 = 1 << 16;
/// Fresh queries per round; one more repeats the first (a cache hit).
const FRESH_QUERIES: usize = 4;
/// Every `WIDE_EVERY`-th fresh query is wide (10%).
const WIDE_EVERY: u64 = 10;

/// Seeded generator of each round's query scopes.
pub struct QueryPlan {
    rng: SplitMix,
    families: Vec<Vec<usize>>,
    arities: Vec<u64>,
    fresh: u64,
}

impl QueryPlan {
    pub fn new(net: &BayesNet, seed: u64) -> Self {
        let dag = net.dag();
        let families = (0..dag.num_nodes())
            .filter(|&v| !dag.parents(v).is_empty())
            .map(|v| {
                let mut s = dag.parents(v).to_vec();
                s.push(v);
                s.sort_unstable();
                s
            })
            .collect();
        let schema = net.schema();
        let arities = (0..schema.num_vars())
            .map(|v| u64::from(schema.arity(v)))
            .collect();
        QueryPlan {
            rng: SplitMix(seed),
            families,
            arities,
            fresh: 0,
        }
    }

    /// A narrow scope: a DAG node with its parents, or a random pair.
    fn narrow(&mut self) -> Vec<usize> {
        if self.rng.chance(0.5) {
            return self.families[self.rng.below(self.families.len())].clone();
        }
        let n = self.arities.len();
        let i = self.rng.below(n);
        let j = (i + 1 + self.rng.below(n - 1)) % n;
        vec![i.min(j), i.max(j)]
    }

    /// A wide scope: random variables while the dense cells stay within
    /// [`WIDE_CELLS`] (16 variables on binary data).
    fn wide(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.arities.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.below(i + 1));
        }
        let mut cells = 1;
        let mut scope: Vec<usize> = Vec::new();
        for v in order {
            if cells * self.arities[v] <= WIDE_CELLS {
                cells *= self.arities[v];
                scope.push(v);
            }
        }
        scope.sort_unstable();
        scope
    }

    /// One round's queries as `(scope, wide)`.
    pub fn round(&mut self) -> Vec<(Vec<usize>, bool)> {
        let mut qs: Vec<(Vec<usize>, bool)> = (0..FRESH_QUERIES)
            .map(|_| {
                self.fresh += 1;
                let wide = self.fresh.is_multiple_of(WIDE_EVERY);
                (if wide { self.wide() } else { self.narrow() }, wide)
            })
            .collect();
        qs.push(qs[0].clone());
        qs
    }
}

/// A traced session's span recorder and its reader of the writer's
/// cumulative absorb nanoseconds.
pub type Tracing<'t, R> = (&'t mut Tracer, &'t dyn Fn(&R) -> u64);

/// A running engine with its one reader, past its preload epoch.
pub struct Live<R: Recorder> {
    pub engine: Engine<R>,
    pub reader: QueryReader<R>,
    /// Rows visible at the newest epoch.
    pub rows: u64,
    /// Batches ingested after the preload.
    pub rounds: u64,
}

/// Starts an engine with the `wfbn serve` defaults and waits until the
/// preload batch is visible as epoch 1.
pub fn start<R: Recorder + Send + Sync + 'static>(
    preload: &Dataset,
    rec: Arc<R>,
) -> Result<Live<R>, ServeError> {
    let (mut engine, mut readers) =
        Engine::start_recorded(preload.schema(), &EngineConfig::default(), rec)?;
    engine.submit(preload.clone())?;
    engine.sync()?;
    Ok(Live {
        engine,
        reader: readers.pop().expect("the default config has one reader"),
        rows: preload.num_samples() as u64,
        rounds: 0,
    })
}

/// Samples of the serve rounds. The `submit`..`pin` columns are filled only
/// on traced runs.
#[derive(Debug, Default)]
pub struct RoundLog {
    pub visible_ms: Vec<f64>,
    pub narrow_us: Vec<f64>,
    pub wide_us: Vec<f64>,
    pub queries: u64,
    pub submit_us: Vec<f64>,
    pub sync_us: Vec<f64>,
    pub pin_us: Vec<f64>,
    pub absorb_us: Vec<f64>,
    pub residual_us: Vec<f64>,
}

/// Writer-side absorb nanoseconds recorded so far (core 0's encode stage).
pub fn absorbed_ns(rec: &CoreMetrics) -> u64 {
    rec.snapshot().cores[0].stage(Stage::Encode)
}

/// Closed-loop rounds of one session: submit one pool batch, `sync` until
/// it is visible, then answer the round's queries one call each. With a
/// tracer, each call gets a span and `absorbed` reads the writer's
/// cumulative absorb time.
fn rounds<R: Recorder + Send + Sync + 'static>(
    live: &mut Live<R>,
    pool: &Dataset,
    plan: &mut QueryPlan,
    tr: &mut Option<Tracing<'_, R>>,
    log: &mut RoundLog,
    ledger: &mut Ledger,
) {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut absorbed_before = tr.as_ref().map_or(0, |(_, f)| f(live.engine.recorder()));
    for k in 0..pool.num_samples() / BATCH_ROWS {
        let batch = slice(pool, k * BATCH_ROWS, (k + 1) * BATCH_ROWS);
        let queries = plan.round();
        if let Some((t, _)) = tr.as_mut() {
            t.enter("serve.round");
            t.enter("engine.visible");
        }
        let t0 = Instant::now();
        let visible = match tr.as_mut() {
            Some((t, _)) => {
                let (sub, sub_ns) = t.span("engine.submit", || live.engine.submit(batch));
                let (epoch, sync_ns) = t.span("engine.sync", || live.engine.sync());
                log.submit_us.push(us(sub_ns));
                log.sync_us.push(us(sync_ns));
                sub.and(epoch)
            }
            None => live.engine.submit(batch).and_then(|_| live.engine.sync()),
        };
        let visible_ns = t0.elapsed().as_nanos() as u64;
        if let Some((t, f)) = tr.as_mut() {
            t.exit();
            let now = f(live.engine.recorder());
            let absorb = now - absorbed_before;
            absorbed_before = now;
            ledger.check(absorb <= visible_ns, || {
                format!("engine: absorb {absorb} ns exceeds its visible span {visible_ns} ns")
            });
            log.absorb_us.push(us(absorb));
            log.residual_us.push(us(visible_ns.saturating_sub(absorb)));
        }
        let expected = 2 + live.rounds;
        let epoch = match visible {
            Ok(e) => e,
            Err(e) => {
                ledger.op(Some(format!("submit/sync: {e}")));
                if let Some((t, _)) = tr.as_mut() {
                    t.exit();
                }
                return;
            }
        };
        live.rounds += 1;
        live.rows += BATCH_ROWS as u64;
        let wrong = (epoch != expected).then(|| format!("sync gave epoch {epoch}, not {expected}"));
        if ledger.op(wrong) {
            log.visible_ms.push(visible_ns as f64 / 1e6);
        }
        // Both passes pin the new epoch before the queries, so no query
        // pays for the pin and the cache refresh.
        match tr.as_mut() {
            Some((t, _)) => {
                let (_, pin_ns) = t.span("reader.pin", || live.reader.pin());
                log.pin_us.push(us(pin_ns));
            }
            None => {
                live.reader.pin();
            }
        }
        for (scope, wide) in &queries {
            let t1 = Instant::now();
            let answer = match tr.as_mut() {
                Some((t, _)) => {
                    t.span("reader.query", || live.reader.answer_batch(&[scope]))
                        .0
                }
                None => live.reader.answer_batch(&[scope]),
            };
            let lat = us(t1.elapsed().as_nanos() as u64);
            log.queries += 1;
            let problem = match answer {
                Err(e) => Some(format!("query {scope:?}: {e}")),
                Ok((e, _)) if e != epoch => Some(format!("query pinned epoch {e}, not {epoch}")),
                Ok((_, m)) if m[0].sum() != live.rows => Some(format!(
                    "marginal over {scope:?} sums to {}, but {} rows are visible",
                    m[0].sum(),
                    live.rows
                )),
                Ok(_) => None,
            };
            if ledger.op(problem) {
                if *wide {
                    &mut log.wide_us
                } else {
                    &mut log.narrow_us
                }
                .push(lat);
            }
        }
        if let Some((t, _)) = tr.as_mut() {
            t.exit();
        }
    }
}

/// One closed serve session's recorder, rounds and refusals.
pub struct Session<R> {
    pub rec: Arc<R>,
    pub rounds: u64,
    pub refused: u64,
}

/// One serve session: `live` (a fresh engine past its preload epoch) runs
/// one round per pool batch with the seeded queries, then closes with the
/// finish check.
#[allow(clippy::too_many_arguments)]
pub fn session<R: Recorder + Send + Sync + 'static>(
    live: Result<Live<R>, ServeError>,
    net: &BayesNet,
    preload: &Dataset,
    pool: &Dataset,
    seed: u64,
    mut tr: Option<Tracing<'_, R>>,
    log: &mut RoundLog,
    ledger: &mut Ledger,
) -> Option<Session<R>> {
    let mut live = match live {
        Ok(live) => live,
        Err(e) => {
            ledger.op(Some(format!("engine start: {e}")));
            return None;
        }
    };
    let mut plan = QueryPlan::new(net, seed);
    rounds(&mut live, pool, &mut plan, &mut tr, log, ledger);
    let rec = Arc::clone(live.engine.recorder());
    let rounds = live.rounds;
    let refused = close(live, preload, pool, ledger);
    Some(Session {
        rec,
        rounds,
        refused,
    })
}

/// All rows an engine ingested: the preload, then `rounds` pool batches.
fn ingested(preload: &Dataset, pool: &Dataset, rounds: u64) -> Dataset {
    let mut flat = preload.flat().to_vec();
    flat.extend_from_slice(pool.row_range(0, rounds as usize * BATCH_ROWS));
    Dataset::from_flat(preload.schema().clone(), flat).expect("rows of valid datasets")
}

/// Closes admission, joins the writer and checks the final table against
/// an offline build of every ingested row. Returns the refusals counted.
fn close<R: Recorder + Send + Sync + 'static>(
    live: Live<R>,
    preload: &Dataset,
    pool: &Dataset,
    ledger: &mut Ledger,
) -> u64 {
    let refused = live.engine.refused();
    ledger.check(refused == 0, || {
        format!("engine refused {refused} submissions")
    });
    let rounds = live.rounds;
    drop(live.reader);
    let table = live.engine.finish();
    let reference =
        sequential_build(&ingested(preload, pool, rounds)).map(|b| b.table.to_sorted_vec());
    let problem = match (table, reference) {
        (Err(e), _) => Some(format!("Engine::finish: {e}")),
        (_, Err(e)) => Some(format!("finish reference: {e}")),
        (Ok(t), Ok(r)) => (t.to_sorted_vec() != r)
            .then(|| "Engine::finish differs from the offline build of its rows".to_string()),
    };
    ledger.op(problem);
    refused
}

/// ns/row of `StreamingBuilder` absorbing the pool's 100-row batches after
/// `preload`; the median of three fresh builders. With `publish`, a
/// `snapshot()` is held across each next absorb, as the serve writer's
/// published epoch is.
pub fn stream_ns_per_row(
    preload: &Dataset,
    pool: &Dataset,
    threads: usize,
    publish: bool,
    ledger: &mut Ledger,
) -> f64 {
    let batches: Vec<Dataset> = (0..pool.num_samples() / BATCH_ROWS)
        .map(|k| slice(pool, k * BATCH_ROWS, (k + 1) * BATCH_ROWS))
        .collect();
    let once = || -> Result<f64, CoreError> {
        let mut b = StreamingBuilder::new(preload.schema(), threads)?;
        b.absorb(preload)?;
        let mut held = None;
        let mut ns = 0u128;
        for batch in &batches {
            let t = Instant::now();
            b.absorb(batch)?;
            ns += t.elapsed().as_nanos();
            if publish {
                held = Some(b.snapshot()?);
            }
        }
        black_box(held);
        Ok(ns as f64 / pool.num_samples() as f64)
    };
    let mut samples = Vec::new();
    for _ in 0..3 {
        match once() {
            Ok(v) => {
                ledger.op(None);
                samples.push(v);
            }
            Err(e) => {
                ledger.op(Some(format!("stream p={threads} publish={publish}: {e}")));
            }
        }
    }
    median(&samples)
}

/// Reader-side counters of a traced engine, read after it closed.
#[derive(Debug, Default)]
pub struct ReaderCounters {
    pub hits: u64,
    pub misses: u64,
    pub served: u64,
    pub entries: u64,
    pub scan_ns: u64,
    pub epochs_published: u64,
    pub queue_hwm: u64,
    pub refused: u64,
}

/// Sums the counters of traced sessions, checking per session that the
/// engine published one epoch per round plus the preload's.
pub fn counters(sessions: &[Session<CoreMetrics>], ledger: &mut Ledger) -> ReaderCounters {
    let mut c = ReaderCounters::default();
    for s in sessions {
        let r = s.rec.snapshot();
        let reader = &r.cores[EngineConfig::default().reader_core(0)];
        let published = r.total(Counter::EpochsPublished);
        ledger.check(published == 1 + s.rounds, || {
            format!(
                "engine: epochs_published {published} != 1 + rounds {}",
                s.rounds
            )
        });
        c.hits += reader.counter(Counter::CacheHits);
        c.misses += reader.counter(Counter::CacheMisses);
        c.served += reader.counter(Counter::QueriesServed);
        c.entries += reader.counter(Counter::EntriesScanned);
        c.scan_ns += reader.stage(Stage::Marginal);
        c.epochs_published += published;
        c.queue_hwm = c.queue_hwm.max(r.queue_hwm_max());
        c.refused += s.refused;
    }
    c
}
