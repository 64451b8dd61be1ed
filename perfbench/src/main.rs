//! `wfbn-perfbench`: one workload of the repository benchmark per process.
//!
//! ```text
//! wfbn-perfbench --workload <build-alarm|serve-b30> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload generates its inputs from the seed and, interleaved over
//! the run, drives the serve path, the three offline builders, the
//! `wfbn mi` / `wfbn learn` paths and repeats of its own set-up, checking
//! every output. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! spends part of the time on an untraced pass and the rest on a traced
//! one, and prints the per-layer metrics and the tracing overhead. The
//! last stdout line is the JSON result. See `perfbench/README.md`.

mod host;
mod offline;
mod report;
mod sched;
mod serve;
mod stats;
mod trace;
mod workload;

use offline::{BuildSamples, ConstructLayer, LearnLayer, LearnSamples, LearnSet, PerSet, P};
use report::{emit, Ledger, Metric};
use sched::Scheduler;
use serve::RoundLog;
use stats::{median, quantile};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use wfbn_core::obs::NoopRecorder;
use wfbn_core::CoreMetrics;
use wfbn_serve::EngineConfig;
use workload::{derive, Inputs, Workload};

/// Share of a traced run's seconds spent on its untraced pass.
const UNTRACED_SHARE: f64 = 0.4;
/// Scheduler phases, in the order of [`Workload::shares`].
const BUILD: usize = 0;
const LEARN: usize = 1;
const SERVE: usize = 2;
const SETUP: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Generates the inputs and brings a serve engine to its first visible
/// epoch; returns the inputs and the seconds that took. The engine is
/// closed untimed: the idle writer busy-yields, so none may outlive set-up.
fn setup(w: &Workload, seed: u64) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let inputs = w.generate(seed);
    let live = serve::start(&inputs.preload, Arc::new(NoopRecorder))
        .map_err(|e| format!("engine start: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    drop(live.reader);
    live.engine
        .finish()
        .map_err(|e| format!("engine finish: {e}"))?;
    Ok((inputs, secs))
}

/// The untraced samples behind the end-to-end metrics.
#[derive(Default)]
struct EndToEnd {
    builds: BuildSamples,
    learns: LearnSamples,
    serve: RoundLog,
    setup_s: Vec<f64>,
}

/// The untraced pass: serve sessions, build rounds, learn reps and repeated
/// set-ups, interleaved by `shares` of `seconds`. `first_setup` is the
/// run's own set-up time, the first `setup_s` sample.
#[allow(clippy::too_many_arguments)]
fn measure(
    w: &Workload,
    shares: [f64; 4],
    seed: u64,
    seconds: f64,
    first_setup: f64,
    inputs: &Inputs,
    build_ref: &[(u64, u64)],
    sets: &mut [LearnSet],
    ledger: &mut Ledger,
) -> EndToEnd {
    let mut e = EndToEnd {
        setup_s: vec![first_setup],
        ..Default::default()
    };
    let mut learn_reps = 0;
    let mut sched = Scheduler::new(seconds, shares, [5, sets.len(), 1, 0]);
    while let Some(phase) = sched.next() {
        let t = Instant::now();
        match phase {
            BUILD => offline::build_round(&inputs.build, build_ref, &mut e.builds, ledger),
            LEARN => {
                let k = learn_reps % sets.len();
                offline::learn_rep(k, &mut sets[k], &mut e.learns, ledger);
                learn_reps += 1;
            }
            SERVE => {
                let live = serve::start(&inputs.preload, Arc::new(NoopRecorder));
                let (pre, pool) = (&inputs.preload, &inputs.pool);
                serve::session(
                    live,
                    &inputs.net,
                    pre,
                    pool,
                    derive(seed, 4),
                    None,
                    &mut e.serve,
                    ledger,
                );
            }
            SETUP => match setup(w, seed) {
                Ok((_, secs)) => {
                    ledger.op(None);
                    e.setup_s.push(secs);
                }
                Err(err) => {
                    ledger.op(Some(format!("set-up: {err}")));
                }
            },
            _ => unreachable!("four phases"),
        }
        sched.done(phase, t.elapsed().as_secs_f64());
    }
    let ci: Vec<usize> = sets.iter().map(|s| s.ci_tests).collect();
    println!(
        "shape: build_entries={} learn_ci_tests={ci:?} serve_rounds={}",
        build_ref.len(),
        e.serve.visible_ms.len(),
    );
    e
}

fn metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    Metric {
        name,
        value: median(samples),
        unit,
        samples: samples.len(),
    }
}

fn single(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: 1,
    }
}

/// A tail percentile with the sample count behind it.
fn tail(name: &'static str, samples: &[f64], q: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: quantile(samples, q),
        unit,
        samples: samples.len(),
    }
}

/// A learn-path metric: the median over the learn samples of each sample's
/// median, so which samples got an extra rep does not move it.
fn per_set(name: &'static str, samples: &PerSet, unit: &'static str) -> Metric {
    Metric {
        name,
        value: samples.summary(),
        unit,
        samples: samples.count(),
    }
}

fn end_to_end_metrics(e: &EndToEnd) -> Vec<Metric> {
    vec![
        metric("build_rows_per_s", &e.builds.waitfree, "rows/s"),
        metric("build_batched_rows_per_s", &e.builds.batched, "rows/s"),
        metric("build_seq_rows_per_s", &e.builds.sequential, "rows/s"),
        per_set("init_s", &e.learns.init_s, "s"),
        per_set("learn_s", &e.learns.learn_s, "s"),
        metric("visible_p50_ms", &e.serve.visible_ms, "ms"),
        metric("query_p50_us", &e.serve.narrow_us, "us"),
        metric("query_wide_p50_us", &e.serve.wide_us, "us"),
        metric("setup_s", &e.setup_s, "s"),
        single("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// The workload's shares without the set-up phase: a traced run reports
/// no `setup_s`.
fn no_setup(w: &Workload) -> [f64; 4] {
    let mut shares = w.shares;
    shares[SETUP] = 0.0;
    shares
}

/// Percent by which the traced median exceeds the untraced one.
fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// The traced pass after an untraced one `u`: per-layer metrics,
/// conservation checks, tracing overhead, and a self-time table of the
/// benchmark's spans.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    build_ref: &[(u64, u64)],
    sets: &mut [LearnSet],
    u: &EndToEnd,
    steal0: u64,
    ledger: &mut Ledger,
) -> Vec<Metric> {
    let mut tr = Tracer::new();
    let wall = Instant::now();
    let mut construct = ConstructLayer::default();
    let mut learn = LearnLayer::default();
    let mut log = RoundLog::default();
    let mut sessions = Vec::new();
    let mut learn_reps = 0;
    let absorbed: &dyn Fn(&CoreMetrics) -> u64 = &serve::absorbed_ns;
    let mut sched = Scheduler::new(seconds, no_setup(w), [3, sets.len(), 1, 0]);
    while let Some(phase) = sched.next() {
        let t = Instant::now();
        match phase {
            BUILD => {
                offline::construct_traced(&inputs.build, build_ref, &mut tr, &mut construct, ledger)
            }
            LEARN => {
                let k = learn_reps % sets.len();
                offline::learn_traced(k, &mut sets[k], &mut tr, &mut learn, ledger);
                learn_reps += 1;
            }
            SERVE => {
                let rec = Arc::new(CoreMetrics::new(EngineConfig::default().cores()));
                let live = serve::start(&inputs.preload, rec);
                let (pre, pool) = (&inputs.preload, &inputs.pool);
                let tracing = Some((&mut tr, absorbed));
                sessions.extend(serve::session(
                    live,
                    &inputs.net,
                    pre,
                    pool,
                    derive(seed, 4),
                    tracing,
                    &mut log,
                    ledger,
                ));
            }
            _ => unreachable!("no set-up phase in a traced run"),
        }
        sched.done(phase, t.elapsed().as_secs_f64());
    }
    let rc = serve::counters(&sessions, ledger);
    ledger.check(
        rc.hits + rc.misses == log.queries && rc.served == log.queries,
        || {
            format!(
                "reader: hits {} + misses {} (served {}) != queries {}",
                rc.hits, rc.misses, rc.served, log.queries
            )
        },
    );
    let traced_wall = wall.elapsed().as_nanos() as u64;

    // Stream layer: direct StreamingBuilder calls on 100-row batches.
    let (pre, pool) = (&inputs.preload, &inputs.pool);
    let absorb_p1 = serve::stream_ns_per_row(pre, pool, 1, false, ledger);
    let absorb_p2 = serve::stream_ns_per_row(pre, pool, 2, false, ledger);
    let published_p1 = serve::stream_ns_per_row(pre, pool, 1, true, ledger);
    let pram = offline::pram_speedup(&inputs.build);

    ledger.check(tr.open_spans() == 0, || {
        format!("trace: {} spans left open", tr.open_spans())
    });
    println!(
        "span self time (traced pass, {:.1} ms wall):",
        traced_wall as f64 / 1e6
    );
    for (name, t) in tr.totals() {
        println!(
            "  {:<16} n={:<6} total {:>10.2} ms  self {:>10.2} ms  {:>5.1}% of wall",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / traced_wall as f64
        );
    }

    let m = inputs.build.num_samples() as f64;
    let speedup = median(&u.builds.batched) / median(&u.builds.sequential);
    let post_draft = median(&learn.post_draft_ms);
    let (vis, narrow) = (&u.serve.visible_ms, &u.serve.narrow_us);
    let untraced_build_ms = 1e3 * m / median(&u.builds.batched);
    let mut out: Vec<Metric> = offline::CONSTRUCT_COLUMNS
        .iter()
        .zip(construct.medians())
        .map(|(&(name, unit), v)| Metric {
            name,
            value: v,
            unit,
            samples: construct.rows.len(),
        })
        .collect();
    out.extend([
        single("construct.speedup_p2", speedup, "x"),
        metric("construct.init_build_ms", &learn.init_build_ms, "ms"),
        single("pram.speedup_p2", pram, "x"),
        single("pram.residual", pram / speedup, "ratio"),
        metric("allpairs.mi_ms", &learn.mi_ms, "ms"),
        metric("allpairs.entries_scanned", &learn.entries_scanned, "count"),
        metric("allpairs.ns_per_entry_pair", &learn.ns_per_entry_pair, "ns"),
        metric("allpairs.core_skew", &learn.core_skew, "ratio"),
        metric("cheng.post_draft_ms", &learn.post_draft_ms, "ms"),
        metric("cheng.ci_tests", &learn.ci_tests, "count"),
        single(
            "cheng.us_per_ci_test",
            post_draft * 1e3 / median(&learn.ci_tests),
            "us",
        ),
        metric("cheng.draft_edges", &learn.draft_edges, "count"),
        single("stream.absorb_ns_per_row_p1", absorb_p1, "ns"),
        single("stream.absorb_ns_per_row_p2", absorb_p2, "ns"),
        single("stream.published_ns_per_row_p1", published_p1, "ns"),
        metric("engine.submit_us_p50", &log.submit_us, "us"),
        metric("engine.sync_us_p50", &log.sync_us, "us"),
        metric("engine.absorb_us_p50", &log.absorb_us, "us"),
        metric("engine.publish_residual_us", &log.residual_us, "us"),
        single(
            "engine.epochs_published",
            rc.epochs_published as f64,
            "count",
        ),
        single("engine.refused", rc.refused as f64, "count"),
        single("engine.queue_hwm", rc.queue_hwm as f64, "count"),
        tail("engine.visible_p90_ms", vis, 0.9, "ms"),
        tail("engine.visible_p99_ms", vis, 0.99, "ms"),
        single("engine.visible_samples", vis.len() as f64, "count"),
        metric("reader.pin_us_p50", &log.pin_us, "us"),
        single(
            "reader.cache_hit_ratio",
            rc.hits as f64 / (rc.hits + rc.misses) as f64,
            "ratio",
        ),
        single(
            "reader.entries_scanned_per_miss",
            rc.entries as f64 / rc.misses as f64,
            "count",
        ),
        single(
            "reader.ns_per_entry",
            rc.scan_ns as f64 / rc.entries as f64,
            "ns",
        ),
        tail("reader.query_p90_us", narrow, 0.9, "us"),
        tail("reader.query_p99_us", narrow, 0.99, "us"),
        single("reader.query_samples", narrow.len() as f64, "count"),
        single(
            "host.steal_ticks",
            host::steal_ticks().saturating_sub(steal0) as f64,
            "count",
        ),
        single("host.loadavg_1m", host::loadavg_1m(), "load"),
        single(
            "trace.overhead_build_pct",
            overhead_pct(median(&construct.wall_ms), untraced_build_ms),
            "%",
        ),
        single(
            "trace.overhead_init_pct",
            overhead_pct(learn.init_ms.summary(), 1e3 * u.learns.init_s.summary()),
            "%",
        ),
        single(
            "trace.overhead_learn_pct",
            overhead_pct(learn.learn_ms.summary(), 1e3 * u.learns.learn_s.summary()),
            "%",
        ),
        single(
            "trace.overhead_visible_pct",
            overhead_pct(median(&log.visible_ms), median(vis)),
            "%",
        ),
        single(
            "trace.overhead_query_pct",
            overhead_pct(median(&log.narrow_us), median(narrow)),
            "%",
        ),
    ]);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: wfbn-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let steal0 = host::steal_ticks();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} threads={P}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let (inputs, first_setup) = match setup(w, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    let references = offline::build_reference(&inputs.build).and_then(|b| {
        let sets = inputs
            .learn
            .iter()
            .map(LearnSet::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((b, sets))
    });
    let (build_ref, mut sets) = match references {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: reference failed: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ledger = Ledger::default();
    let secs = args.seconds as f64;
    let metrics = if args.trace {
        let untraced_secs = secs * UNTRACED_SHARE;
        let u = measure(
            w,
            no_setup(w),
            args.seed,
            untraced_secs,
            first_setup,
            &inputs,
            &build_ref,
            &mut sets,
            &mut ledger,
        );
        let rest = secs - untraced_secs;
        traced(
            w,
            args.seed,
            rest,
            &inputs,
            &build_ref,
            &mut sets,
            &u,
            steal0,
            &mut ledger,
        )
    } else {
        let e = measure(
            w,
            w.shares,
            args.seed,
            secs,
            first_setup,
            &inputs,
            &build_ref,
            &mut sets,
            &mut ledger,
        );
        end_to_end_metrics(&e)
    };
    println!(
        "host: nproc={} threads={P} steal_ticks={} loadavg_1m={:.2}",
        host::nproc(),
        host::steal_ticks().saturating_sub(steal0),
        host::loadavg_1m()
    );
    emit(&ledger, &metrics);
    ExitCode::SUCCESS
}
