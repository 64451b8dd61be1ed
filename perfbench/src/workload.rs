//! The three workloads and the inputs each generates from its seed.

use wfbn_bn::network::BayesNet;
use wfbn_bn::repository;
use wfbn_data::Dataset;

/// Rows per ingest batch on the serve path.
pub const BATCH_ROWS: usize = 100;
/// Rounds per serve session: every session starts a fresh engine, so the
/// table a round publishes and scans has the same size in every session
/// and on every host, however many sessions fit in the run.
pub const SESSION_ROUNDS: usize = 100;
/// Rows sampled after the preload: one batch per session round.
pub const POOL_ROWS: usize = SESSION_ROUNDS * BATCH_ROWS;
/// Independently sampled learn inputs per run. Their CI-test counts differ
/// widely between samples (1,005–1,315 on 50 k Alarm rows, 208–295 on 60 k
/// b30 rows); cycling through several keeps one sample from setting the
/// run's `learn_s`.
pub const LEARN_SETS: usize = 6;

/// Which generating network a workload samples from.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// `repository::alarm_like()`: 37 variables, arities 2–4.
    Alarm,
    /// `random_net(30, 2, 45, 3, 0.75, B30_NET_SEED)`: 30 binary variables.
    B30,
}

/// The b30 network is fixed; the run seed varies only the sampled rows and
/// queries, so the work per run does not depend on which DAG a seed draws.
const B30_NET_SEED: u64 = 0xb30;

/// One workload: a network, the input size of each phase, and the share of
/// the measured seconds each phase gets. Every workload runs every phase,
/// so every end-to-end metric is measured on every workload; the phase a
/// workload is named for gets the most time and its characteristic size.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    /// Rows of the offline builds (`build_*` metrics).
    pub build_rows: usize,
    /// Rows of each `wfbn mi` / `wfbn learn` input (`init_s`, `learn_s`).
    pub learn_rows: usize,
    /// Rows the serve engine absorbs as its first epoch.
    pub preload_rows: usize,
    /// Shares of the measured seconds: build, learn, serve, set-up.
    pub shares: [f64; 4],
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "build-alarm",
        net: Net::Alarm,
        build_rows: 1_000_000,
        learn_rows: 50_000,
        preload_rows: 100_000,
        shares: [0.30, 0.42, 0.18, 0.10],
    },
    Workload {
        name: "serve-b30",
        net: Net::B30,
        build_rows: 100_000,
        learn_rows: 60_000,
        preload_rows: 100_000,
        shares: [0.1, 0.2, 0.64, 0.06],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a run measures, generated from the seed.
pub struct Inputs {
    pub net: BayesNet,
    pub build: Dataset,
    /// [`LEARN_SETS`] independent samples.
    pub learn: Vec<Dataset>,
    /// The serve engine's first batch.
    pub preload: Dataset,
    /// The serve rounds' batches, in round order.
    pub pool: Dataset,
}

impl Workload {
    pub fn network(&self) -> BayesNet {
        match self.net {
            Net::Alarm => repository::alarm_like(),
            Net::B30 => repository::random_net(30, 2, 45, 3, 0.75, B30_NET_SEED),
        }
    }

    pub fn generate(&self, seed: u64) -> Inputs {
        let net = self.network();
        let serve = net.sample(self.preload_rows + POOL_ROWS, derive(seed, 3));
        Inputs {
            build: net.sample(self.build_rows, derive(seed, 1)),
            learn: (0..LEARN_SETS as u64)
                .map(|k| net.sample(self.learn_rows, derive(seed, 10 + k)))
                .collect(),
            preload: slice(&serve, 0, self.preload_rows),
            pool: slice(&serve, self.preload_rows, serve.num_samples()),
            net,
        }
    }
}

/// Rows `[start, end)` of `data` as their own dataset.
pub fn slice(data: &Dataset, start: usize, end: usize) -> Dataset {
    Dataset::from_flat(data.schema().clone(), data.row_range(start, end).to_vec())
        .expect("a row range of a valid dataset is valid")
}

/// An independent stream seed derived from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// SplitMix64: the query generator's deterministic source.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}
