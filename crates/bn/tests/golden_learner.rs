//! Golden outputs of the three-phase learner on two fixed inputs.
//!
//! The expected values were recorded from the learner before the potential
//! table was decoded into columns for its scans; any change to how
//! marginals are gathered must reproduce them exactly: the phase counters
//! (including the number of CI tests), the skeleton, the CPDAG, every
//! separating set and the bits of every all-pairs MI value.

use wfbn_bn::cheng::{ChengLearner, LearnResult};
use wfbn_bn::network::BayesNet;
use wfbn_bn::repository;

/// FNV-1a over a canonical text rendering.
fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Golden {
    /// draft edges, deferred pairs, thickening added, thinning removed,
    /// CI tests.
    stats: [usize; 5],
    skeleton: &'static [(usize, usize)],
    directed: &'static [(usize, usize)],
    undirected: &'static [(usize, usize)],
    /// Separating sets recorded, and how many of them are non-empty.
    sepsets: (usize, usize),
    /// Fingerprint of the key-sorted separating sets.
    sepsets_fp: u64,
    /// Fingerprint of every MI value's bit pattern, in pair order.
    mi_fp: u64,
}

fn learn(net: &BayesNet, seed: u64) -> LearnResult {
    let data = net.sample(20_000, seed);
    let learner = ChengLearner {
        threads: 2,
        ..ChengLearner::default()
    };
    learner.learn(&data).unwrap()
}

fn check(r: &LearnResult, g: &Golden) {
    let s = r.stats;
    assert_eq!(
        [
            s.draft_edges,
            s.deferred_pairs,
            s.thickening_added,
            s.thinning_removed,
            s.ci_tests
        ],
        g.stats
    );
    assert_eq!(r.skeleton.edges(), g.skeleton);
    assert_eq!(r.cpdag.directed_edges(), g.directed);
    assert_eq!(r.cpdag.undirected_edges(), g.undirected);
    let mut sep: Vec<_> = r.sepsets.iter().map(|(k, v)| (*k, v.clone())).collect();
    sep.sort();
    let nonempty = sep.iter().filter(|(_, v)| !v.is_empty()).count();
    assert_eq!((sep.len(), nonempty), g.sepsets);
    assert_eq!(fingerprint(&format!("{sep:?}")), g.sepsets_fp, "{sep:?}");
    let mut bits = String::new();
    for (i, j, v) in r.mi.iter_pairs() {
        bits += &format!("{i},{j},{:016x};", v.to_bits());
    }
    assert_eq!(fingerprint(&bits), g.mi_fp);
}

#[test]
fn alarm_20k_learns_the_recorded_structure() {
    let r = learn(&repository::alarm_like(), 20_141);
    check(
        &r,
        &Golden {
            stats: [32, 160, 22, 6, 990],
            skeleton: &[
                (1, 2),
                (1, 5),
                (1, 10),
                (1, 14),
                (1, 24),
                (2, 19),
                (3, 16),
                (3, 29),
                (4, 5),
                (4, 18),
                (4, 23),
                (4, 26),
                (4, 33),
                (5, 13),
                (5, 15),
                (6, 12),
                (6, 30),
                (7, 14),
                (7, 15),
                (7, 17),
                (7, 25),
                (8, 20),
                (9, 11),
                (10, 30),
                (10, 32),
                (10, 36),
                (11, 12),
                (11, 17),
                (11, 32),
                (12, 24),
                (12, 28),
                (13, 18),
                (14, 24),
                (14, 36),
                (15, 18),
                (17, 26),
                (18, 25),
                (18, 31),
                (19, 25),
                (19, 30),
                (20, 34),
                (21, 36),
                (25, 26),
                (26, 33),
                (27, 35),
                (28, 36),
                (30, 36),
                (32, 34),
            ],
            directed: &[
                (1, 10),
                (1, 24),
                (2, 19),
                (4, 18),
                (4, 23),
                (4, 26),
                (5, 4),
                (5, 13),
                (5, 15),
                (6, 12),
                (7, 15),
                (7, 17),
                (7, 25),
                (8, 20),
                (10, 32),
                (10, 36),
                (11, 9),
                (11, 32),
                (12, 11),
                (12, 24),
                (12, 28),
                (14, 7),
                (14, 24),
                (14, 36),
                (17, 11),
                (17, 26),
                (18, 13),
                (18, 15),
                (21, 36),
                (25, 18),
                (25, 19),
                (25, 26),
                (30, 10),
                (30, 19),
                (30, 36),
                (31, 18),
                (33, 4),
                (33, 26),
                (34, 20),
                (34, 32),
                (36, 28),
            ],
            undirected: &[(1, 2), (1, 5), (1, 14), (3, 16), (3, 29), (6, 30), (27, 35)],
            sepsets: (618, 144),
            sepsets_fp: 0xf15c_88b2_13ea_89a7,
            mi_fp: 0x6d1c_257a_1cfc_057e,
        },
    );
}

#[test]
fn b30_20k_learns_the_recorded_structure() {
    let net = repository::random_net(30, 2, 45, 3, 0.75, 0xb30);
    let r = learn(&net, 20_142);
    check(
        &r,
        &Golden {
            stats: [25, 15, 9, 2, 174],
            skeleton: &[
                (0, 1),
                (0, 24),
                (0, 25),
                (1, 9),
                (1, 25),
                (2, 12),
                (2, 13),
                (2, 28),
                (3, 17),
                (3, 23),
                (4, 11),
                (4, 12),
                (4, 24),
                (5, 18),
                (6, 7),
                (6, 8),
                (6, 25),
                (6, 27),
                (8, 21),
                (8, 28),
                (10, 22),
                (11, 14),
                (11, 18),
                (11, 22),
                (11, 28),
                (12, 19),
                (14, 27),
                (14, 28),
                (17, 23),
                (18, 20),
                (21, 27),
                (23, 28),
            ],
            directed: &[
                (0, 1),
                (0, 24),
                (0, 25),
                (1, 25),
                (2, 28),
                (3, 23),
                (4, 11),
                (4, 24),
                (5, 18),
                (6, 8),
                (6, 25),
                (6, 27),
                (7, 6),
                (8, 28),
                (9, 1),
                (10, 22),
                (11, 28),
                (12, 2),
                (12, 4),
                (13, 2),
                (14, 11),
                (14, 27),
                (14, 28),
                (17, 23),
                (18, 11),
                (20, 18),
                (21, 8),
                (21, 27),
                (22, 11),
                (23, 28),
            ],
            undirected: &[(3, 17), (12, 19)],
            sepsets: (403, 8),
            sepsets_fp: 0x9067_f628_d516_b8e7,
            mi_fp: 0x011d_d3d2_4dfc_9294,
        },
    );
}
