//! The separation search shared by thickening and thinning.
//!
//! Cheng et al.'s `try_to_separate` asks: does some conditioning set drawn
//! from the neighbors *on connecting paths* render `x` and `y` independent?
//! Conditioning on all path-neighbors of one endpoint blocks every indirect
//! trail (they form a cut), so candidates beyond that set never help.
//!
//! The search is exhaustive over subsets up to `max_condition_size` (small
//! cut-sets are both statistically preferable — fewer cells, more counts per
//! cell — and the common case in sparse graphs), and additionally tries the
//! full candidate cut if it exceeds that size, mirroring Cheng et al.'s
//! group-wise test.

use crate::cheng::SepSets;
use crate::ci::CiTest;
use crate::graph::Ug;
use wfbn_core::decoded::DecodedTable;

/// Searches for a separating set for `(x, y)` in `graph`.
///
/// Returns `Some(z)` with the first set found that makes the pair
/// independent under `test`, or `None` if every tried set leaves them
/// dependent. Increments `*ci_tests` once per executed test.
pub fn try_separate(
    graph: &Ug,
    view: &DecodedTable,
    x: usize,
    y: usize,
    test: CiTest,
    max_condition_size: usize,
    ci_tests: &mut usize,
) -> Option<Vec<usize>> {
    // Candidate cut: path-neighbors of the endpoint with the smaller set
    // (either side's full set blocks all indirect trails).
    let cand_x = graph.path_neighbors(x, y);
    let cand_y = graph.path_neighbors(y, x);
    let cand = if cand_x.len() <= cand_y.len() {
        cand_x
    } else {
        cand_y
    };

    // Subset search, smallest first (size 0 = marginal re-test, which
    // matters when the draft used a different decision rule than `test`).
    let cap = max_condition_size.min(cand.len());
    let mut subset = Vec::new();
    for size in 0..=cap {
        if independent_given_some(view, x, y, &cand, size, 0, &mut subset, test, ci_tests) {
            return Some(subset);
        }
    }
    // Group test on the full cut when it is larger than the subset cap.
    if cand.len() > max_condition_size {
        *ci_tests += 1;
        let out = test
            .run(view, x, y, &cand)
            .expect("valid variables by construction");
        if !out.dependent {
            return Some(cand);
        }
    }
    None
}

/// Recursively enumerates `size`-subsets of `cand[from..]`; returns `true`
/// (leaving the subset in `acc`) as soon as one separates the pair.
#[allow(clippy::too_many_arguments)]
fn independent_given_some(
    view: &DecodedTable,
    x: usize,
    y: usize,
    cand: &[usize],
    size: usize,
    from: usize,
    acc: &mut Vec<usize>,
    test: CiTest,
    ci_tests: &mut usize,
) -> bool {
    if size == 0 {
        *ci_tests += 1;
        let out = test
            .run(view, x, y, acc)
            .expect("valid variables by construction");
        return !out.dependent;
    }
    for i in from..cand.len() {
        acc.push(cand[i]);
        if independent_given_some(view, x, y, cand, size - 1, i + 1, acc, test, ci_tests) {
            return true;
        }
        acc.pop();
    }
    false
}

/// Records a separating set under the canonical `(min, max)` key.
pub(crate) fn record_sepset(sepsets: &mut SepSets, x: usize, y: usize, z: Vec<usize>) {
    let key = (x.min(y), x.max(y));
    sepsets.insert(key, z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_core::construct::waitfree_build;
    use wfbn_data::{CorrelatedChain, Generator, Schema};

    #[test]
    fn separates_chain_ends_through_the_middle() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.85)
            .unwrap()
            .generate(50_000, 7);
        let view = DecodedTable::new(&waitfree_build(&data, 2).unwrap().table);
        let graph = Ug::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut tests = 0;
        let sep = try_separate(
            &graph,
            &view,
            0,
            2,
            CiTest::GTest { alpha: 0.01 },
            3,
            &mut tests,
        );
        assert_eq!(sep, Some(vec![1]));
        assert!(tests >= 2, "size-0 then size-1 tests expected");
    }

    #[test]
    fn adjacent_strongly_coupled_pair_cannot_be_separated() {
        let schema = Schema::uniform(3, 2).unwrap();
        let data = CorrelatedChain::new(schema, 0.9)
            .unwrap()
            .generate(50_000, 8);
        let view = DecodedTable::new(&waitfree_build(&data, 2).unwrap().table);
        let graph = Ug::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut tests = 0;
        let sep = try_separate(
            &graph,
            &view,
            0,
            1,
            CiTest::GTest { alpha: 0.01 },
            3,
            &mut tests,
        );
        assert_eq!(sep, None);
    }

    #[test]
    fn record_sepset_canonicalizes_keys() {
        let mut s = SepSets::new();
        record_sepset(&mut s, 5, 2, vec![3]);
        assert_eq!(s.get(&(2, 5)), Some(&vec![3]));
        assert!(!s.contains_key(&(5, 2)));
    }
}
