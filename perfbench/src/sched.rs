//! Interleaves the phases of a run: each next unit of work goes to the
//! phase furthest below its share of the time spent so far, so a slow
//! stretch of the host lands on every phase alike instead of on whichever
//! phase happened to run then.

use std::time::{Duration, Instant};

pub struct Scheduler<const N: usize> {
    shares: [f64; N],
    mins: [usize; N],
    spent: [f64; N],
    units: [usize; N],
    end: Instant,
}

impl<const N: usize> Scheduler<N> {
    /// `seconds` of interleaved units; phase `i` gets `shares[i]` of the
    /// time and at least `mins[i]` units, even past the end.
    pub fn new(seconds: f64, shares: [f64; N], mins: [usize; N]) -> Self {
        Scheduler {
            shares,
            mins,
            spent: [0.0; N],
            units: [0; N],
            end: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    /// The phase to run next, or `None` when the run is over.
    pub fn next(&self) -> Option<usize> {
        let short = (0..N).filter(|&i| self.units[i] < self.mins[i]);
        let open = (0..N).filter(|&i| self.shares[i] > 0.0);
        let pick = |it: &mut dyn Iterator<Item = usize>| {
            it.min_by(|&a, &b| {
                (self.spent[a] / self.shares[a]).total_cmp(&(self.spent[b] / self.shares[b]))
            })
        };
        if Instant::now() >= self.end {
            return pick(&mut short.into_iter());
        }
        pick(&mut open.into_iter())
    }

    /// Books one finished unit of phase `i` that took `secs`.
    pub fn done(&mut self, i: usize, secs: f64) {
        self.spent[i] += secs;
        self.units[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_phase_furthest_below_its_share() {
        let mut s = Scheduler::new(60.0, [0.5, 0.25, 0.25], [0, 0, 0]);
        s.done(0, 1.0);
        s.done(1, 1.0);
        assert_eq!(s.next(), Some(2));
        s.done(2, 0.2);
        assert_eq!(s.next(), Some(2));
        s.done(2, 1.0);
        assert_eq!(s.next(), Some(0));
    }

    #[test]
    fn after_the_end_only_minimums_run() {
        let mut s = Scheduler::new(0.0, [0.5, 0.5], [1, 0]);
        assert_eq!(s.next(), Some(0));
        s.done(0, 0.1);
        assert_eq!(s.next(), None);
    }
}
