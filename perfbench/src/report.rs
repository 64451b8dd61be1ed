//! Failure accounting and the result line.

use std::fmt::Write as _;

/// Ops attempted and failed. Errors, refusals and check mismatches all
/// count as failures.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Records one op; `problem` is `Some` when it failed.
    pub fn op(&mut self, problem: Option<String>) -> bool {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {p}");
            return false;
        }
        true
    }

    /// Records a failure found after the op was counted (a conservation
    /// law or a final equivalence check).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and derived figures).
    pub samples: usize,
}

/// Prints the human-readable table, then the JSON result as the last line.
pub fn emit(ledger: &Ledger, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<34} {:>16.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("perfbench: FAILED: metric {} is not finite", m.name);
    }
    let correct = finite && ledger.failed == 0 && ledger.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.attempted,
        ledger.failed + u64::from(!finite)
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
}
