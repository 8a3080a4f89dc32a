//! The correctness gate: every answer the benchmark receives is checked,
//! and each failed check counts as a failed operation.

use pebblyn::prelude::*;

/// Check tallies for one run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub checks: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Gate {
    /// Record one check's result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// Failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// `got == want`, or a message naming `what`.
pub fn equal(what: &str, got: Weight, want: Weight) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

/// Prop. 2.4: no valid schedule costs less than loading every input once
/// and storing every output once.
pub fn above_lower_bound(what: &str, g: &Cdag, cost: Weight) -> Result<(), String> {
    let lb = algorithmic_lower_bound(g);
    if cost >= lb {
        Ok(())
    } else {
        Err(format!(
            "{what}: cost {cost} below the Prop. 2.4 bound {lb}"
        ))
    }
}

/// Replay a uniprocessor schedule on the requester's own labels: it must
/// be valid within `budget` and replay to exactly the claimed cost.
pub fn replay(
    what: &str,
    g: &Cdag,
    budget: Weight,
    schedule: &Schedule,
    claimed: Weight,
) -> Result<ScheduleStats, String> {
    let stats = validate_schedule(g, budget, schedule)
        .map_err(|e| format!("{what}: schedule fails replay: {e}"))?;
    equal(&format!("{what}: replayed cost"), stats.cost, claimed)?;
    Ok(stats)
}

/// Lower bound on any makespan on `p` processors under the
/// contention-free clock model: the heaviest source-to-sink path (every
/// node on it is loaded or computed, one after another) and the total
/// weight spread evenly (every source is loaded and every other node
/// computed at least once).
pub fn makespan_lower_bound(g: &Cdag, p: usize) -> Weight {
    let mut path = vec![0 as Weight; g.len()];
    for &v in g.topo_order() {
        let before = g.preds(v).iter().map(|u| path[u.index()]).max();
        path[v.index()] = before.unwrap_or(0) + g.weight(v);
    }
    let critical = path.into_iter().max().unwrap_or(0);
    critical.max(g.total_weight().div_ceil(p.max(1) as Weight))
}

/// Returned cost over the Prop. 2.4 bound (1 for a graph whose bound is 0).
pub fn io_ratio(g: &Cdag, cost: Weight) -> f64 {
    let lb = algorithmic_lower_bound(g);
    if lb == 0 {
        1.0
    } else {
        cost as f64 / lb as f64
    }
}
