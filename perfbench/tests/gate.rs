//! The correctness gate catches corrupted answers: a schedule with one
//! move dropped, a cost off by one, a cost under the Prop. 2.4 bound, a
//! multiprocessor cost or makespan that differs from the cold answer, and
//! an exact optimum that differs from its pinned value.

use pebblyn::prelude::*;
use perfbench::gate::{self, Gate};

fn dwt() -> (AnyGraph, Weight) {
    let g = AnyGraph::build(Workload::Dwt { n: 16, d: 2 }, WeightScheme::Equal(16)).unwrap();
    let budget = min_feasible_budget(g.cdag()) + 32;
    (g, budget)
}

fn drop_move(s: &Schedule, at: usize) -> Schedule {
    let mut moves = s.moves();
    moves.remove(at);
    Schedule::from_moves(moves)
}

#[test]
fn uniprocessor_answers_are_replayed() {
    let (g, budget) = dwt();
    let resp = api::execute(&ScheduleRequest::new(&g, budget, "greedy-belady")).unwrap();
    let s = resp.schedule().unwrap();
    let cost = resp.cost();
    assert!(gate::replay("honest", g.cdag(), budget, s, cost).is_ok());
    assert!(gate::above_lower_bound("honest", g.cdag(), cost).is_ok());

    // Every single dropped move is caught: either the replay breaks or
    // the replayed cost no longer matches the claim.
    for at in 0..s.len() {
        let corrupt = drop_move(s, at);
        assert!(
            gate::replay("dropped", g.cdag(), budget, &corrupt, cost).is_err(),
            "dropping move {at} went unnoticed"
        );
    }
    assert!(gate::replay("cost+1", g.cdag(), budget, s, cost + 1).is_err());
    assert!(gate::replay("cost-1", g.cdag(), budget, s, cost - 1).is_err());
    let lb = algorithmic_lower_bound(g.cdag());
    assert!(gate::above_lower_bound("under", g.cdag(), lb - 1).is_err());
}

#[test]
fn multiprocessor_answers_are_held_to_the_cold_answer() {
    // The daemon does not transport multiprocessor move streams, so a
    // multiprocessor answer is checked by its cost and makespan against
    // the cold answer, and by its makespan against the lower bound.
    let (g, budget) = dwt();
    let spec = MachineSpec::symmetric(2, budget);
    let cold = api::execute(&ScheduleRequest::new(&g, spec, "comm-list")).unwrap();
    let (cost, span) = (cold.cost(), cold.makespan().unwrap());
    assert!(span >= gate::makespan_lower_bound(g.cdag(), 2));
    assert!(gate::equal("makespan", span, span).is_ok());
    assert!(gate::equal("makespan+1", span + 1, span).is_err());
    assert!(gate::equal("cost-1", cost - 1, cost).is_err());
}

#[test]
fn failed_checks_count_as_failures() {
    let mut g = Gate::default();
    g.record(gate::equal("pinned dwt8x2 optimum", 80, 80));
    g.record(gate::equal("pinned dwt8x2 optimum", 81, 80));
    assert_eq!((g.checks, g.failed()), (2, 1));

    let mut report = perfbench::Report {
        gate: g,
        attempted: 2,
        ..Default::default()
    };
    for &(name, _) in perfbench::END_TO_END {
        report.set(name, 1.0);
    }
    let line = report.result_json(false);
    assert!(
        line.starts_with(r#"{"correct": false, "attempted": 2, "failed": 1,"#),
        "{line}"
    );
}

#[test]
fn makespan_bound_is_the_critical_path_or_the_even_split() {
    let mut b = CdagBuilder::new();
    let a = b.node(3, "a");
    let c = b.node(5, "c");
    let d = b.node(7, "d");
    b.edge(a, c);
    b.edge(c, d);
    let chain = b.build().unwrap();
    assert_eq!(gate::makespan_lower_bound(&chain, 1), 15);
    assert_eq!(gate::makespan_lower_bound(&chain, 4), 15);
}
