//! `exact-certify`: certify a fixed set of 12–20-node instances optimal
//! with the default A* (`exact::ExactSolver`).
//!
//! Why: it is the only workload where `exact`, `core::bounds`,
//! `core::symmetry` and `engine::par` do the work, so those layers would
//! otherwise go unmeasured.  The instance set is fixed — the four pinned
//! instances of `results/bench_exact.json` plus conformance-generated
//! graphs from pinned (seed, index) pairs.  The run seed orders the
//! instances within a pass and relabels a copy of each, which the gate
//! certifies once, untimed: the optimum must not depend on the labels.
//! The timed passes keep the original labels because the search's work
//! does depend on them (up to 1.7x on the 16-node mesh), which would
//! otherwise make `certify_s` a function of the seed.

use crate::gate::{self, Gate};
use crate::stats::{self, Latency};
use crate::trace::Tracer;
use crate::{Args, Report, Rng};
use pebblyn::conformance::generate;
use pebblyn::conformance::metamorphic::permute_nodes;
use pebblyn::prelude::*;
use std::time::Instant;

/// Conformance generator seed of the seeded instances.
const CONFORMANCE_SEED: u64 = 11;
/// How many seeded conformance instances join the named four.
const CONFORMANCE_CASES: usize = 4;
/// Node-count band of the seeded instances.
const CONFORMANCE_NODES: std::ops::RangeInclusive<usize> = 16..=20;
/// Latency limit on one certification.
const LIMIT_MS: f64 = 10_000.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// One certification problem.
struct Instance {
    /// Stable name.
    name: String,
    /// The (relabeled) graph.
    graph: Cdag,
    /// Fast-memory budget.
    budget: Weight,
    /// The optimum pinned in `results/bench_exact.json`, where one is.
    pinned: Option<Weight>,
}

/// The instance set for `seed`.
fn instances(seed: u64) -> Vec<Instance> {
    let dwt = DwtGraph::new(8, 2, WeightScheme::Equal(4))
        .expect("DWT(8,2) parameters are valid")
        .cdag()
        .clone();
    let tree = tree::full_kary(2, 3, WeightScheme::Equal(2)).expect("kary(2,3) is valid");
    let fft = pebblyn::graphs::testgraphs::fft_butterfly(2, WeightScheme::Equal(2))
        .expect("fft4 is valid");
    let mesh = pebblyn_bench::reconvergent_mesh16();
    let mut set = vec![
        ("dwt8x2_minb", min_feasible_budget(&dwt), Some(80), dwt),
        (
            "kary2x3_minb+2",
            min_feasible_budget(&tree) + 2,
            Some(22),
            tree,
        ),
        ("fft4_minb+4", min_feasible_budget(&fft) + 4, Some(18), fft),
        ("mesh16_minb", min_feasible_budget(&mesh), Some(28), mesh),
    ];
    let mut index = 0;
    let mut seeded = Vec::new();
    while seeded.len() < CONFORMANCE_CASES {
        let g = generate(CONFORMANCE_SEED, index).graph;
        if CONFORMANCE_NODES.contains(&g.len()) {
            seeded.push((format!("conf{CONFORMANCE_SEED}_{index}"), g));
        }
        index += 1;
    }
    let mut out: Vec<Instance> = set
        .drain(..)
        .map(|(name, budget, pinned, graph)| Instance {
            name: name.to_string(),
            graph,
            budget,
            pinned,
        })
        .collect();
    out.extend(seeded.into_iter().map(|(name, graph)| Instance {
        budget: min_feasible_budget(&graph) + 2,
        name,
        graph,
        pinned: None,
    }));
    let mut rng = Rng::new(seed, 0xE8AC);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.range(0, i as u64) as usize);
    }
    out
}

/// `inst` with its nodes relabeled by a permutation drawn from `rng`.
fn relabeled(inst: &Instance, rng: &mut Rng) -> Instance {
    Instance {
        name: format!("{} relabeled", inst.name),
        graph: permute_nodes(&inst.graph, &rng.perm(inst.graph.len())),
        budget: inst.budget,
        pinned: inst.pinned,
    }
}

/// The `greedy-belady` answer on an instance, replay-checked; the exact
/// optimum must never exceed it.
fn greedy(inst: &Instance, gate: &mut Gate) -> Option<(Weight, Schedule)> {
    let g = AnyGraph::custom(inst.name.clone(), inst.graph.clone());
    let resp = api::execute(&ScheduleRequest::new(&g, inst.budget, "greedy-belady"));
    let what = format!("{} greedy-belady", inst.name);
    match resp {
        Ok(r) => {
            let s = r.schedule().expect("full request carries moves").clone();
            let check = gate::replay(&what, &inst.graph, inst.budget, &s, r.cost());
            let ok = check.is_ok();
            gate.record(check.map(|_| ()));
            ok.then_some((r.cost(), s))
        }
        Err(e) => {
            gate.record(Err(format!("{what}: {e}")));
            None
        }
    }
}

/// A three-node chain: the smallest solve that starts the solver.
fn chain3() -> Cdag {
    let mut b = CdagBuilder::new();
    let a = b.node(1, "a");
    let c = b.node(1, "c");
    let d = b.node(1, "d");
    b.edge(a, c);
    b.edge(c, d);
    b.build().expect("a chain is a valid CDAG")
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut gate = Gate::default();

    // Set-up: build the instances, answer each with greedy-belady (the
    // upper bound the gate holds the optimum to) and warm the solver with
    // one tiny solve, so its lazy set-up (its thread pool) is paid here.
    // Median of several; the last repetition's checks count.
    let solver = ExactSolver::default();
    let mut setup = Vec::new();
    let mut insts = Vec::new();
    let mut greedy_cost = Vec::new();
    for _ in 0..SETUP_REPS {
        gate = Gate::default();
        let t = Instant::now();
        insts = instances(args.seed);
        greedy_cost = insts
            .iter()
            .map(|i| greedy(i, &mut gate).map(|(c, _)| c))
            .collect::<Vec<Option<Weight>>>();
        let chain = chain3();
        let _ = solver.solve(&chain, chain.total_weight());
        setup.push(t.elapsed().as_secs_f64());
    }
    // One untimed certification of each instance, so the first timed
    // pass does not also pay the search's first allocations.
    for inst in &insts {
        let _ = solver.solve(&inst.graph, inst.budget);
    }
    report.attempted += insts.len() as u64;

    let mut tracer = Tracer::new(false);
    let mut lat_ms = Vec::new();
    let mut inst_of = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_edges = 0usize;
    let mut costs: Vec<Option<Weight>> = vec![None; insts.len()];
    let mut first_stats: Vec<Option<SearchStats>> = vec![None; insts.len()];
    let started = Instant::now();
    while pass_s.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate recording on and off to price the spans.
        let record = args.trace && pass_s.len() % 2 == 0;
        let mut local = Tracer::new(record);
        let t_pass = Instant::now();
        for (k, inst) in insts.iter().enumerate() {
            let t = Instant::now();
            local.open("exact.solve", k as u64);
            let sol = solver.solve(&inst.graph, inst.budget);
            local.close();
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            inst_of.push(k);
            report.attempted += 1;
            match sol {
                Ok(sol) => {
                    if costs[k].is_none() {
                        costs[k] = sol.cost;
                        first_stats[k] = Some(sol.stats);
                    }
                    gate.record(match sol.cost {
                        Some(c) if Some(c) == costs[k] => Ok(()),
                        other => Err(format!(
                            "{}: exact cost {other:?} differs from the first pass {:?}",
                            inst.name, costs[k]
                        )),
                    });
                    if first_stats[k] != Some(sol.stats) {
                        gate.record(Err(format!("{}: search stats not repeatable", inst.name)));
                    }
                }
                Err(e) => gate.record(Err(format!("{}: {e}", inst.name))),
            }
            pass_edges += inst.graph.edge_count();
        }
        pass_s.push(t_pass.elapsed().as_secs_f64());
        if record {
            tracer = local;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    // High-water memory of the timed passes, before the gate's own solves.
    let rss = stats::peak_rss_mb("self").ok_or("cannot read /proc/self/status")?;

    // The gate: pinned optima, greedy-belady upper bound, Prop. 2.4.
    let mut io = Vec::new();
    for (k, inst) in insts.iter().enumerate() {
        let Some(cost) = costs[k] else {
            gate.record(Err(format!("{}: no optimum certified", inst.name)));
            continue;
        };
        if let Some(pin) = inst.pinned {
            gate.record(gate::equal(
                &format!("{} pinned optimum", inst.name),
                cost,
                pin,
            ));
        }
        if let Some(upper) = greedy_cost[k] {
            gate.record(if cost <= upper {
                Ok(())
            } else {
                Err(format!(
                    "{}: exact {cost} exceeds greedy-belady {upper}",
                    inst.name
                ))
            });
        }
        gate.record(gate::above_lower_bound(&inst.name, &inst.graph, cost));
        io.push(gate::io_ratio(&inst.graph, cost));
    }

    // Label invariance (once per instance, untimed): a relabeled copy
    // certifies to the same optimum.
    let mut rng = Rng::new(args.seed, 0x1ABE);
    for (k, inst) in insts.iter().enumerate() {
        let copy = relabeled(inst, &mut rng);
        report.attempted += 1;
        gate.record(
            match (solver.min_cost(&copy.graph, copy.budget), costs[k]) {
                (Ok(Some(c)), Some(want)) => gate::equal(&copy.name, c, want),
                (other, _) => Err(format!("{}: {other:?}", copy.name)),
            },
        );
    }

    // Optimal witnesses (once per instance, untimed): each must replay to
    // the certified optimum; their single-processor makespans give
    // `makespan_ratio`.
    let mut span_ratios = Vec::new();
    for (k, inst) in insts.iter().enumerate() {
        let Some(cost) = costs[k] else { continue };
        let what = format!("{} optimal witness", inst.name);
        match solver.optimal_schedule(&inst.graph, inst.budget) {
            Ok(Some((c, s))) => {
                gate.record(gate::equal(&what, c, cost));
                let spec = MachineSpec::uniprocessor(inst.budget);
                let ms = MultiSchedule::from_single(&s);
                match validate_multi_schedule(&inst.graph, &spec, &ms) {
                    Ok(st) => {
                        gate.record(gate::equal(&what, st.total_cost(), cost));
                        let lb = gate::makespan_lower_bound(&inst.graph, 1);
                        span_ratios.push(st.makespan as f64 / lb as f64);
                    }
                    Err(e) => gate.record(Err(format!("{what}: {e}"))),
                }
            }
            other => gate.record(Err(format!("{what}: {other:?}"))),
        }
    }

    let lat = Latency::of(&lat_ms);
    let answered = lat_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
    let total_solve_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    report.set("setup_s", stats::median(&setup));
    report.set(
        "lat_p50_ms",
        stats::median_per_kind_geomean(&lat_ms, &inst_of),
    );
    report.set("lat_p99_ms", lat.tail);
    report.set("max_rps_slo", answered as f64 / measured_s);
    report.set("edges_per_s", pass_edges as f64 / total_solve_s);
    report.set("certify_s", stats::median(&pass_s));
    report.set("peak_rss_mb", rss);
    report.set("io_cost_ratio", stats::geomean(&io));
    report.set("makespan_ratio", stats::geomean(&span_ratios));
    report.note(format!(
        "exact-certify: {} instances x {} passes, certification latency {}",
        insts.len(),
        pass_s.len(),
        lat.describe("ms")
    ));
    for (k, inst) in insts.iter().enumerate() {
        let st = first_stats[k].unwrap_or_default();
        report.note(format!(
            "  {:<16} n={:<3} budget={:<4} optimum={:<6} greedy={:<6} expanded={} peak_open={}",
            inst.name,
            inst.graph.len(),
            inst.budget,
            costs[k].map_or("-".into(), |c| c.to_string()),
            greedy_cost[k].map_or("-".into(), |c| c.to_string()),
            st.expanded,
            st.peak_open
        ));
    }

    if args.trace {
        let all: Vec<SearchStats> = first_stats.iter().flatten().copied().collect();
        let expanded: usize = all.iter().map(|s| s.expanded).sum();
        let solve_s = tracer
            .totals()
            .get("exact.solve")
            .map_or(0.0, |t| t.total_ns as f64 / 1e9);
        report.set("exact.states_expanded", expanded as f64);
        report.set("exact.states_per_s", expanded as f64 / solve_s.max(1e-9));
        report.set(
            "exact.open_list_peak",
            all.iter().map(|s| s.peak_open).max().unwrap_or(0) as f64,
        );
        report.set(
            "exact.symmetry_pruned",
            all.iter().map(|s| s.symmetry_pruned).sum::<usize>() as f64,
        );
        report.set(
            "exact.reexpansions",
            all.iter().map(|s| s.re_expanded).sum::<usize>() as f64,
        );
        let mut greedy_tracer = Tracer::new(true);
        let mut moves = 0;
        for (k, inst) in insts.iter().enumerate() {
            let mut sink = Gate::default();
            let answer = greedy_tracer.time("sched.greedy-belady.execute", k as u64, || {
                greedy(inst, &mut sink)
            });
            if let Some((_, s)) = answer {
                let _ = greedy_tracer.time("validate", k as u64, || {
                    validate_schedule(&inst.graph, inst.budget, &s)
                });
                moves += s.len();
            }
        }
        crate::set_exec_metrics(&mut report, &greedy_tracer);
        report.set("sched.moves", moves as f64);
        report.set(
            "validate.ns_per_move",
            greedy_tracer.totals()["validate"].total_ns as f64 / moves as f64,
        );
        report.set("trace.overhead_pct", stats::overhead_pct(&pass_s));
        let path = args
            .out_dir
            .join(format!("trace-exact-certify-{}.jsonl", args.seed));
        tracer.append(&greedy_tracer);
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!("spans: {}", path.display()));
    }
    report.gate = gate;
    Ok(report)
}
