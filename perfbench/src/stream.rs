//! `stream-1m`: million-node `synth::giga` graphs scheduled by
//! `topo-window` and `slab-partition` at the Prop. 2.3 minimum budget,
//! through `schedulers::api::execute` (replay validation included).
//!
//! Why: the same scheduler and validator layers the daemon's misses use,
//! at a DRAM-resident scale instead of on many small requests.  Set-up is
//! dominated by giga generation.  The DWT and MVM shapes are fixed; the
//! layered-random graph is drawn from the run seed.

use crate::gate::{self, Gate};
use crate::stats::{self, Latency};
use crate::trace::Tracer;
use crate::{Args, Report};
use pebblyn::prelude::*;
use pebblyn::streaming::{slab_schedule_with, window_schedule_with, SlabConfig, WindowConfig};
use pebblyn::synth::{dwt_giga, layered_random_giga, mvm_giga};
use std::time::Instant;

/// The streaming schedulers, by registry name.
const SCHEDULERS: &[&str] = &["topo-window", "slab-partition"];
/// Latency limit on one million-node scheduling call.
const LIMIT_MS: f64 = 5_000.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One generated family member.
struct Family {
    /// Family name.
    name: &'static str,
    /// The graph, wrapped for the scheduler API.
    graph: AnyGraph,
    /// The Prop. 2.3 minimum budget.
    budget: Weight,
}

/// Generate the three ~1M-node graphs for `seed`, timing each generator
/// call into `tracer` as `giga.gen`.
fn families(seed: u64, tracer: &mut Tracer) -> Vec<Family> {
    let dwt = tracer.time("giga.gen", 0, || dwt_giga(1 << 18, 18));
    let mvm = tracer.time("giga.gen", 1, || mvm_giga(999, 1000));
    let layered = tracer.time("giga.gen", 2, || layered_random_giga(1000, 1000, 3, seed));
    [("dwt", dwt), ("mvm", mvm), ("layered", layered)]
        .into_iter()
        .map(|(name, g)| Family {
            name,
            budget: min_feasible_budget(&g),
            graph: AnyGraph::custom(name, g),
        })
        .collect()
}

/// One scheduling call's answer, as checked.
struct Answer {
    cost: Weight,
    moves: usize,
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut gate = Gate::default();

    let mut setup = Vec::new();
    let mut fams = Vec::new();
    let mut gen_tracer = Tracer::new(args.trace);
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut fams));
        let t = Instant::now();
        fams = families(args.seed, &mut gen_tracer);
        setup.push(t.elapsed().as_secs_f64());
    }

    let calls: Vec<(usize, &str)> = (0..fams.len())
        .flat_map(|f| SCHEDULERS.iter().map(move |&s| (f, s)))
        .collect();
    let mut first: Vec<Option<Answer>> = calls.iter().map(|_| None).collect();
    let mut io = Vec::new();
    let mut span_ratios = Vec::new();
    let mut lat_ms = Vec::new();
    let mut call_of = Vec::new();
    let mut pass_s = Vec::new();
    let mut edges = 0usize;
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    while pass_s.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let record = args.trace && pass_s.len() % 2 == 0;
        let mut local = Tracer::new(record);
        let mut pass = 0.0;
        for (k, &(f, name)) in calls.iter().enumerate() {
            let fam = &fams[f];
            let what = format!("{} {name}", fam.name);
            let req = ScheduleRequest::new(&fam.graph, fam.budget, name);
            let t = Instant::now();
            local.open(crate::exec_span(name), k as u64);
            let resp = api::execute(&req);
            local.close();
            let dt = t.elapsed().as_secs_f64();
            pass += dt;
            lat_ms.push(dt * 1e3);
            call_of.push(k);
            edges += fam.graph.cdag().edge_count();
            report.attempted += 1;
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    gate.record(Err(format!("{what}: {e}")));
                    continue;
                }
            };
            let g = fam.graph.cdag();
            let schedule = resp.schedule().expect("full request carries moves");
            gate.record(gate::replay(&what, g, fam.budget, schedule, resp.cost()).map(|_| ()));
            gate.record(gate::above_lower_bound(&what, g, resp.cost()));
            match &first[k] {
                None => {
                    io.push(gate::io_ratio(g, resp.cost()));
                    let spec = MachineSpec::uniprocessor(fam.budget);
                    let multi = MultiSchedule::from_single(schedule);
                    match validate_multi_schedule(g, &spec, &multi) {
                        Ok(st) => span_ratios
                            .push(st.makespan as f64 / gate::makespan_lower_bound(g, 1) as f64),
                        Err(e) => gate.record(Err(format!("{what}: {e}"))),
                    }
                    first[k] = Some(Answer {
                        cost: resp.cost(),
                        moves: schedule.len(),
                    });
                }
                Some(a) => gate.record(if a.cost == resp.cost() && a.moves == schedule.len() {
                    Ok(())
                } else {
                    Err(format!("{what}: answer differs from the first pass"))
                }),
            }
        }
        pass_s.push(pass);
        if record {
            tracer = local;
        }
    }

    let lat = Latency::of(&lat_ms);
    let call_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    let answered = lat_ms.iter().filter(|&&l| l <= LIMIT_MS).count();
    report.set("setup_s", stats::median(&setup));
    report.set(
        "lat_p50_ms",
        stats::median_per_kind_geomean(&lat_ms, &call_of),
    );
    report.set("lat_p99_ms", lat.tail);
    report.set("max_rps_slo", answered as f64 / call_s);
    report.set("edges_per_s", edges as f64 / call_s);
    report.set("certify_s", stats::median(&pass_s));
    report.set(
        "peak_rss_mb",
        stats::peak_rss_mb("self").ok_or("cannot read /proc/self/status")?,
    );
    report.set("io_cost_ratio", stats::geomean(&io));
    report.set("makespan_ratio", stats::geomean(&span_ratios));
    report.note(format!(
        "stream-1m: {} calls over {} passes, call latency {}",
        lat_ms.len(),
        pass_s.len(),
        lat.describe("ms")
    ));
    for (k, &(f, name)) in calls.iter().enumerate() {
        let fam = &fams[f];
        if let Some(a) = &first[k] {
            let call_ms: Vec<f64> = lat_ms
                .iter()
                .zip(&call_of)
                .filter(|&(_, &c)| c == k)
                .map(|(&l, _)| l)
                .collect();
            report.note(format!(
                "  {:<8} {:<15} nodes={} edges={} budget={} cost={} moves={} p50={:.3} ms",
                fam.name,
                name,
                fam.graph.cdag().len(),
                fam.graph.cdag().edge_count(),
                fam.budget,
                a.cost,
                a.moves,
                stats::median(&call_ms)
            ));
        }
    }

    if args.trace {
        crate::set_exec_metrics(&mut report, &tracer);
        let layer = layer_metrics(&fams, &mut report);
        let g = gen_tracer.totals()["giga.gen"];
        report.set("giga.gen_ms", g.total_ns as f64 / g.count as f64 / 1e6);
        report.set("trace.overhead_pct", stats::overhead_pct(&pass_s));
        gen_tracer.append(&tracer);
        gen_tracer.append(&layer);
        let path = args
            .out_dir
            .join(format!("trace-stream-1m-{}.jsonl", args.seed));
        gen_tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!("spans: {}", path.display()));
    }
    report.gate = gate;
    Ok(report)
}

/// Per-layer metrics of the streaming kernels, called directly for their
/// statistics, and of the replay validator; returns their spans.
fn layer_metrics(fams: &[Family], report: &mut Report) -> Tracer {
    let mut layer = Tracer::new(true);
    let (mut evictions, mut cuts, mut moves, mut edges) = (0u64, 0u64, 0usize, 0usize);
    for (k, fam) in fams.iter().enumerate() {
        let g = fam.graph.cdag();
        edges += g.edge_count();
        let (ws, wst) = layer
            .time("window", k as u64, || {
                window_schedule_with(g, fam.budget, &WindowConfig::default())
            })
            .expect("budget is the Prop. 2.3 minimum");
        evictions += wst.evictions;
        let (ss, sst) = layer
            .time("slab", k as u64, || {
                slab_schedule_with(g, fam.budget, &SlabConfig::default())
            })
            .expect("budget is the Prop. 2.3 minimum");
        cuts += sst.cuts;
        for s in [&ws, &ss] {
            moves += s.len();
            let _ = layer.time("validate", k as u64, || validate_schedule(g, fam.budget, s));
        }
    }
    let lt = layer.totals();
    report.set(
        "window.ns_per_edge",
        lt["window"].total_ns as f64 / edges as f64,
    );
    report.set("window.evictions", evictions as f64);
    report.set(
        "slab.ns_per_edge",
        lt["slab"].total_ns as f64 / edges as f64,
    );
    report.set("slab.cuts", cuts as f64);
    report.set(
        "validate.ns_per_move",
        lt["validate"].total_ns as f64 / moves as f64,
    );
    report.set("sched.moves", moves as f64);
    layer
}
