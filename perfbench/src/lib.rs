//! # perfbench — the repository benchmark
//!
//! One binary runs three named workloads against the public entry points
//! (`pebblyn serve` over its unix socket, `schedulers::api::execute`,
//! `exact::ExactSolver`), checks every answer, and prints every metric
//! with its unit.  `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is a separate run that wraps the benchmark's own calls
//! into each layer in spans and reports the per-layer metrics.  See
//! `NOTES.md` for what each workload and metric means and why it was
//! chosen.

#![forbid(unsafe_code)]

pub mod exact;
pub mod gate;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("max_rps_slo", "req/s"),
    ("edges_per_s", "edges/s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("io_cost_ratio", "ratio"),
    ("makespan_ratio", "ratio"),
];

/// The per-layer metrics every traced run prints, with their units.  A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("canon.identity_us", "us"),
    ("canon.canonical_us", "us"),
    ("canon.exact_frac", "ratio"),
    ("cache.identity_hit_frac", "ratio"),
    ("cache.canon_hit_frac", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.entries", "count"),
    ("service.handle_us", "us"),
    ("server.wait_us", "us"),
    ("server.shed_frac", "ratio"),
    ("gen.lateness_ms", "ms"),
    ("graphs.build_us", "us"),
    ("sched.greedy-belady.execute_us", "us"),
    ("sched.partition-belady.execute_us", "us"),
    ("sched.comm-list.execute_us", "us"),
    ("sched.topo-window.execute_us", "us"),
    ("sched.slab-partition.execute_us", "us"),
    ("sched.moves", "count"),
    ("validate.ns_per_move", "ns"),
    ("window.ns_per_edge", "ns"),
    ("window.evictions", "count"),
    ("slab.ns_per_edge", "ns"),
    ("slab.cuts", "count"),
    ("giga.gen_ms", "ms"),
    ("exact.states_expanded", "count"),
    ("exact.states_per_s", "1/s"),
    ("exact.open_list_peak", "count"),
    ("exact.symmetry_pruned", "count"),
    ("exact.reexpansions", "count"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve-repeat", "stream-1m", "exact-certify"];

/// Threads the benchmark allows itself and the daemon: the machine's
/// parallelism, capped at two.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The span name of an executor call to scheduler `name` (its per-layer
/// metric is the span name plus `_us`) for the schedulers the workloads
/// call.
pub fn exec_span(name: &str) -> &'static str {
    match name {
        "greedy-belady" => "sched.greedy-belady.execute",
        "partition-belady" => "sched.partition-belady.execute",
        "comm-list" => "sched.comm-list.execute",
        "topo-window" => "sched.topo-window.execute",
        "slab-partition" => "sched.slab-partition.execute",
        _ => "sched.other.execute",
    }
}

/// Set `sched.<name>.execute_us` (mean span duration) for every
/// executor span `tracer` recorded.
pub fn set_exec_metrics(report: &mut Report, tracer: &trace::Tracer) {
    for (name, t) in tracer.totals() {
        if name.starts_with("sched.") && name.ends_with(".execute") {
            report.set(&format!("{name}_us"), t.mean_us());
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// The `pebblyn` binary the serve workloads start as the daemon.
    pub pebblyn: Option<PathBuf>,
    /// Where spans, sockets and other run files go.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1
    /// [--pebblyn PATH] [--out DIR]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut pebblyn = None;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--pebblyn" => pebblyn = Some(PathBuf::from(value)),
                "--out" => out_dir = PathBuf::from(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (valid: {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            pebblyn,
            out_dir,
        })
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests sent or calls made, plus checks.
    pub attempted: u64,
    /// Requests that were shed, rejected or unanswered.
    pub refused: u64,
    /// Correctness checks.
    pub gate: gate::Gate,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final result line: every metric of the run's kind, by name,
    /// with its unit.  Panics if a workload left an end-to-end metric
    /// unset (a benchmark bug, not a program failure).
    pub fn result_json(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        let failed = self.gate.failed() + self.refused;
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
            self.gate.failed() == 0,
            self.attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// A SplitMix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A uniformly random permutation of `0..n`.
    pub fn perm(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.range(0, i as u64) as usize);
        }
        p
    }
}

/// Run the selected workload.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut report = match args.workload.as_str() {
        "serve-repeat" => serve::run(args)?,
        "stream-1m" => stream::run(args)?,
        "exact-certify" => exact::run(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    report.attempted += report.gate.checks;
    Ok(report)
}
