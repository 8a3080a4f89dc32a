//! ```sh
//! perfbench --workload serve-repeat --seed 1 --seconds 10 --trace 0 \
//!     --pebblyn target/release/pebblyn [--out .bench_out]
//! ```
//!
//! Prints notes, then one JSON result line.  Exit 0 after a complete run
//! (failed checks are reported in the result, not by the exit code), 2
//! on a usage error, 1 when the run could not be made.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match perfbench::run(&args) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for f in report.gate.failures.iter().take(20) {
                println!("FAILED CHECK: {f}");
            }
            println!("{}", report.result_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
