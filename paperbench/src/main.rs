//! Benchmark entry point:
//!
//! ```text
//! paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, then the result line (the last line of
//! standard output). Exits 1 when any output check failed, 2 on bad
//! options.

use roadpart_paperbench::{provenance_line, result_line, run, write_trace, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&args);
    if let Some(trace) = out.trace.take() {
        match write_trace(&args, &trace) {
            Ok(path) => eprintln!("paperbench: trace written to {path}"),
            Err(e) => {
                out.checks
                    .check(false, || format!("writing the trace: {e}"));
            }
        }
    }
    for reason in &out.checks.reasons {
        eprintln!("paperbench: check failed: {reason}");
    }
    println!("{}", provenance_line(&out));
    println!("{}", result_line(&args, &out));
    if out.checks.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
