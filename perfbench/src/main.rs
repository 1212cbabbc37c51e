//! `perfbench` — kgreach's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lib-large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for the interaction table):
//!
//! - `lib-large` — in-process closed loop through `Session` on a
//!   multi-million-edge LUBM engine snapshot;
//! - `wire-small` — open-loop HTTP `/query` traffic against an in-process
//!   `kg-serve` on the 6.2k-edge `lubm-u2d6` graph;
//! - `write-mix` — a durable `kg-serve` taking closed-loop `/update`
//!   batches while open-loop reads run, then crash-recovered.
//!
//! The benchmark measures from outside: it calls public functions of the
//! layers and puts no timer inside the program. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate run that wraps the same
//! calls in spans and prints the per-layer metrics. Every answer is
//! checked against the oracle truth computed before timing starts; a
//! wrong answer makes the run print `"correct": false` and exit 1.
//! `--inject-wrong-answer` flips one expected answer to prove the check.

mod inputs;
mod lib_large;
mod report;
mod stats;
mod trace;
mod wire;
mod write_mix;

use report::Report;
use std::time::Duration;

/// Command-line arguments shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub inject_wrong_answer: bool,
    /// Internal: perform one set-up in this fresh process and print the
    /// resident memory it added (see [`report::probe_mem`]).
    pub mem_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<Option<&str>, String> {
        match raw.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => raw
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value")),
        }
    };
    let number = |name: &str, default: u64| -> Result<u64, String> {
        value(name)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{name}: '{v}' is not a whole number"))
        })
    };
    let workload = value("--workload")?.ok_or("--workload is required")?.to_owned();
    let seconds = number("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, got {n}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds: Duration::from_secs(seconds),
        trace,
        inject_wrong_answer: raw.iter().any(|a| a == "--inject-wrong-answer"),
        mem_probe: raw.iter().any(|a| a == "--mem-probe"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload lib-large|wire-small|write-mix --seed N \
                 --seconds N --trace 0|1 [--inject-wrong-answer]"
            );
            std::process::exit(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "lib-large" => lib_large::run(&args),
        "wire-small" => wire::run(&args),
        "write-mix" => write_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json(args.trace));
    if !report.correct {
        eprintln!("perfbench: {} wrong answer(s) or state mismatch(es)", report.wrong);
        std::process::exit(1);
    }
}
