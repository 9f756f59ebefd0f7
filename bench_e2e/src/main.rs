//! `bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--trace-out PATH]`
//!
//! Runs one workload and prints, as the last line of standard output, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exit code
//! 0 when the run completed (check `correct`), 1 when it could not, 2 on
//! bad usage.

use culda_bench_e2e::{run, workload, Opts, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_e2e: {msg}");
    eprintln!(
        "usage: bench_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut name = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        started,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("{flag} {value:?} is not valid"));
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v >= 0.0 => opts.seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad(),
            },
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(name) = name else {
        return usage("--workload is required");
    };
    let Some(w) = workload(&name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    match run(&w, &opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_e2e: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
