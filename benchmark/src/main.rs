//! The STREX reproduction's benchmark: three workloads run in-process
//! against the program's public entry points, their outputs checked, and
//! each end-to-end metric printed with its unit and direction; with
//! `--trace 1`, a separate run that reports the per-layer metrics. See
//! `README.md` in this directory.

mod check;
mod docs;
mod fleet;
mod layers;
mod metrics;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["oltp-imiss", "mapreduce-data", "fleet-check"];

const USAGE: &str =
    "usage: strex-benchmark [--workload oltp-imiss|mapreduce-data|fleet-check|all] \
[--seed N] [--seconds S] [--trace 0|1]";

/// One run's settings.
pub struct Options {
    pub workload: String,
    /// Workload seed: the traces, pool sizes and think times derive from it.
    pub seed: u64,
    /// How long the timed phase runs (at least one round always runs).
    pub seconds: f64,
    /// `true` for the traced run, which reports per-layer metrics only.
    pub trace: bool,
}

impl Options {
    /// Where the traced run writes its spans, relative to the working
    /// directory.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".to_string(),
        seed: docs::REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                opts.workload = value.clone();
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(opts)
}

/// Runs every workload, each in a process of its own so that its memory
/// high-water mark is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", workload])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{workload}: {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        let rest: Vec<String> = args
            .chunks(2)
            .filter(|pair| pair[0] != "--workload")
            .flatten()
            .cloned()
            .collect();
        return run_all(&rest);
    }
    let outcome = match opts.workload.as_str() {
        "oltp-imiss" => check::run(docs::oltp_imiss, &opts),
        "mapreduce-data" => check::run(docs::mapreduce_data, &opts),
        _ => fleet::run(&opts),
    };
    match outcome {
        Ok(out) => {
            if opts.trace {
                println!("spans written to {}", opts.spans_path().display());
            }
            out.print(&opts.workload);
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
