//! The repository benchmark's measuring program.
//!
//! `swbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload through the public entry points — `CellSimulation`
//! or `MeshSimulation`, and in traced runs `LiveServer` with `run_mu` —
//! checks its outputs, and prints a detail line followed by one JSON
//! result line. With `--trace 1` it also records spans around its calls
//! into each layer and writes them to `--spans <file>` (CSV). It times
//! cold set-ups by running itself as `swbench setup <workload> <seed>`,
//! one child process at a time. `run.py`
//! builds this program, stamps the host, and adds the steadiness and
//! compare modes; README.md describes the workloads and metrics.

mod cell;
mod live;
mod mesh;
mod report;
mod session;
mod trace;
mod twin;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use cell::{CellSim, CellSpec};
use report::Outcome;
use session::ColdSetup;
use trace::Tracer;
use workload::THREADS;

const FLEET_TS: CellSpec = CellSpec {
    config: workload::fleet_ts,
    strategy: workload::TS,
    replays: 2,
    warmup: 120,
    per_second: 12.5,
};

const SIG_SLEEPERS: CellSpec = CellSpec {
    config: workload::sig_sleepers,
    strategy: workload::SIG,
    replays: 3,
    warmup: 40,
    per_second: 18.75,
};

const WORKLOADS: [&str; 3] = ["fleet-ts", "sig-sleepers", "mesh-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--spans" => spans = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

/// `swbench setup <workload> <seed>`: builds the workload's system once
/// and prints the seconds from the start of `main` until it could run
/// its first interval.
fn setup_once(argv: &[String], started: Instant) -> ExitCode {
    let [workload, seed] = argv else {
        eprintln!("swbench: setup takes <workload> <seed>");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse() else {
        eprintln!("swbench: setup: bad seed {seed}");
        return ExitCode::from(2);
    };
    let cell = |spec: &CellSpec| CellSim::new((spec.config)(seed, THREADS), spec.strategy);
    // The process exits right after printing; nothing needs dropping.
    match workload.as_str() {
        "fleet-ts" => std::mem::forget(cell(&FLEET_TS)),
        "sig-sleepers" => std::mem::forget(cell(&SIG_SLEEPERS)),
        "mesh-churn" => std::mem::forget(mesh::system(seed)),
        other => {
            eprintln!("swbench: setup: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    println!("{:?}", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("setup") {
        return setup_once(&argv[1..], started);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swbench: {e}");
            return ExitCode::from(2);
        }
    };
    let setup = ColdSetup {
        workload: args.workload.clone(),
        seed: args.seed,
    };
    let mut tracer = Tracer::new(args.trace);
    let out: Outcome = match args.workload.as_str() {
        "fleet-ts" => cell::run(&FLEET_TS, &setup, args.seconds, &mut tracer),
        "sig-sleepers" => cell::run(&SIG_SLEEPERS, &setup, args.seconds, &mut tracer),
        "mesh-churn" => mesh::run(&setup, args.seconds, &mut tracer),
        _ => unreachable!("parse_args checked the name"),
    };
    if let Some(path) = &args.spans {
        if args.trace {
            if let Err(e) = std::fs::write(path, tracer.to_csv()) {
                eprintln!("swbench: cannot write spans to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", out.detail_json(&args.workload, args.seed));
    println!("{}", out.result_json(args.trace));
    ExitCode::SUCCESS
}
