//! One benchmark for the view server. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! perfbench suite --out FILE [--runs N] [--seconds S] [--smoke]
//! perfbench compare A B
//! ```

mod compare;
mod daemon;
mod embedded;
mod json;
mod layers;
mod net;
mod outcome;
mod reference;
mod spans;
mod stats;
mod suite;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use outcome::Metric;
use reference::Reference;
use workload::{Family, Ingest, Inputs, Workload, EMBEDDED_BATCH, FULL, SMOKE};

/// What one invocation measured.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts and the like, for the human-readable report only.
    pub notes: String,
}

impl RunResult {
    /// The line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    let fields = [
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ];
                    (name.clone(), Json::obj(fields))
                })),
            ),
        ])
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Run one workload once. `root` is the checkout: where `dbtoasterd` is
/// built from and where the build directory lives.
pub fn run_one(root: &Path, args: &RunArgs) -> Result<RunResult, String> {
    let sizes = if args.smoke { SMOKE } else { FULL };
    let workload = args.workload;
    let bin = daemon::build(root)?;
    let inputs = Inputs::generate(workload.family, args.seed, &sizes);
    let reference = Reference::compute(workload.family, &inputs).map_err(|e| e.to_string())?;

    if args.trace {
        let generated;
        let orderbook = match workload.family {
            Family::OrderBook => &inputs,
            Family::Ssb => {
                generated = Inputs::generate(Family::OrderBook, args.seed, &sizes);
                &generated
            }
        };
        let trace_file = build_dir(root)
            .join("perfbench-trace")
            .join(format!("{}.json", workload.name));
        let pass = layers::Pass {
            workload,
            inputs: &inputs,
            orderbook,
            reference: &reference,
            bin: &bin,
            sizes: &sizes,
            seconds: args.seconds,
            seed: args.seed,
        };
        let report = pass.run(&trace_file)?;
        return Ok(RunResult {
            correct: report.failed == 0,
            attempted: report.attempted.max(1),
            failed: report.failed,
            metrics: report.metrics,
            notes: format!("events {}", inputs.describe()),
        });
    }

    let mut outcome = match workload.ingest {
        Ingest::Embedded => embedded::run(&inputs, &sizes, args.seconds)?,
        daemon_path => {
            // What the daemon must end with, bit for bit: the in-process
            // server over the same stream.
            let in_process =
                embedded::rep(&inputs, &inputs.events, EMBEDDED_BATCH, false, 1, None)?;
            let expected = in_process.snapshots.clone();
            drop(in_process);
            if daemon_path == Ingest::FeedDaemon {
                net::run_feed(&bin, &inputs, &sizes, args.seconds, expected)?
            } else {
                net::run_rpc(&bin, &inputs, &sizes, args.seconds, expected)?
            }
        }
    };
    let wrong = reference.mismatches(&outcome.expected);
    outcome.count_reference_check(wrong);
    let notes = format!(
        "events {} mismatches {} {}",
        inputs.describe(),
        outcome.mismatches,
        outcome.diagnostics()
    );
    Ok(RunResult {
        correct: outcome.correct(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome.end_to_end(),
        notes,
    })
}

/// Where Cargo was told to build: the traced pass leaves its trace there.
fn build_dir(root: &Path) -> PathBuf {
    root.join(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Every metric by name with its unit, under the machine it ran on.
pub fn print_report(args: &RunArgs, result: &RunResult) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={}",
        args.workload.name, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "# nproc={cores} rustc=\"{}\" commit={}",
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"])
    );
    println!("# {}", result.notes);
    for (name, value, unit) in &result.metrics {
        println!("{name:<48} {value:>18.4} {unit}");
    }
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      perfbench suite --out FILE [--runs N] [--seconds S] [--smoke]\n\
         \x20      perfbench compare A B",
        names.join("|")
    )
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, 15.0f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workload::find(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("suite") => suite::main(&args[1..]),
        _ => parse_run_args(&args).and_then(|run| {
            let root = std::env::current_dir().map_err(|e| e.to_string())?;
            let result = run_one(&root, &run)?;
            print_report(&run, &result);
            println!("{}", result.to_json());
            Ok(result.correct)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod smoke_test;
