//! `perfbench suite`: every workload several times, each run in a process
//! of its own (so `peak_rss_bytes` is that run's), one result per line in a
//! file `perfbench compare` reads.

use std::io::Write;
use std::process::Command;

use crate::json::Json;
use crate::workload::WORKLOADS;

pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut out, mut runs, mut seconds, mut smoke) = (None, 10u64, "15".to_string(), false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => out = Some(value()?.clone()),
            "--runs" => runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value()?.clone(),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out = out.ok_or("suite needs --out FILE")?;
    let mut file = std::fs::File::create(&out).map_err(|e| format!("{out}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in WORKLOADS {
        // Seeds 1..=runs untraced, then one traced pass on seed 1.
        for (seed, trace) in (1..=runs).map(|s| (s, 0)).chain([(1, 1)]) {
            let mut command = Command::new(&exe);
            command.args(["--workload", workload.name, "--seconds", &seconds]);
            command.args(["--seed", &seed.to_string(), "--trace", &trace.to_string()]);
            if smoke {
                command.arg("--smoke");
            }
            // The run's own notes (stderr) pass through; its report is kept.
            command.stderr(std::process::Stdio::inherit());
            let output = command.output().map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(last).map_err(|e| {
                format!(
                    "{} seed {seed} trace {trace} printed no result ({e})",
                    workload.name
                )
            })?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            eprintln!("{} seed {seed} trace {trace}: {last}", workload.name);
            let line = Json::obj([
                ("workload", Json::Str(workload.name.into())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(trace))),
                ("result", result),
            ]);
            writeln!(file, "{line}").map_err(|e| e.to_string())?;
        }
    }
    Ok(all_correct)
}
