//! A real `dbtoasterd` child process, run as an operator runs it: metrics
//! on, views registered with `--view`, ports picked by the kernel.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use dbtoaster::net::NetClient;

use crate::workload::Inputs;

/// Build `dbtoasterd` from the checkout's own sources into the directory
/// Cargo was told to use, and return where the binary is. A finished build
/// is a no-op; the time is never part of `setup_s`.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "dbtoaster-net"])
        .args(["--bin", "dbtoasterd"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dbtoasterd failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = root.join(target).join("release").join("dbtoasterd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

pub struct Daemon {
    child: Child,
    pub addr: String,
    metrics_addr: String,
    /// Keeps reading the child's log so a chatty daemon never blocks on a
    /// full pipe; ends when the child closes its end.
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start the daemon and open the first connection to it. The seconds
    /// returned run from just before `spawn` to the first reply on that
    /// connection: process start, bind, catalog, compile + register +
    /// lower of every view, and the accept loop's poll.
    pub fn spawn(bin: &Path, inputs: &Inputs) -> Result<(Daemon, NetClient, f64), String> {
        let started = Instant::now();
        let mut command = Command::new(bin);
        command.args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"]);
        for spec in inputs.schema_specs() {
            command.arg("--schema").arg(spec);
        }
        for (name, sql) in &inputs.views {
            command.arg("--view").arg(format!("{name}={sql}"));
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut log = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            metrics_addr: String::new(),
            stderr: None,
        };
        // The daemon logs the metrics endpoint, then the listen address.
        let mut seen = String::new();
        while daemon.addr.is_empty() {
            let mut line = String::new();
            match log.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return Err(format!("dbtoasterd exited during start-up:\n{seen}")),
            }
            if let Some(endpoint) = field(&line, "endpoint=http://") {
                daemon.metrics_addr = endpoint.trim_end_matches("/metrics").to_string();
            } else if line.contains("msg=serving ") {
                daemon.addr = field(&line, "addr=").unwrap_or_default().to_string();
            }
            seen.push_str(&line);
        }
        daemon.stderr = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut log, &mut std::io::sink());
        }));
        let mut client = NetClient::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
        client.stats().map_err(|e| e.to_string())?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((daemon, client, seconds))
    }

    /// `memory_bytes()` of the maintained maps, read the way an operator
    /// reads it: the `dbt_store_bytes` gauge of the metrics endpoint.
    pub fn state_bytes(&self) -> Result<f64, String> {
        let mut stream = TcpStream::connect(&self.metrics_addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        stream
            .read_to_string(&mut body)
            .map_err(|e| e.to_string())?;
        body.lines()
            .find_map(|line| line.strip_prefix("dbt_store_bytes "))
            .and_then(|value| value.trim().parse().ok())
            .ok_or_else(|| "the metrics endpoint served no dbt_store_bytes".to_string())
    }

    /// `VmHWM` of the child: the most memory it ever held resident.
    pub fn peak_rss_bytes(&self) -> Result<f64, String> {
        peak_rss_of(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to stop, then wait for the process to end.
    pub fn shutdown(mut self, client: &mut NetClient) -> Result<(), String> {
        client.shutdown_server().map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.join_log();
        if status.success() {
            Ok(())
        } else {
            Err(format!("dbtoasterd ended with {status}"))
        }
    }

    fn join_log(&mut self) {
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    /// Whatever path led here, no child outlives the benchmark.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_log();
    }
}

/// `VmHWM` of this process.
pub fn own_peak_rss_bytes() -> Result<f64, String> {
    peak_rss_of("/proc/self/status")
}

fn peak_rss_of(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM"))
}

/// The value of a `key=value` logfmt field (`key` includes the `=`).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest.split_whitespace().next().unwrap_or(""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logfmt_fields_and_own_rss_parse() {
        let line = "ts=1 level=info msg=serving addr=127.0.0.1:35759 relations=2\n";
        assert_eq!(field(line, "addr="), Some("127.0.0.1:35759"));
        assert_eq!(field(line, "endpoint="), None);
        assert!(own_peak_rss_bytes().unwrap() > 1e6);
    }
}
