//! The run report: host stamp, named metrics with units and bases, the
//! operation tally, and the one-line JSON result.

use std::fmt::Write as _;
use std::process::Command;

/// One reported metric.
pub struct Metric {
    /// Contract name (the key in `BENCHMARK.json`).
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the number is on this workload: its workload-specific name, sample
    /// count, or the base of a ratio.
    pub note: String,
}

/// Operation tally plus the metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks of an output against its reference; any one makes
    /// the run incorrect.
    pub wrong: u64,
    /// One line per failed check, printed before the result.
    pub failures: Vec<String>,
    /// Epoch solves the simulations installed, and those of them that
    /// stopped unconverged (see [`Report::epoch_solve`]).
    pub epoch_solves: u64,
    pub unconverged: Vec<String>,
    /// Contract metrics: printed and put in the JSON result.
    pub metrics: Vec<Metric>,
    /// Further figures printed for the reader only.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// A figure printed in the report but not part of the JSON result.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.info.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Count one checked output; `Err` marks it failed and the run
    /// incorrect, with a reason.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if outcome.is_err() {
            self.wrong += 1;
        }
        self.operation(outcome);
    }

    /// Record one epoch solve a simulation installed; `Err` says how it
    /// stopped unconverged. The engine installs such a solve anyway: it
    /// has no install gate yet. The simulation run still completes with
    /// the outputs its checks demand, so this is the program's known
    /// defect, not a failed operation of the benchmark: every run prints
    /// the count and each solve, outside `attempted`/`failed`.
    pub fn epoch_solve(&mut self, outcome: Result<(), String>) {
        self.epoch_solves += 1;
        if let Err(reason) = outcome {
            self.unconverged.push(reason);
        }
    }

    /// Count one attempted operation that can fail without a wrong output
    /// (a solve that reports it stopped unconverged); `Err` marks it
    /// failed with a reason.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
    }

    /// Print the human-readable report followed by the JSON result line.
    pub fn print(&self, header: &str) {
        println!("{header}");
        println!("{}", host_stamp());
        for m in &self.metrics {
            println!("{:<36} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note);
        }
        for m in &self.info {
            println!(
                "{:<36} {:>16.6} {:<10} {} (report only)",
                m.name, m.value, m.unit, m.note
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<36} {:>16.6} {:<10} failed {} of {} attempted operations, {} of them wrong outputs (report only; JSON `failed`/`attempted`)",
            "fail_share", share, "share", self.failed, self.attempted, self.wrong
        );
        for f in &self.failures {
            println!("failed: {f}");
        }
        if self.epoch_solves > 0 {
            println!(
                "{:<36} {:>16} {:<10} of {} epoch solves installed; the engine installs an unconverged solve without a gate (report only; not in JSON `failed`)",
                "unconverged_epoch_solves",
                self.unconverged.len(),
                "count",
                self.epoch_solves
            );
            for u in self.unconverged.iter().take(20) {
                println!("unconverged: {u}");
            }
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no non-finite numbers; a metric that could not be
            // measured reads 0 (and its note says why).
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Host facts stamped on every report, so results from different hosts
/// are never compared as like for like.
fn host_stamp() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_line(&rustc, &["--version"]);
    let git = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    format!("host: available_parallelism={cpus} cpu=\"{model}\" rustc=\"{rustc}\" git={git}")
}

/// First stdout line of a finished command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Steal and total CPU time from the aggregate `/proc/stat` line, in
/// clock ticks.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
