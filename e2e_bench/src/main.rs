//! End-to-end benchmark of the configurations `mfgcp` users run.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload solve|simulate|market|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run times the workload's unit operation from
//! outside, with the program's telemetry off, and reports the end-to-end
//! metrics. With `--trace 1` it records the program's own spans into an
//! in-memory sink, times calls into each crate's public functions, and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Every check runs outside the timed intervals and counts toward
//! `attempted`, and toward `failed` when it fails. A failed check of an
//! output against its reference (bit identity, audit, 0-ULP lookup,
//! warm-vs-cold distance, case-2 tally) also makes `correct` false; a
//! solve of `solve` or `serve` that stops unconverged, which the program
//! reports itself, only counts in `failed`. The epoch solves inside a
//! simulation are not operations of the benchmark: the engine installs
//! each one whether or not it converged, and every run prints how many
//! did not (`unconverged_epoch_solves`). Every report is stamped with
//! the host's available parallelism, CPU model, rustc version and git
//! hash.
//!
//! Every workload reports the same end-to-end metrics; what the timed
//! operation is depends on the workload (the report prints each under
//! its workload-specific name too):
//!
//! | metric        | solve                  | simulate                    | market                  | serve                       |
//! |---------------|------------------------|-----------------------------|-------------------------|-----------------------------|
//! | `op_ms_p50`   | cold solve             | policy + `Simulation` + run | slot interval           | per-point query round trip  |
//! | `op_ms_tail`  | cold solve p75         | run p75                     | slot p90                | query p75                   |
//! | `aux_ms_p50`  | warm `solve_from`      | `--threads 1 --audit` run   | whole run               | 256-pair slot batch         |
//! | `setup_s`     | 5 x (solver + warm-up) | 5 x warm-up `mfgcp simulate`| build + epoch-0 prepare | 5 x (artifacts + server)    |
//! | `peak_rss_mb` | end of run             | end of run                  | after the first run     | end of run                  |
//!
//! Every timing but `serve`'s query and batch round trips is process
//! CPU time (all threads) in reference-host units: a run times a fixed
//! calibration kernel between its operations and scales its CPU times
//! by the kernel's time on the reference host over its time in the run
//! (`stats::Calibration`). On a shared 2-vCPU virtual machine the wall
//! time of the default worker threads, which are spawned anew for every
//! time step, swings up to 2.5x with the CPU time the hypervisor gives
//! other guests, and the speed of the same code drifts by a third from
//! one minute to the next; CPU time leaves the first out and the
//! calibration the second. Wall times are printed beside, under their
//! workload-specific names; `core.parallel_speedup` in the traced run
//! compares wall times. `serve` gates wall-clock round trips, which
//! are what its closed loop waits for.
//!
//! `simulate` gates the p75 of its runs, the highest percentile with at
//! least ten samples beyond it at the benchmark's run length. `solve`
//! gates the p75 of its cold solves and prints the p90. `market` gates
//! the p90 of its slots, `serve` the p75 of its queries and prints the
//! p90 and p99. `market` gates the median over its simulations of each
//! one's slot statistic, `serve` the median over the run's seconds of
//! each second's, so a host stall that spoils one trial moves the figure
//! by a rank at most. Set-up times are medians over repeated set-ups
//! (over the runs, for `market`). The failure share, queries per second,
//! slot-batch points per second and the host's CPU steal share during
//! the run are printed for the reader; the failure count is the JSON
//! `failed`.
//!
//! The inputs come from `--seed` only: the drift chain of `solve`, the
//! simulation seed of each `simulate`/`market` run, the query points of
//! `serve`. The set-up warm-ups run the CLI defaults exactly.

mod layers;
mod probes;
mod report;
mod serve;
mod sim;
mod solve;
mod spans;
mod stats;

use report::Report;

/// How many times a run repeats its set-up; the median is reported.
pub const SETUPS: usize = 5;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: mfgcp-e2e-bench --workload solve|simulate|market|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let steal_before = report::cpu_steal();
    match args.workload.as_str() {
        "solve" => solve::run(&args, &mut report),
        "simulate" => sim::run_simulate(&args, &mut report),
        "market" => sim::run_market(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, report::cpu_steal()) {
        report.info(
            "host_steal_share",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            "share",
            "CPU time the hypervisor gave other guests during this run: runs with a high share are not like for like".into(),
        );
    }
    report.print(&format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
}
