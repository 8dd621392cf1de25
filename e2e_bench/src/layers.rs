//! The per-layer metrics. A traced run of every workload prints every
//! `per_layer` entry of `BENCHMARK.json`; a layer the workload never
//! enters reads 0 and says so.

use std::collections::BTreeMap;

use mfgcp::core::Params;
use mfgcp::obs::{Event, Kind, Value};

use crate::report::Report;
use crate::spans::{self, SpanRec};
use crate::stats::mean;

/// The benchmark's definition; its `per_layer` list is the catalog.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every per-layer metric of `BENCHMARK.json`, in its
/// order.
pub fn catalog() -> Vec<(&'static str, &'static str)> {
    let list = BENCHMARK_JSON
        .split_once("\"per_layer\"")
        .and_then(|(_, rest)| rest.split_once('['))
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list)
        .expect("BENCHMARK.json has a per_layer list");
    list.split('}')
        .filter(|entry| entry.contains('{'))
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .split_once(&format!("\"{key}\""))
                    .and_then(|(_, rest)| rest.split('"').nth(1))
                    .unwrap_or_else(|| panic!("per_layer entry without {key}: {entry}"))
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Per-layer values gathered by a traced run, keyed by catalog name.
pub struct Layers {
    catalog: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            catalog: catalog(),
            values: BTreeMap::new(),
        }
    }
}

impl Layers {
    /// Record `name`; `note` gives the base of a ratio or how the value
    /// was obtained.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            self.catalog.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, (value, note.into()));
    }

    /// Emit every catalog metric into `report`.
    pub fn emit(self, report: &mut Report, workload: &str) {
        for &(name, unit) in &self.catalog {
            let (value, note) =
                self.values.get(name).cloned().unwrap_or_else(|| {
                    (0.0, format!("layer not entered by the {workload} workload"))
                });
            report.metric(name, value, unit, note);
        }
    }

    /// Solver and PDE busy times folded from the `solver.*` spans in
    /// `events`; exact counts come from the first solve, and the
    /// convergence tally from the first `first_n` solves (`what`).
    pub fn fold_solver(&mut self, events: &[Event], params: &Params, first_n: usize, what: &str) {
        let all = spans::closed_spans(events);
        let (self_ns, total_ns) = spans::self_time(
            &all,
            "solver.solve",
            &["solver.hjb", "solver.fpk", "solver.continuation"],
        );
        self.set(
            "core.solve_self_share",
            self_ns as f64 / total_ns as f64,
            format!(
                "base: {:.1} ms of solver.solve, {:.1} ms outside hjb/fpk/continuation",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            ),
        );
        for (metric, span) in [
            ("core.continuation_ms", "solver.continuation"),
            ("pde.hjb_pass_ms", "solver.hjb"),
            ("pde.fpk_pass_ms", "solver.fpk"),
        ] {
            let ms = spans::durations_ms(&all, span);
            self.set(
                metric,
                mean(&ms),
                format!("mean {span} span, n={}", ms.len()),
            );
        }
        self.set(
            "pde.bytes_per_pass",
            (params.time_steps * params.grid_h * params.grid_q * 8 * 3) as f64,
            format!(
                "computed: {} steps x {}x{} grid x 3 f64 fields (read previous, read coefficient, write next)",
                params.time_steps, params.grid_h, params.grid_q
            ),
        );

        let first: &SpanRec = all
            .iter()
            .find(|s| s.name == "solver.solve")
            .expect("a traced solve");
        let hjb = spans::inside(&all, first, "solver.hjb").count();
        let fpk = spans::inside(&all, first, "solver.fpk").count();
        self.set(
            "pde.hjb_passes",
            hjb as f64,
            "solver.hjb spans in the first solve",
        );
        self.set(
            "pde.fpk_passes",
            fpk as f64,
            "solver.fpk spans in the first solve",
        );
        self.set(
            "pde.column_solves",
            ((hjb + fpk) * params.time_steps * params.grid_h) as f64,
            format!(
                "computed: ({hjb}+{fpk}) passes x {} steps x {} h-columns, first solve",
                params.time_steps, params.grid_h
            ),
        );

        let solves: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == Kind::SpanClose && e.name == "solver.solve")
            .take(first_n)
            .collect();
        let bad = solves
            .iter()
            .filter(|e| matches!(e.field("converged"), Some(Value::Bool(false))))
            .count();
        self.set(
            "core.unconverged_solves",
            bad as f64,
            format!(
                "solver.solve spans closed with converged=false, of the {} solves of {what}",
                solves.len()
            ),
        );
    }

    /// The ratios every traced run takes from its three phases: traced
    /// (`traced_ms`), untraced at the default (`default_ms`) and untraced
    /// at one worker thread (`single_ms`), each the p50 of `op`.
    pub fn phases(&mut self, single_ms: f64, default_ms: f64, traced_ms: f64, op: &str) {
        self.set(
            "core.parallel_speedup",
            single_ms / default_ms,
            format!(
                "base: {op} p50 {single_ms:.4} ms at worker_threads 1 / {default_ms:.4} ms at the default ({} cores)",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            ),
        );
        self.set(
            "obs.trace_overhead_share",
            traced_ms / default_ms - 1.0,
            format!("base: {op} p50 {traced_ms:.4} ms traced vs {default_ms:.4} ms untraced"),
        );
    }

    /// Telemetry records per unit operation of the traced phase.
    pub fn events_per_op(&mut self, events: usize, ops: usize, op: &str) {
        self.set(
            "obs.events_per_op",
            events as f64 / ops as f64,
            format!("{events} telemetry records over {ops} x {op}"),
        );
    }
}
