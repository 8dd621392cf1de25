//! `simulate` and `market`: finite-population runs built from the
//! configurations `mfgcp simulate` parses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mfgcp::cli::{self, Command, Scheme};
use mfgcp::core::{ContentContext, Equilibrium};
use mfgcp::net::RandomWaypoint;
use mfgcp::obs::{Kind, MemorySink, RecorderHandle, Value};
use mfgcp::sde::SimRng;
use mfgcp::sim::baselines::{MfgCpPolicy, MostPopularCaching, RandomReplacement, Udcs};
use mfgcp::sim::{
    CachingPolicy, DecisionContext, EngineControl, SimConfig, SimReport, SimSnapshot, Simulation,
};

use crate::layers::Layers;
use crate::report::{peak_rss_mb, Report};
use crate::solve::Convergence;
use crate::spans;
use crate::stats::{
    beyond, median, mix, percentile, process_cpu_ms, Calibration, Stopwatch, Window,
};
use crate::{Args, SETUPS};

/// The market-heavy shape: flags on top of the `simulate` defaults.
pub const MARKET_FLAGS: &[&str] = &[
    "--edps",
    "300",
    "--requesters",
    "20000",
    "--contents",
    "6",
    "--epochs",
    "1",
    "--slots",
    "120",
    "--mobility",
];

/// Audit stride of the market workload's sampled audit.
const MARKET_AUDIT_SAMPLE: usize = 10;

/// A `mfgcp simulate` invocation as the CLI parses it.
#[derive(Clone)]
pub struct SimSpec {
    pub config: SimConfig,
    pub scheme: Scheme,
}

impl SimSpec {
    pub fn parse(flags: &[&str]) -> Self {
        let args: Vec<String> = std::iter::once("simulate")
            .chain(flags.iter().copied())
            .map(String::from)
            .collect();
        match cli::parse(&args) {
            Ok(Command::Simulate {
                mut config,
                scheme,
                mobility,
                ..
            }) => {
                if mobility {
                    config.mobility = Some(RandomWaypoint::default());
                }
                Self {
                    config: *config,
                    scheme,
                }
            }
            other => panic!(
                "`mfgcp {}` no longer parses to a simulation: {other:?}",
                args.join(" ")
            ),
        }
    }

    /// This configuration with `seed`, `worker_threads` and the audit
    /// stride (`0` = no audit) overridden.
    fn variant(&self, seed: u64, threads: Option<usize>, audit_sample: usize) -> SimConfig {
        let mut cfg = self.config.clone();
        cfg.seed = seed;
        if let Some(t) = threads {
            cfg.worker_threads = t;
            cfg.params.worker_threads = t;
        }
        cfg.audit = audit_sample > 0;
        cfg.audit_sample = audit_sample.max(1);
        cfg
    }

    /// The policy the CLI builds for this scheme.
    fn policy(&self, cfg: &SimConfig) -> Box<dyn CachingPolicy> {
        let params = cfg.params.clone();
        match self.scheme {
            Scheme::MfgCp => Box::new(MfgCpPolicy::new(params).expect("CLI params are valid")),
            Scheme::Mfg => {
                Box::new(MfgCpPolicy::without_sharing(params).expect("CLI params are valid"))
            }
            Scheme::Udcs => Box::new(Udcs::default()),
            Scheme::Mpc => Box::new(MostPopularCaching::default()),
            Scheme::Rr => Box::new(RandomReplacement),
        }
    }
}

/// One slot boundary: wall clock, process CPU ms, epoch, slot, finished.
type Tick = (Instant, f64, usize, usize, bool);

/// Slot-boundary clock: the engine calls it before every slot and once
/// after the last; it only reads the time.
#[derive(Default)]
struct SlotClock {
    ticks: Mutex<Vec<Tick>>,
}

impl EngineControl for SlotClock {
    fn at_slot_boundary(&self, snapshot: SimSnapshot) {
        let now = Instant::now();
        let cpu = process_cpu_ms();
        self.ticks.lock().expect("slot clock lock poisoned").push((
            now,
            cpu,
            snapshot.epoch,
            snapshot.slot,
            snapshot.finished,
        ));
    }
}

/// Forwarding wrapper around every run's policy. It records the
/// convergence of each epoch solve and the time of each `prepare_epoch`
/// (once per epoch, so untraced runs pay nothing measurable); with
/// `time_decide` it also times `decide`, from the worker threads.
struct WatchedPolicy {
    inner: Box<dyn CachingPolicy>,
    log: Arc<PolicyLog>,
    time_decide: bool,
}

#[derive(Default)]
struct PolicyLog {
    /// One entry per epoch, in order.
    prepare_ns: Mutex<Vec<u64>>,
    /// `(content, convergence)` of every epoch solve, in order.
    solves: Mutex<Vec<(usize, Convergence)>>,
    decide_ns: AtomicU64,
    decides: AtomicU64,
}

impl CachingPolicy for WatchedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn allows_sharing(&self) -> bool {
        self.inner.allows_sharing()
    }
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.inner.set_recorder(recorder);
    }
    fn prepare_epoch(&mut self, contexts: &[ContentContext]) {
        let t = Instant::now();
        self.inner.prepare_epoch(contexts);
        let ns = t.elapsed().as_nanos() as u64;
        self.log
            .prepare_ns
            .lock()
            .expect("policy log lock poisoned")
            .push(ns);
        self.log
            .solves
            .lock()
            .expect("policy log lock poisoned")
            .extend(
                self.inner
                    .prepared_equilibria()
                    .into_iter()
                    .map(|(k, eq)| (k, Convergence::of(eq))),
            );
    }
    fn prepared_equilibria(&self) -> Vec<(usize, &Equilibrium)> {
        self.inner.prepared_equilibria()
    }
    fn reprice(
        &self,
        content: usize,
        ctx: &ContentContext,
        occupancy: &[f64],
    ) -> Option<Equilibrium> {
        self.inner.reprice(content, ctx, occupancy)
    }
    fn install_equilibrium(&mut self, content: usize, equilibrium: Equilibrium) -> bool {
        self.inner.install_equilibrium(content, equilibrium)
    }
    fn decide(&self, ctx: &DecisionContext, rng: &mut SimRng) -> f64 {
        if !self.time_decide {
            return self.inner.decide(ctx, rng);
        }
        let t = Instant::now();
        let x = self.inner.decide(ctx, rng);
        self.log
            .decide_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.log.decides.fetch_add(1, Ordering::Relaxed);
        x
    }
}

/// One timed run: policy build + `Simulation::new` + `run`. Times are
/// wall ms; the `cpu` twins are process CPU ms of the same intervals.
struct RunTiming {
    report: SimReport,
    /// Whole run, ms.
    total_ms: f64,
    total_cpu_ms: f64,
    /// Start to the first slot boundary (build + epoch-0 prepare), ms.
    first_slot_ms: f64,
    first_slot_cpu_ms: f64,
    /// Slot intervals that contain no epoch-opening prepare, ms.
    slot_ms: Vec<f64>,
    slot_cpu_ms: Vec<f64>,
    /// Sum of every interval after the first boundary, ms.
    after_first_ms: f64,
    clearing_ns: u128,
    policy: Arc<PolicyLog>,
}

/// Optional instrumentation of a run (traced phase only).
#[derive(Default)]
struct Probes {
    recorder: Option<RecorderHandle>,
    time_decide: bool,
}

/// Run one simulation of `cfg` and time it. Afterwards, outside the
/// timed interval, every epoch solve is recorded in `report` with
/// whether it converged within `Params::tolerance`
/// ([`Report::epoch_solve`]).
fn timed_run(spec: &SimSpec, cfg: SimConfig, probes: &Probes, report: &mut Report) -> RunTiming {
    let clock = Arc::new(SlotClock::default());
    let log = Arc::new(PolicyLog::default());
    let seed = cfg.seed;
    let t0 = Stopwatch::start();
    let policy = Box::new(WatchedPolicy {
        inner: spec.policy(&cfg),
        log: Arc::clone(&log),
        time_decide: probes.time_decide,
    });
    let mut sim = Simulation::new(cfg, policy).expect("CLI configuration is valid");
    if let Some(rec) = &probes.recorder {
        sim.set_recorder(rec.clone());
    }
    sim.set_control(Arc::clone(&clock) as Arc<dyn EngineControl>);
    let sim_report = sim.run();
    let (total_ms, total_cpu_ms) = t0.stop();
    let clearing_ns = sim.market_clearing_nanos();
    drop(sim);
    for (k, c) in log.solves.lock().expect("policy log lock poisoned").iter() {
        report.epoch_solve(c.check(&format!(
            "epoch solve of content {k}, simulation seed {seed}"
        )));
    }
    let ticks = clock
        .ticks
        .lock()
        .expect("slot clock lock poisoned")
        .clone();
    let first = ticks
        .first()
        .expect("the engine publishes at least one boundary");
    let first_slot_ms = (first.0 - t0.wall).as_secs_f64() * 1e3;
    let first_slot_cpu_ms = first.1 - t0.cpu;
    let mut slot_ms = Vec::with_capacity(ticks.len());
    let mut slot_cpu_ms = Vec::with_capacity(ticks.len());
    for w in ticks.windows(2) {
        let (_, _, epoch, slot, finished) = w[1];
        // The interval into the first slot of a later epoch also holds
        // that epoch's re-association and prepare.
        let opens_epoch = slot == 0 && epoch > 0 && !finished;
        if !opens_epoch {
            slot_ms.push((w[1].0 - w[0].0).as_secs_f64() * 1e3);
            slot_cpu_ms.push(w[1].1 - w[0].1);
        }
    }
    let after_first_ms = (ticks.last().expect("ticks").0 - first.0).as_secs_f64() * 1e3;
    RunTiming {
        report: sim_report,
        total_ms,
        total_cpu_ms,
        first_slot_ms,
        first_slot_cpu_ms,
        slot_ms,
        slot_cpu_ms,
        after_first_ms,
        clearing_ns,
        policy: log,
    }
}

/// Bit-level fingerprint of a report's results (everything but the
/// audit): Debug prints each f64 in its shortest round-trip form.
fn results_key(r: &SimReport) -> String {
    format!("{}|{}|{:?}|{:?}", r.scheme, r.epochs, r.per_edp, r.series)
}

fn check_identical(run: &SimReport, reference: &SimReport, what: &str) -> Result<(), String> {
    if results_key(run) == results_key(reference) {
        Ok(())
    } else {
        Err(format!("{what}: report differs from its reference run"))
    }
}

fn check_audit(r: &SimReport, what: &str) -> Result<(), String> {
    match &r.audit {
        Some(a) if a.is_clean() => Ok(()),
        Some(a) => Err(format!(
            "{what}: audit found {} violations, first: {}",
            a.violations.len(),
            a.violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        )),
        None => Err(format!("{what}: audited run returned no audit report")),
    }
}

/// Seed of the `i`-th simulation of a run.
fn run_seed(seed: u64, i: u64) -> u64 {
    mix(seed, 1000 + i)
}

// ---------------------------------------------------------------- simulate

pub fn run_simulate(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut setups_cpu = Vec::new();
    let mut spec = None;
    for _ in 0..SETUPS {
        // The warm-up is exactly `mfgcp simulate`, CLI seed included.
        let t = Stopwatch::start();
        let s = SimSpec::parse(&[]);
        let warm = timed_run(&s, s.config.clone(), &Probes::default(), report);
        let (wall, cpu) = t.stop();
        setups.push(wall / 1e3);
        setups_cpu.push(cpu / 1e3);
        report.check(if warm.report.series.is_empty() {
            Err("warm-up simulation produced no slots".into())
        } else {
            Ok(())
        });
        spec = Some(s);
    }
    let spec = spec.expect("at least one set-up");
    if args.trace {
        return traced_simulate(args, &spec, report);
    }
    let m = measure_simulate(&spec, args.seed, args.seconds, None, report);
    let n = m.total_ms.len();
    let scale = m.calibration.scale();
    report.metric(
        "op_ms_p50",
        median(&m.total_cpu_ms) * scale,
        "ms",
        format!("sim_run_ms_p50 in reference CPU ms: policy + Simulation::new + run, n={n}"),
    );
    let tail = SIMULATE_TAIL;
    report.metric(
        "op_ms_tail",
        percentile(&m.total_cpu_ms, tail) * scale,
        "ms",
        format!(
            "sim_run_ms_p{tail:.0} in reference CPU ms: {} samples beyond it",
            beyond(&m.total_cpu_ms, tail)
        ),
    );
    report.metric(
        "aux_ms_p50",
        median(&m.reference_cpu_ms) * scale,
        "ms",
        format!(
            "reference_run_ms_p50 in reference CPU ms: the same runs at --threads 1 --audit, n={n}"
        ),
    );
    report.metric(
        "setup_s",
        median(&setups_cpu) * scale,
        "s",
        format!("median of {SETUPS} set-ups in reference CPU s: parse CLI, warm-up simulation"),
    );
    report.info("calibration_scale", scale, "factor", m.calibration.note());
    for (name, samples, p) in [
        ("sim_run_ms_p50", &m.total_ms, 50.0),
        ("sim_run_ms_p75", &m.total_ms, tail),
        ("sim_run_ms_p90", &m.total_ms, 90.0),
        ("reference_run_ms_p50", &m.reference_ms, 50.0),
    ] {
        report.info(
            name,
            percentile(samples, p),
            "ms",
            format!("wall time, {} samples beyond it", beyond(samples, p)),
        );
    }
    report.info(
        "setup_wall_s",
        median(&setups),
        "s",
        format!("wall time, median of {SETUPS} set-ups"),
    );
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM of this process".into(),
    );
}

/// Tail percentile of the simulate workload: the highest with at least
/// ten samples beyond it at the benchmark's run length.
const SIMULATE_TAIL: f64 = 75.0;

/// Calibration kernels timed before each simulation.
const CALIBRATIONS_PER_RUN: usize = 2;

/// Wall and CPU times of a measuring loop's runs, and the calibration
/// kernel timed before each run.
#[derive(Default)]
struct SimSamples {
    total_ms: Vec<f64>,
    total_cpu_ms: Vec<f64>,
    /// The audited `worker_threads: 1` reference of each run.
    reference_ms: Vec<f64>,
    reference_cpu_ms: Vec<f64>,
    runs: Vec<RunTiming>,
    calibration: Calibration,
}

/// Timed simulations at the default configuration (or `threads`), each
/// checked against an audited `worker_threads: 1` reference run of the
/// same seed.
fn measure_simulate(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    threads: Option<usize>,
    report: &mut Report,
) -> SimSamples {
    let mut s = SimSamples::default();
    let window = Window::new(seconds);
    let mut i = 0;
    while window.open() || i == 0 {
        let run_seed = run_seed(seed, i);
        s.calibration.block(CALIBRATIONS_PER_RUN);
        let run = timed_run(
            spec,
            spec.variant(run_seed, threads, 0),
            &Probes::default(),
            report,
        );
        s.total_ms.push(run.total_ms);
        s.total_cpu_ms.push(run.total_cpu_ms);
        let reference = timed_run(
            spec,
            spec.variant(run_seed, Some(1), 1),
            &Probes::default(),
            report,
        );
        s.reference_ms.push(reference.total_ms);
        s.reference_cpu_ms.push(reference.total_cpu_ms);
        report.check(
            check_identical(&run.report, &reference.report, "simulate")
                .and_then(|()| check_audit(&reference.report, "simulate reference")),
        );
        s.runs.push(run);
        i += 1;
    }
    s
}

fn traced_simulate(args: &Args, spec: &SimSpec, report: &mut Report) {
    let mut layers = Layers::default();
    let sink = Arc::new(MemorySink::new());
    let probes = Probes {
        recorder: Some(RecorderHandle::new(Arc::clone(&sink))),
        time_decide: true,
    };
    // Traced phase: the first run carries the exact counts.
    let window = Window::new(args.seconds * 0.25);
    let mut traced = Vec::new();
    let mut i = 0;
    while window.open() || i == 0 {
        traced.push(timed_run(
            spec,
            spec.variant(run_seed(args.seed, i), None, 0),
            &probes,
            report,
        ));
        i += 1;
    }
    let plain = measure_simulate(spec, args.seed, args.seconds * 0.25, None, report);
    // Telemetry never changes results: each traced run must match the
    // untraced run of its seed.
    for (t, p) in traced.iter().zip(&plain.runs) {
        report.check(check_identical(&t.report, &p.report, "traced simulation"));
    }
    let single = measure_simulate(spec, args.seed, args.seconds * 0.25, Some(1), report);
    let audited = measure_audited(spec, args.seed, args.seconds * 0.25, 1, report);

    let events = sink.events();
    let traced_ms: Vec<f64> = traced.iter().map(|r| r.total_ms).collect();
    sim_layers(&mut layers, spec, &events, &traced);
    layers.set(
        "check.audit_overhead_share",
        median(&audited) / median(&plain.total_ms) - 1.0,
        format!(
            "base: run p50 {:.3} ms with --audit vs {:.3} ms without",
            median(&audited),
            median(&plain.total_ms)
        ),
    );
    layers.phases(
        median(&single.total_ms),
        median(&plain.total_ms),
        median(&traced_ms),
        "simulation",
    );
    layers.events_per_op(events.len(), traced.len(), "simulation");
    layers.emit(report, "simulate");
}

/// Audited runs (stride `sample`) at the default configuration, each
/// checked clean; returns their wall times.
fn measure_audited(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    sample: usize,
    report: &mut Report,
) -> Vec<f64> {
    let window = Window::new(seconds);
    let mut ms = Vec::new();
    let mut i = 0;
    while window.open() || i == 0 {
        let run = timed_run(
            spec,
            spec.variant(run_seed(seed, i), None, sample),
            &Probes::default(),
            report,
        );
        report.check(check_audit(&run.report, "audited run"));
        ms.push(run.total_ms);
        i += 1;
    }
    ms
}

/// Per-layer metrics of the sim, core and pde layers from traced runs.
fn sim_layers(
    layers: &mut Layers,
    spec: &SimSpec,
    events: &[mfgcp::obs::Event],
    traced: &[RunTiming],
) {
    let cfg = &spec.config;
    layers.fold_solver(
        events,
        &cfg.params,
        cfg.num_contents * cfg.epochs,
        "the first traced run",
    );
    let all = spans::closed_spans(events);
    let prepares: Vec<&spans::SpanRec> = all
        .iter()
        .filter(|s| s.name == "sim.prepare_epoch")
        .collect();
    let solves_in_prepare: usize = prepares
        .iter()
        .map(|p| spans::inside(&all, p, "solver.solve").count())
        .sum();
    layers.set(
        "core.solves_per_epoch",
        solves_in_prepare as f64 / prepares.len() as f64,
        format!(
            "solver.solve spans inside {} sim.prepare_epoch spans",
            prepares.len()
        ),
    );
    let first_solve = events
        .iter()
        .find(|e| e.kind == Kind::SpanClose && e.name == "solver.solve");
    if let Some(Value::U64(it)) = first_solve.and_then(|e| e.field("iterations")) {
        layers.set(
            "core.cold_picard_iterations",
            *it as f64,
            "fine-grid Picard iterations of the first epoch solve",
        );
    }

    let runs = traced.len() as f64;
    let stats: Vec<&PolicyLog> = traced.iter().map(|r| &*r.policy).collect();
    let prepares: Vec<Vec<u64>> = stats
        .iter()
        .map(|s| {
            s.prepare_ns
                .lock()
                .expect("policy log lock poisoned")
                .clone()
        })
        .collect();
    let prepare_ns = prepares.iter().flatten().sum::<u64>() as f64;
    let prepare_n = prepares.iter().map(Vec::len).sum::<usize>() as f64;
    let total_ms: f64 = traced.iter().map(|r| r.total_ms).sum();
    layers.set(
        "sim.prepare_epoch_ms",
        prepare_ns / prepare_n / 1e6,
        format!("mean CachingPolicy::prepare_epoch, n={prepare_n}"),
    );
    layers.set(
        "sim.prepare_share",
        prepare_ns / 1e6 / total_ms,
        format!(
            "base: {:.1} ms of prepare_epoch in {total_ms:.1} ms of runs",
            prepare_ns / 1e6
        ),
    );
    let first_run_decides = cfg.num_edps * cfg.num_contents * cfg.epochs * cfg.slots_per_epoch;
    let decides: f64 = stats
        .iter()
        .map(|s| s.decides.load(Ordering::Relaxed) as f64)
        .sum();
    let decide_ns: f64 = stats
        .iter()
        .map(|s| s.decide_ns.load(Ordering::Relaxed) as f64)
        .sum();
    layers.set(
        "sim.decide_calls",
        decides / runs,
        format!("CachingPolicy::decide calls per run (M x K x slots = {first_run_decides})"),
    );
    layers.set(
        "sim.decide_ns",
        decide_ns / decides,
        format!("mean CachingPolicy::decide, n={decides}"),
    );
    let slots: usize = traced.iter().map(|r| r.report.series.len()).sum();
    let clearing_ns: f64 = traced.iter().map(|r| r.clearing_ns as f64).sum();
    layers.set(
        "sim.market_clear_us_per_slot",
        clearing_ns / slots as f64 / 1e3,
        format!("Simulation::market_clearing_nanos over {slots} slots"),
    );
    // Slot time: every boundary interval after the first, minus the
    // prepares of later epochs; decide time runs on the worker threads,
    // so its wall share is its sum over the worker count.
    let slot_ns: f64 = traced.iter().map(|r| r.after_first_ms * 1e6).sum::<f64>()
        - prepares.iter().flat_map(|p| p.iter().skip(1)).sum::<u64>() as f64;
    let workers = worker_count(spec.config.worker_threads) as f64;
    layers.set(
        "sim.slot_other_share",
        1.0 - (clearing_ns + decide_ns / workers) / slot_ns,
        format!(
            "base: {:.1} ms of slots, {:.1} ms clearing, {:.1} ms decide / {workers} workers",
            slot_ns / 1e6,
            clearing_ns / 1e6,
            decide_ns / 1e6
        ),
    );
    let (c1, c2, c3) = traced[0].report.case_totals();
    layers.set(
        "sim.trades_case1",
        c1 as f64,
        "case-1 trades of the first traced run",
    );
    layers.set(
        "sim.trades_case2",
        c2 as f64,
        "case-2 trades of the first traced run",
    );
    layers.set(
        "sim.trades_case3",
        c3 as f64,
        "case-3 trades of the first traced run",
    );
}

/// The engine's worker count for a `worker_threads` setting.
fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

// ------------------------------------------------------------------ market

/// Tail percentile of the market workload's slot intervals.
const MARKET_TAIL: f64 = 90.0;

/// Calibration kernels timed before each market simulation.
const MARKET_CALIBRATIONS_PER_RUN: usize = 20;

pub fn run_market(args: &Args, report: &mut Report) {
    let spec = SimSpec::parse(MARKET_FLAGS);
    if args.trace {
        return traced_market(args, &spec, report);
    }
    let window = Window::new(args.seconds);
    let mut runs = Vec::new();
    let mut calibration = Calibration::default();
    let mut peak_after_first = 0.0;
    let mut i = 0;
    while window.open() || i == 0 {
        calibration.block(MARKET_CALIBRATIONS_PER_RUN);
        let run = timed_run(
            &spec,
            spec.variant(run_seed(args.seed, i), None, 0),
            &Probes::default(),
            report,
        );
        report.check(check_sharing(&run.report));
        runs.push(run);
        if i == 0 {
            // Later runs in the same process add allocator-arena growth
            // that varies from run to run; one `mfgcp simulate` process
            // runs one simulation.
            peak_after_first = peak_rss_mb();
        }
        i += 1;
    }
    // The sampled audit of the first run's seed, outside every timed
    // interval; it must be clean and leave the results untouched.
    let audited = timed_run(
        &spec,
        spec.variant(run_seed(args.seed, 0), None, MARKET_AUDIT_SAMPLE),
        &Probes::default(),
        report,
    );
    report.check(
        check_audit(&audited.report, "market sampled audit")
            .and_then(|()| check_identical(&audited.report, &runs[0].report, "market audited run")),
    );

    // Each simulation is one trial: the gated slot figures are medians
    // over the runs of each run's own statistic, the pooled ones printed
    // beside them.
    let scale = calibration.scale();
    let slot_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.slot_ms.iter().copied())
        .collect();
    let per_run = |stat: &dyn Fn(&[f64]) -> f64| {
        median(
            &runs
                .iter()
                .map(|r| stat(&r.slot_cpu_ms))
                .collect::<Vec<f64>>(),
        )
    };
    let n = slot_ms.len();
    report.metric(
        "op_ms_p50",
        per_run(&median) * scale,
        "ms",
        format!(
            "slot_ms_p50 in reference CPU ms: interval between slot boundaries, median of {} per-run p50s, n={n}",
            runs.len(),
        ),
    );
    let tail = |v: &[f64]| percentile(v, MARKET_TAIL);
    report.metric(
        "op_ms_tail",
        per_run(&tail) * scale,
        "ms",
        format!(
            "slot_ms_p{MARKET_TAIL:.0} in reference CPU ms: median of per-run p{MARKET_TAIL:.0}s ({} of each run's slots beyond)",
            beyond(&runs[0].slot_cpu_ms, MARKET_TAIL),
        ),
    );
    let totals: Vec<f64> = runs.iter().map(|r| r.total_cpu_ms).collect();
    report.metric(
        "aux_ms_p50",
        median(&totals) * scale,
        "ms",
        format!(
            "sim_run_ms_p50 in reference CPU ms: policy + Simulation::new + run, n={}",
            totals.len()
        ),
    );
    let firsts: Vec<f64> = runs.iter().map(|r| r.first_slot_cpu_ms / 1e3).collect();
    report.metric(
        "setup_s",
        median(&firsts) * scale,
        "s",
        format!(
            "median over {} runs of the time to the first slot (build + epoch-0 prepare) in reference CPU s",
            firsts.len()
        ),
    );
    report.info("calibration_scale", scale, "factor", calibration.note());
    report.info(
        "slot_ms_p50",
        median(&slot_ms),
        "ms",
        format!("wall time, pooled over {} runs", runs.len()),
    );
    report.info(
        "slot_ms_p90",
        tail(&slot_ms),
        "ms",
        format!("wall time, pooled over {} runs", runs.len()),
    );
    report.info(
        "sim_run_ms_p50",
        median(&runs.iter().map(|r| r.total_ms).collect::<Vec<f64>>()),
        "ms",
        "wall time".into(),
    );
    report.info(
        "setup_wall_s",
        median(
            &runs
                .iter()
                .map(|r| r.first_slot_ms / 1e3)
                .collect::<Vec<f64>>(),
        ),
        "s",
        "wall time to the first slot".into(),
    );
    report.metric(
        "peak_rss_mb",
        peak_after_first,
        "MB",
        "VmHWM of this process after its first simulation".into(),
    );
}

/// A market run fails unless peer sharing (case 2) happened.
fn check_sharing(r: &SimReport) -> Result<(), String> {
    let (_, c2, _) = r.case_totals();
    if c2 > 0 {
        Ok(())
    } else {
        Err("market run: no case-2 (peer sharing) trades".into())
    }
}

fn traced_market(args: &Args, spec: &SimSpec, report: &mut Report) {
    let mut layers = Layers::default();
    let sink = Arc::new(MemorySink::new());
    let probes = Probes {
        recorder: Some(RecorderHandle::new(Arc::clone(&sink))),
        time_decide: true,
    };
    let seed = run_seed(args.seed, 0);
    let traced = timed_run(spec, spec.variant(seed, None, 0), &probes, report);
    report.check(check_sharing(&traced.report));
    let plain = timed_run(
        spec,
        spec.variant(seed, None, 0),
        &Probes::default(),
        report,
    );
    report.check(check_identical(
        &plain.report,
        &traced.report,
        "market untraced run",
    ));
    let single = timed_run(
        spec,
        spec.variant(seed, Some(1), 0),
        &Probes::default(),
        report,
    );
    report.check(check_identical(
        &single.report,
        &traced.report,
        "market worker_threads 1 run",
    ));
    let audited = timed_run(
        spec,
        spec.variant(seed, None, 1),
        &Probes::default(),
        report,
    );
    report.check(check_audit(&audited.report, "market audited run"));

    let events = sink.events();
    sim_layers(&mut layers, spec, &events, std::slice::from_ref(&traced));
    let slots = |r: &RunTiming| median(&r.slot_ms);
    layers.set(
        "check.audit_overhead_share",
        slots(&audited) / slots(&plain) - 1.0,
        format!(
            "base: slot p50 {:.3} ms with --audit vs {:.3} ms without",
            slots(&audited),
            slots(&plain)
        ),
    );
    layers.phases(
        slots(&single),
        slots(&plain),
        slots(&traced),
        "slot interval",
    );
    layers.events_per_op(events.len(), traced.slot_ms.len(), "slot");
    crate::probes::market_layers(args.seed, &mut layers);
    layers.emit(report, "market");
}
