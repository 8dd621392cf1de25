//! `solve`: the exact `mfgcp solve` problem, cold, each solve followed by
//! a warm re-solve after a small seeded popularity drift.

use std::sync::Arc;

use mfgcp::cli::{self, Command};
use mfgcp::core::{ContentContext, Equilibrium, MfgSolver, Params};
use mfgcp::obs::{MemorySink, RecorderHandle};

use crate::layers::Layers;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{beyond, median, mix, percentile, Calibration, Stopwatch, Uniform, Window};
use crate::{Args, SETUPS};

/// Relative popularity step between consecutive contexts.
const STEP: f64 = 0.005;
/// The chain stays within `SPAN` steps of the CLI's popularity.
const SPAN: i32 = 2;

/// Tail percentile of the cold solves: at the default worker threads
/// the p90 follows the host's scheduling from run to run far more than
/// the p75 does, so the p75 is gated and the p90 printed with the wall
/// times.
const SOLVE_TAIL: f64 = 75.0;

/// The parameters `mfgcp solve` runs with, as the CLI builds them.
pub fn cli_params() -> Params {
    match cli::parse(&["solve".to_string()]) {
        Ok(Command::Solve { params, .. }) => *params,
        other => panic!("`mfgcp solve` no longer parses to a solve command: {other:?}"),
    }
}

/// The convergence facts of one solve, kept so the check can run after
/// the timed interval that produced it.
pub struct Convergence {
    pub converged: bool,
    pub iterations: usize,
    pub residual: f64,
    pub tolerance: f64,
}

impl Convergence {
    pub fn of(eq: &Equilibrium) -> Self {
        Self {
            converged: eq.report.converged,
            iterations: eq.report.iterations,
            residual: eq.report.final_residual(),
            tolerance: eq.params.tolerance,
        }
    }

    /// A solve fails unless it converged with its undamped best-response
    /// gap within `Params::tolerance`.
    pub fn check(&self, what: &str) -> Result<(), String> {
        let (r, tol) = (self.residual, self.tolerance);
        if self.converged && r <= tol {
            Ok(())
        } else {
            Err(format!(
                "{what}: converged={} after {} iterations, residual {r:.3e} > tolerance {tol:.1e}",
                self.converged, self.iterations
            ))
        }
    }
}

pub fn check_converged(eq: &Equilibrium, what: &str) -> Result<(), String> {
    Convergence::of(eq).check(what)
}

/// Largest pointwise policy difference between two equilibria.
fn policy_distance(a: &Equilibrium, b: &Equilibrium) -> f64 {
    a.policy
        .iter()
        .zip(&b.policy)
        .map(|(x, y)| x.sup_distance(y))
        .fold(0.0, f64::max)
}

/// Timings and exact counts of one measuring loop: wall and process CPU
/// time of each solve, and the calibration kernel timed before each cold
/// solve.
#[derive(Default)]
struct Samples {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    cold_cpu_ms: Vec<f64>,
    warm_cpu_ms: Vec<f64>,
    calibration: Calibration,
    cold_iterations: Vec<usize>,
    warm_iterations: Vec<usize>,
}

/// The drifting context chain: a walk in popularity steps of `STEP`
/// (relative to the CLI's stationary context) whose direction the seed
/// picks, turned back at `SPAN` steps. Every warm re-solve therefore
/// sees the same size of drift, so each does the same work.
struct Drift {
    base: ContentContext,
    steps: usize,
    rng: Uniform,
    level: i32,
}

impl Drift {
    fn new(params: &Params, seed: u64) -> Self {
        Self {
            base: ContentContext::from_params(params),
            steps: params.time_steps,
            rng: Uniform::new(mix(seed, 1)),
            level: 0,
        }
    }

    fn next(&mut self) -> Vec<ContentContext> {
        let up = self.rng.next_f64() < 0.5;
        self.level += if self.level == SPAN || (!up && self.level > -SPAN) {
            -1
        } else {
            1
        };
        let mut ctx = self.base;
        ctx.popularity = (ctx.popularity * (1.0 + STEP * f64::from(self.level))).min(1.0);
        vec![ctx; self.steps]
    }
}

/// Alternate timed cold and warm solves along the drift chain until the
/// window closes. Each warm solve lands on the context of the next cold
/// solve, which is therefore its reference; checks run between timings.
fn measure(solver: &MfgSolver, seed: u64, seconds: f64, report: &mut Report) -> Samples {
    let mut s = Samples::default();
    let mut drift = Drift::new(solver.params(), seed);
    let mut contexts = drift.next();
    let mut pending_warm: Option<Equilibrium> = None;
    let window = Window::new(seconds);
    loop {
        s.calibration.sample();
        let t = Stopwatch::start();
        let cold = solver.solve_with(&contexts, None);
        let (wall, cpu) = t.stop();
        s.cold_ms.push(wall);
        s.cold_cpu_ms.push(cpu);
        s.cold_iterations.push(cold.report.iterations);
        report.operation(check_converged(&cold, "cold solve"));
        if let Some(warm) = pending_warm.take() {
            report.operation(check_converged(&warm, "warm solve"));
            report.check(check_warm(&warm, &cold));
        }
        if !window.open() {
            break;
        }
        contexts = drift.next();
        let t = Stopwatch::start();
        let warm = solver.solve_from(&contexts, &cold.policy, Some(&cold.density), None);
        let (wall, cpu) = t.stop();
        s.warm_ms.push(wall);
        s.warm_cpu_ms.push(cpu);
        s.warm_iterations.push(warm.report.iterations);
        pending_warm = Some(warm);
    }
    s
}

/// A warm solve is wrong unless it lands within `Params::tolerance`
/// (policy sup-norm) of the cold solve of the same drifted context.
fn check_warm(warm: &Equilibrium, cold: &Equilibrium) -> Result<(), String> {
    let d = policy_distance(warm, cold);
    let tol = warm.params.tolerance;
    if d <= tol {
        Ok(())
    } else {
        Err(format!(
            "warm solve lands {d:.3e} from the cold solve of its context (tolerance {tol:.1e})"
        ))
    }
}

/// Build the CLI's solver and run the warm-up solve — exactly what
/// `mfgcp solve` computes — before the first timed solve; returns the
/// solver and the set-up's wall and CPU seconds.
fn set_up(report: &mut Report) -> (MfgSolver, (f64, f64)) {
    let t = Stopwatch::start();
    let solver = MfgSolver::new(cli_params()).expect("CLI defaults are valid");
    let ctx = ContentContext::from_params(solver.params());
    let eq = solver.solve_with(&vec![ctx; solver.params().time_steps], None);
    let (wall, cpu) = t.stop();
    report.operation(check_converged(&eq, "warm-up solve"));
    (solver, (wall / 1e3, cpu / 1e3))
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut setups_cpu = Vec::new();
    let mut solver = None;
    for _ in 0..SETUPS {
        let (s, (wall, cpu)) = set_up(report);
        setups.push(wall);
        setups_cpu.push(cpu);
        solver = Some(s);
    }
    let solver = solver.expect("at least one set-up");
    if args.trace {
        return traced(args, &solver, report);
    }
    let s = measure(&solver, args.seed, args.seconds, report);
    let n = s.cold_ms.len();
    let scale = s.calibration.scale();
    report.metric(
        "op_ms_p50",
        median(&s.cold_cpu_ms) * scale,
        "ms",
        format!("cold_solve_ms_p50 in reference CPU ms: cold MfgSolver::solve_with, n={n}"),
    );
    report.metric(
        "op_ms_tail",
        percentile(&s.cold_cpu_ms, SOLVE_TAIL) * scale,
        "ms",
        format!(
            "cold_solve_ms_p{SOLVE_TAIL:.0} in reference CPU ms: {} samples beyond it",
            beyond(&s.cold_cpu_ms, SOLVE_TAIL)
        ),
    );
    report.metric(
        "aux_ms_p50",
        median(&s.warm_cpu_ms) * scale,
        "ms",
        format!(
            "warm_solve_ms_p50 in reference CPU ms: solve_from after a {:.1}% popularity step, n={}",
            STEP * 100.0,
            s.warm_ms.len()
        ),
    );
    report.metric(
        "setup_s",
        median(&setups_cpu) * scale,
        "s",
        format!(
            "median of {SETUPS} set-ups in reference CPU s: parse CLI, build solver, warm-up solve"
        ),
    );
    report.info("calibration_scale", scale, "factor", s.calibration.note());
    for (name, samples, p) in [
        ("cold_solve_ms_p50", &s.cold_ms, 50.0),
        ("cold_solve_ms_p75", &s.cold_ms, SOLVE_TAIL),
        ("cold_solve_ms_p90", &s.cold_ms, 90.0),
        ("warm_solve_ms_p50", &s.warm_ms, 50.0),
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

/// The traced run: the same loop with the program's spans recorded into
/// an in-memory sink, then untraced at the default and at one worker
/// thread for the overhead and speed-up bases.
fn traced(args: &Args, solver: &MfgSolver, report: &mut Report) {
    let mut layers = Layers::default();
    let sink = Arc::new(MemorySink::new());
    let traced_solver = solver
        .clone()
        .with_recorder(RecorderHandle::new(Arc::clone(&sink)));
    let a = measure(&traced_solver, args.seed, args.seconds * 0.4, report);
    let b = measure(solver, args.seed, args.seconds * 0.3, report);
    let single = MfgSolver::new(Params {
        worker_threads: 1,
        ..solver.params().clone()
    })
    .expect("valid params");
    let c = measure(&single, args.seed, args.seconds * 0.3, report);

    let events = sink.events();
    layers.fold_solver(&events, solver.params(), 1, "the first cold solve");
    layers.set(
        "core.cold_picard_iterations",
        a.cold_iterations[0] as f64,
        "fine-grid Picard iterations of the first cold solve",
    );
    if let Some(&w) = a.warm_iterations.first() {
        layers.set(
            "core.warm_picard_iterations",
            w as f64,
            "Picard iterations of the first warm re-solve",
        );
    }
    layers.phases(
        median(&c.cold_ms),
        median(&b.cold_ms),
        median(&a.cold_ms),
        "cold solve",
    );
    layers.events_per_op(events.len(), a.cold_ms.len(), "cold solve + warm re-solve");
    layers.emit(report, "solve");
}
