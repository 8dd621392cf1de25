//! Solver-kernel benchmark: batched SoA column-block sweeps vs the scalar
//! one-column-at-a-time oracle, written to `BENCH_solver.json` at the
//! workspace root.
//!
//! Two layers are measured. The kernel layer times one implicit Lie-split
//! step of the FPK and HJB steppers across grid sizes and reports
//! nanoseconds per column solve (a 2-D step performs `ny` x-direction and
//! `nx` y-direction tridiagonal solves), scalar and batched side by side
//! with the speedup ratio. The full-solve layer times `MfgSolver` (Alg. 2
//! Picard iteration) end to end on the paper grid, recording wall time
//! *and* Picard iterations-to-convergence (`picard_iterations`, gated
//! lower-is-better): with the implicit steppers on both kernel paths
//! (`path` `scalar` and `batched`, which are bit-identical, so their ratio
//! is pure speed), and as `path` `default`, `Params::default()` with the
//! explicit steppers that `mfgcp solve` runs. A `warm_reprice` row times the
//! online-repricing path: after a small popularity perturbation, a warm
//! re-solve seeded from the stale equilibrium's policy vs a cold
//! re-solve (`warm_speedup`, gated higher-is-better).
//!
//! Run: `cargo run --release -p mfgcp-bench --bin bench_solver`
//!
//! Flags:
//!
//! * `--grids NXxNY,...` — override the default `24x48,48x96,96x192`
//!   kernel sweep (the paper grid is 24×48; CI runs `--grids 24x48`);
//! * `--steps N` — fixed step count per timing repetition instead of the
//!   auto-scaled one;
//! * `--skip-full` — kernel sweep only (no Alg. 2 full or warm solves);
//! * `--telemetry FILE.jsonl` — stream one `bench.sample` event per
//!   measurement through the shared `mfgcp-obs` recorder.

use std::io::Write as _;
use std::time::Instant;

use mfgcp_core::{MfgSolver, Params, SolveMethod};
use mfgcp_obs::json::Json;
use mfgcp_obs::{JsonlSink, RecorderHandle};
use mfgcp_pde::{
    Axis, Field2d, Grid2d, ImplicitBackward2d, ImplicitFokkerPlanck2d, StepperScratch,
};

struct KernelSample {
    kernel: &'static str,
    nx: usize,
    ny: usize,
    steps: usize,
    scalar_ns_per_column: f64,
    batched_ns_per_column: f64,
}

impl KernelSample {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_column / self.batched_ns_per_column
    }
}

struct FullSolveSample {
    path: &'static str,
    nx: usize,
    ny: usize,
    picard_iterations: usize,
    wall_millis: f64,
}

struct WarmRepriceSample {
    nx: usize,
    ny: usize,
    cold_millis: f64,
    warm_millis: f64,
    cold_picard_iterations: usize,
    warm_picard_iterations: usize,
}

impl WarmRepriceSample {
    fn warm_speedup(&self) -> f64 {
        self.cold_millis / self.warm_millis
    }
}

/// Drift/density fields representative of the game state: a normalized
/// Gaussian bump with smoothly varying drifts (the kernels' cost is
/// data-independent, but NaN-free inputs keep the pivot checks honest).
fn fields(nx: usize, ny: usize) -> (Field2d, Field2d, Field2d, Field2d) {
    let g = Grid2d::new(
        Axis::new(0.0, 1.0, nx).expect("valid axis"),
        Axis::new(0.0, 1.0, ny).expect("valid axis"),
    );
    let mut lam = Field2d::from_fn(g.clone(), |x, y| {
        (-25.0 * ((x - 0.45).powi(2) + (y - 0.55).powi(2))).exp() + 0.01
    });
    lam.normalize();
    let bx = Field2d::from_fn(g.clone(), |x, y| 0.4 * (0.5 - x) + 0.1 * (7.0 * y).sin());
    let by = Field2d::from_fn(g.clone(), |x, y| -0.3 * y + 0.2 * (5.0 * x).cos());
    let src = Field2d::from_fn(g, |x, y| x * x + 0.5 * y);
    (lam, bx, by, src)
}

/// Best-of-3 timing of `steps` repeated stepper applications; returns
/// nanoseconds per column solve (a step does `nx + ny` column solves).
fn time_steps(mut step: impl FnMut(), steps: usize, nx: usize, ny: usize) -> f64 {
    // Warm-up: page in scratch, settle the branch predictors.
    for _ in 0..3 {
        step();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..steps {
            step();
        }
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / steps as f64 / (nx + ny) as f64);
    }
    best
}

fn measure_kernel(
    kernel: &'static str,
    nx: usize,
    ny: usize,
    steps: usize,
    recorder: &RecorderHandle,
) -> KernelSample {
    let dt = 0.025;
    let (lam, bx, by, src) = fields(nx, ny);
    let mut sample = KernelSample {
        kernel,
        nx,
        ny,
        steps,
        scalar_ns_per_column: 0.0,
        batched_ns_per_column: 0.0,
    };
    // Parity check rides along: after timing, the two paths' states must
    // still be bit-identical (each ran warmup + 3×steps identical steps).
    let (mut parity_scalar, mut parity_batched) = (None, None);
    for batched in [false, true] {
        let mut scratch = StepperScratch::new();
        let mut state = lam.clone();
        let ns = match kernel {
            "fpk" => {
                let mut stepper = ImplicitFokkerPlanck2d::new(0.003, 0.005).expect("valid");
                stepper.set_batched(batched);
                time_steps(
                    || stepper.step_scratch(&mut state, &bx, &by, dt, &mut scratch),
                    steps,
                    nx,
                    ny,
                )
            }
            _ => {
                let mut stepper = ImplicitBackward2d::new(0.003, 0.005).expect("valid");
                stepper.set_batched(batched);
                time_steps(
                    || stepper.step_back_scratch(&mut state, &bx, &by, &src, dt, &mut scratch),
                    steps,
                    nx,
                    ny,
                )
            }
        };
        if batched {
            sample.batched_ns_per_column = ns;
            parity_batched = Some(state);
        } else {
            sample.scalar_ns_per_column = ns;
            parity_scalar = Some(state);
        }
    }
    assert_eq!(
        parity_scalar.unwrap().values(),
        parity_batched.unwrap().values(),
        "{kernel} {nx}x{ny}: batched path diverged from the scalar oracle"
    );
    recorder.event(
        "bench.sample",
        &[
            ("kernel", sample.kernel.into()),
            ("nx", sample.nx.into()),
            ("ny", sample.ny.into()),
            ("steps", sample.steps.into()),
            ("scalar_ns_per_column", sample.scalar_ns_per_column.into()),
            ("batched_ns_per_column", sample.batched_ns_per_column.into()),
            ("speedup", sample.speedup().into()),
        ],
    );
    sample
}

/// The full-solve legs on the paper grid (24×48): the implicit steppers
/// on both kernel paths — the configuration online repricing would
/// re-solve mid-run — and `default`, the configuration every CLI verb
/// solves.
fn full_solve_legs() -> [(&'static str, Params); 3] {
    let implicit = |batched_kernels| Params {
        implicit_steppers: true,
        batched_kernels,
        ..Params::default()
    };
    [
        ("scalar", implicit(false)),
        ("batched", implicit(true)),
        ("default", Params::default()),
    ]
}

fn measure_full_solve(
    path: &'static str,
    params: Params,
    recorder: &RecorderHandle,
) -> FullSolveSample {
    let (nx, ny) = (params.grid_h, params.grid_q);
    let solver = MfgSolver::new(params).expect("valid params");
    let mut best: Option<FullSolveSample> = None;
    for _ in 0..2 {
        let start = Instant::now();
        let eq = solver.solve().expect("paper-grid solve converges");
        let wall_millis = start.elapsed().as_secs_f64() * 1e3;
        let sample = FullSolveSample {
            path,
            nx,
            ny,
            picard_iterations: eq.report.iterations,
            wall_millis,
        };
        if best
            .as_ref()
            .map_or(true, |b| sample.wall_millis < b.wall_millis)
        {
            best = Some(sample);
        }
    }
    let best = best.expect("two samples taken");
    recorder.event(
        "bench.sample",
        &[
            ("kernel", "full_solve".into()),
            ("path", best.path.into()),
            ("nx", best.nx.into()),
            ("ny", best.ny.into()),
            ("picard_iterations", best.picard_iterations.into()),
            ("wall_millis", best.wall_millis.into()),
        ],
    );
    best
}

/// The popularity drift the repricing bench reacts to: the slot-to-slot
/// scale (a 0.5% shift), not an epoch-scale shock — mid-run repricing
/// fires every few slots, so the stale equilibrium is never far off.
const REPRICE_POPULARITY_SHIFT: f64 = 1.005;

/// The online-repricing path: converge once, nudge the popularity (the
/// perturbation mid-run repricing reacts to), then time a cold re-solve
/// against a warm re-solve seeded from the stale equilibrium's policy
/// and density.
fn measure_warm_reprice(recorder: &RecorderHandle) -> WarmRepriceSample {
    let params = Params {
        implicit_steppers: true,
        batched_kernels: true,
        ..Params::default()
    };
    let (nx, ny) = (params.grid_h, params.grid_q);
    let solver = MfgSolver::new(params).expect("valid params");
    let stale = solver.solve().expect("paper-grid solve converges");
    let mut shifted = stale.contexts[0];
    shifted.popularity = (shifted.popularity * REPRICE_POPULARITY_SHIFT).min(1.0);
    let contexts = vec![shifted; stale.params.time_steps];

    let mut ws = solver.workspace();
    let mut best: Option<WarmRepriceSample> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let cold =
            solver.solve_with_workspace(&contexts, None, SolveMethod::PicardRelaxation, &mut ws);
        let cold_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(cold.converged, "cold re-solve converges");

        let start = Instant::now();
        let warm = solver.solve_from_with_workspace(
            &contexts,
            &stale.policy,
            Some(&stale.density),
            None,
            &mut ws,
        );
        let warm_millis = start.elapsed().as_secs_f64() * 1e3;
        assert!(warm.converged, "warm re-solve converges");

        let sample = WarmRepriceSample {
            nx,
            ny,
            cold_millis,
            warm_millis,
            cold_picard_iterations: cold.iterations,
            warm_picard_iterations: warm.iterations,
        };
        if best
            .as_ref()
            .map_or(true, |b| sample.warm_millis < b.warm_millis)
        {
            best = Some(sample);
        }
    }
    let best = best.expect("three samples taken");
    recorder.event(
        "bench.sample",
        &[
            ("kernel", "warm_reprice".into()),
            ("nx", best.nx.into()),
            ("ny", best.ny.into()),
            ("popularity_shift", REPRICE_POPULARITY_SHIFT.into()),
            ("cold_millis", best.cold_millis.into()),
            ("warm_millis", best.warm_millis.into()),
            ("cold_picard_iterations", best.cold_picard_iterations.into()),
            ("warm_picard_iterations", best.warm_picard_iterations.into()),
            ("warm_speedup", best.warm_speedup().into()),
        ],
    );
    best
}

/// Hand-rolled flag parsing: `--grids NXxNY,...`, `--steps N`,
/// `--skip-full`, `--telemetry FILE`.
fn parse_args() -> (Vec<(usize, usize)>, Option<usize>, bool, RecorderHandle) {
    let mut grids = vec![(24, 48), (48, 96), (96, 192)];
    let mut steps = None;
    let mut skip_full = false;
    let mut recorder = RecorderHandle::noop();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--grids" => {
                let value = it.next().expect("--grids needs NXxNY,...");
                grids = value
                    .split(',')
                    .map(|s| {
                        let (nx, ny) = s.trim().split_once('x').expect("--grids entries NXxNY");
                        (
                            nx.parse().expect("grid nx must be an integer"),
                            ny.parse().expect("grid ny must be an integer"),
                        )
                    })
                    .collect();
                assert!(!grids.is_empty(), "--grids must name at least one grid");
            }
            "--steps" => {
                steps = Some(
                    it.next()
                        .expect("--steps needs a count")
                        .parse()
                        .expect("--steps must be an integer"),
                );
            }
            "--skip-full" => skip_full = true,
            "--telemetry" => {
                let path = it.next().expect("--telemetry needs a file path");
                let sink = JsonlSink::create(&path)
                    .unwrap_or_else(|e| panic!("cannot create telemetry file `{path}`: {e}"));
                recorder = RecorderHandle::new(std::sync::Arc::new(sink));
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (supported: --grids NXxNY,... --steps N \
                     --skip-full --telemetry FILE.jsonl)"
                );
                std::process::exit(2);
            }
        }
    }
    (grids, steps, skip_full, recorder)
}

fn main() {
    let (grids, steps_override, skip_full, recorder) = parse_args();

    let mut kernel_samples = Vec::new();
    for &(nx, ny) in &grids {
        // Auto-scale the repetition count so every grid gets a comparable
        // total measurement window.
        let steps = steps_override.unwrap_or_else(|| (400_000 / (nx * ny)).clamp(20, 1000));
        for kernel in ["fpk", "hjb"] {
            kernel_samples.push(measure_kernel(kernel, nx, ny, steps, &recorder));
        }
    }
    let full_samples: Vec<FullSolveSample> = if skip_full {
        Vec::new()
    } else {
        full_solve_legs()
            .into_iter()
            .map(|(path, params)| measure_full_solve(path, params, &recorder))
            .collect()
    };
    let warm_sample = if skip_full {
        None
    } else {
        Some(measure_warm_reprice(&recorder))
    };

    let mut sample_objs: Vec<Json> = kernel_samples
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("kernel".into(), Json::Str(s.kernel.into())),
                ("nx".into(), Json::Num(s.nx as f64)),
                ("ny".into(), Json::Num(s.ny as f64)),
                ("steps".into(), Json::Num(s.steps as f64)),
                (
                    "scalar_ns_per_column".into(),
                    Json::Num(s.scalar_ns_per_column),
                ),
                (
                    "batched_ns_per_column".into(),
                    Json::Num(s.batched_ns_per_column),
                ),
                ("speedup".into(), Json::Num(s.speedup())),
            ])
        })
        .collect();
    sample_objs.extend(full_samples.iter().map(|s| {
        Json::Obj(vec![
            ("kernel".into(), Json::Str("full_solve".into())),
            ("path".into(), Json::Str(s.path.into())),
            ("nx".into(), Json::Num(s.nx as f64)),
            ("ny".into(), Json::Num(s.ny as f64)),
            (
                "picard_iterations".into(),
                Json::Num(s.picard_iterations as f64),
            ),
            ("wall_millis".into(), Json::Num(s.wall_millis)),
        ])
    }));
    if let Some(s) = &warm_sample {
        sample_objs.push(Json::Obj(vec![
            ("kernel".into(), Json::Str("warm_reprice".into())),
            ("nx".into(), Json::Num(s.nx as f64)),
            ("ny".into(), Json::Num(s.ny as f64)),
            (
                "popularity_shift".into(),
                Json::Num(REPRICE_POPULARITY_SHIFT),
            ),
            ("cold_millis".into(), Json::Num(s.cold_millis)),
            ("warm_millis".into(), Json::Num(s.warm_millis)),
            (
                "cold_picard_iterations".into(),
                Json::Num(s.cold_picard_iterations as f64),
            ),
            (
                "warm_picard_iterations".into(),
                Json::Num(s.warm_picard_iterations as f64),
            ),
            ("warm_speedup".into(), Json::Num(s.warm_speedup())),
        ]));
    }
    let report = Json::Obj(vec![
        ("bench".into(), Json::Str("solver_kernels".into())),
        (
            "unit_note".into(),
            Json::Str(
                "ns per implicit column solve (one 2-D step = nx + ny columns), \
                 scalar oracle vs batched SoA blocks; full_solve = Alg. 2 wall time"
                    .into(),
            ),
        ),
        ("samples".into(), Json::Arr(sample_objs)),
    ]);
    let mut json = report.to_json_string();
    json.push('\n');

    let mut f = std::fs::File::create("BENCH_solver.json").expect("create BENCH_solver.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_solver.json");

    println!("{json}");
    println!("kernel, grid, scalar_ns_per_column, batched_ns_per_column, speedup");
    for s in &kernel_samples {
        println!(
            "{}, {}x{}, {:.1}, {:.1}, {:.2}x",
            s.kernel,
            s.nx,
            s.ny,
            s.scalar_ns_per_column,
            s.batched_ns_per_column,
            s.speedup()
        );
    }
    for s in &full_samples {
        println!(
            "full_solve({}), {}x{}, {} iterations, {:.1} ms",
            s.path, s.nx, s.ny, s.picard_iterations, s.wall_millis
        );
    }
    if let Some(s) = &warm_sample {
        println!(
            "warm_reprice, {}x{}, cold {:.1} ms / {} it, warm {:.1} ms / {} it, {:.2}x",
            s.nx,
            s.ny,
            s.cold_millis,
            s.cold_picard_iterations,
            s.warm_millis,
            s.warm_picard_iterations,
            s.warm_speedup()
        );
    }
    recorder.flush();
    eprintln!("wrote BENCH_solver.json");
}
