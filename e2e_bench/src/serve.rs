//! `serve`: an in-process `PolicyServer` serving the default-solve
//! artifact over loopback to one closed-loop connection, with one hot
//! swap to a drifted artifact mid-run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfgcp::core::{ContentContext, MfgSolver, Params};
use mfgcp::obs::{MemorySink, RecorderHandle};
use mfgcp::serve::{artifact, ArtifactStore, Client, PolicyServer, ServeConfig, ServerHandle};

use crate::layers::Layers;
use crate::report::{peak_rss_mb, Report};
use crate::solve::{check_converged, cli_params};
use crate::stats::{
    beyond, median, mix, per_second_median, percentile, Calibration, Segmented, Stopwatch, Uniform,
    Window,
};
use crate::{Args, SETUPS};

/// Closed-loop client connections. One: with two on a 2-core host the
/// per-run latency is bimodal (about 23 vs 37 us) depending on how the
/// scheduler pairs client and worker threads, which no run length
/// averages out.
const CONNECTIONS: usize = 1;
/// Percentile of the gated query tail. Not p90 or p99: on a 2-vCPU
/// virtual machine they follow the CPU time the hypervisor gives other
/// guests (over six runs at 0.2–12% steal the per-second p90 spread 20%
/// of its median, the p75 7%); both are printed for the reader.
const QUERY_TAIL: f64 = 75.0;
/// Round-trip samples kept per connection, frame kind and second.
const KEPT_PER_SECOND: usize = 2048;
/// Fewest kept samples for a second to count in a per-second median.
const MIN_PER_SECOND: usize = 50;
/// Every `BATCH_EVERY`-th request of a connection is a slot batch.
const BATCH_EVERY: u64 = 8;
/// `(h, q)` pairs per `EvalSlotBatch` frame.
const BATCH_PAIRS: usize = 256;
/// Calibration kernels timed before each set-up.
const SETUP_CALIBRATIONS: usize = 4;
/// Popularity factor of the second, drifted artifact.
const SWAP_DRIFT: f64 = 1.01;
/// Where this run keeps its artifacts: beside the benchmark executable,
/// inside the build directory of the checkout.
fn artifact_dir(tag: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join(format!("e2e-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact directory");
    dir
}

/// Solve the `mfgcp solve` equilibrium and its drifted twin and save
/// both as artifacts; returns the two paths.
fn make_artifacts(
    dir: &Path,
    recorder: &RecorderHandle,
    report: &mut Report,
) -> (PathBuf, PathBuf, Params) {
    let params = cli_params();
    let solver = MfgSolver::new(params.clone())
        .expect("CLI defaults are valid")
        .with_recorder(recorder.clone());
    let base = ContentContext::from_params(&params);
    let mut drifted = base;
    drifted.popularity = (drifted.popularity * SWAP_DRIFT).min(1.0);
    let mut paths = Vec::new();
    for (name, ctx) in [("base.eq", base), ("drifted.eq", drifted)] {
        let eq = solver.solve_with(&vec![ctx; params.time_steps], None);
        report.operation(check_converged(&eq, name));
        let path = dir.join(name);
        artifact::save(&eq, &path).expect("save artifact");
        paths.push(path);
    }
    let drifted = paths.pop().expect("two artifacts");
    (paths.pop().expect("two artifacts"), drifted, params)
}

/// A running server plus its connected clients.
struct Served {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Served {
    fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Open the artifact as `mfgcp serve` does (map, verify), start the
/// server on an ephemeral loopback port and connect the clients.
fn start(path: &Path, config: ServeConfig, recorder: RecorderHandle, connections: usize) -> Served {
    let store = ArtifactStore::open(path).expect("open artifact");
    store.verify_payload().expect("artifact verifies");
    let handle =
        PolicyServer::start_store("127.0.0.1:0", store, config, recorder).expect("bind loopback");
    let clients = (0..connections)
        .map(|_| {
            let mut c = Client::connect(handle.local_addr()).expect("connect");
            c.set_timeout(Some(Duration::from_secs(30)))
                .expect("set client timeout");
            c
        })
        .collect();
    Served { handle, clients }
}

/// In-process reference lookups for both generations.
struct Reference {
    stores: [ArtifactStore; 2],
}

impl Reference {
    fn open(base: &Path, drifted: &Path) -> Self {
        Self {
            stores: [
                ArtifactStore::open(base).expect("open base artifact"),
                ArtifactStore::open(drifted).expect("open drifted artifact"),
            ],
        }
    }

    /// Generations (1-based) whose lookup equals `values` to the bit.
    fn generations(&self, expect: impl Fn(&ArtifactStore) -> Vec<f64>, values: &[f64]) -> Vec<u64> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (0..2)
            .filter(|&g| bits(&expect(&self.stores[g])) == bits(values))
            .map(|g| g as u64 + 1)
            .collect()
    }
}

/// One connection's measured replies.
struct ConnSamples {
    query_ns: Segmented,
    batch_ns: Segmented,
    /// Receive time of the first reply at generation 2.
    first_gen2: Option<Instant>,
    attempted: u64,
    failed: u64,
    /// The first few failure reasons.
    failures: Vec<String>,
}

/// A closed-loop connection: send, wait for the reply, check it, repeat
/// until the window closes.
fn drive(
    client: &mut Client,
    reference: &Reference,
    params: &Params,
    seed: u64,
    window: &Window,
    swapped_at: &std::sync::OnceLock<Instant>,
) -> ConnSamples {
    let mut s = ConnSamples {
        query_ns: Segmented::new(KEPT_PER_SECOND),
        batch_ns: Segmented::new(KEPT_PER_SECOND),
        first_gen2: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut rng = Uniform::new(seed);
    let mut seen_gen2 = false;
    let mut k = 0u64;
    while window.open() {
        k += 1;
        let t = rng.range(0.0, params.t_horizon);
        let (sent, received, outcome) = if k.is_multiple_of(BATCH_EVERY) {
            let pairs: Vec<[f64; 2]> = (0..BATCH_PAIRS)
                .map(|_| {
                    [
                        rng.range(params.h_min, params.h_max),
                        rng.range(0.0, params.q_size),
                    ]
                })
                .collect();
            let sent = Instant::now();
            let reply = client.eval_slot(t, &pairs);
            let received = Instant::now();
            s.batch_ns.push(
                window.elapsed_s() as usize,
                (received - sent).as_nanos() as f64,
            );
            let outcome = reply.map_err(|e| e.to_string()).map(|r| {
                let mut got = vec![r.price, r.q_bar];
                got.extend(&r.xs);
                let expect = |store: &ArtifactStore| {
                    let slot = store.prepare_slot(t);
                    let mut v = vec![slot.price, slot.q_bar];
                    v.extend(pairs.iter().map(|&[h, q]| slot.policy.interpolate(h, q)));
                    v
                };
                reference.generations(expect, &got)
            });
            (sent, received, outcome)
        } else {
            let (h, q) = (
                rng.range(params.h_min, params.h_max),
                rng.range(0.0, params.q_size),
            );
            let sent = Instant::now();
            let reply = client.query(t, h, q);
            let received = Instant::now();
            s.query_ns.push(
                window.elapsed_s() as usize,
                (received - sent).as_nanos() as f64,
            );
            let outcome = reply.map_err(|e| e.to_string()).map(|r| {
                let expect = |store: &ArtifactStore| {
                    vec![
                        store.policy_at(t, h, q),
                        store.price_at(t),
                        store.q_bar_at(t),
                    ]
                };
                reference.generations(expect, &[r.x, r.price, r.q_bar])
            });
            (sent, received, outcome)
        };
        s.attempted += 1;
        // The reply must equal one generation's in-process lookup to the
        // bit, never step back to generation 1 once generation 2 was
        // seen, and be generation 2 when sent after the swap returned.
        let verdict = match outcome {
            Err(e) => Err(format!("request failed: {e}")),
            Ok(gens) if gens.is_empty() => {
                Err("reply matches no generation's in-process lookup (or mixes them)".into())
            }
            Ok(gens) => {
                let after_swap = swapped_at.get().is_some_and(|&at| sent > at);
                if gens == [2] && !seen_gen2 {
                    seen_gen2 = true;
                    s.first_gen2 = Some(received);
                }
                if !gens.contains(&2) && (seen_gen2 || after_swap) {
                    Err("reply from generation 1 after generation 2 was served".into())
                } else {
                    Ok(())
                }
            }
        };
        if let Err(e) = verdict {
            s.failed += 1;
            if s.failures.len() < 5 {
                s.failures.push(e);
            }
        }
    }
    s
}

/// Results of one measuring phase.
struct Phase {
    conns: Vec<ConnSamples>,
    seconds: f64,
    swap_ms: Option<f64>,
}

impl Phase {
    fn queries(&self) -> Vec<&Segmented> {
        self.conns.iter().map(|c| &c.query_ns).collect()
    }
    fn batches(&self) -> Vec<&Segmented> {
        self.conns.iter().map(|c| &c.batch_ns).collect()
    }
    /// Every kept query round trip of the phase.
    fn query_ns(&self) -> Vec<f64> {
        self.queries().iter().flat_map(|q| q.values()).collect()
    }
}

/// Serve generation 1 to `connections` closed-loop clients for `seconds`,
/// hot-swapping to the drifted artifact halfway through.
fn measure(
    served: &mut Served,
    drifted: &Path,
    reference: &Reference,
    params: &Params,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Phase {
    let window = Window::new(seconds);
    let swapped_at = std::sync::OnceLock::new();
    let swap = served.handle.swap_handle();
    let mut swap_started = None;
    let conns = std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (window, swapped_at) = (&window, &swapped_at);
                scope.spawn(move || {
                    drive(
                        client,
                        reference,
                        params,
                        mix(seed, 500 + i as u64),
                        window,
                        swapped_at,
                    )
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds / 2.0));
        let t = Instant::now();
        swap_started = Some(t);
        let swapped = swap.swap_from_path(drifted);
        let _ = swapped_at.set(Instant::now());
        report.check(match swapped {
            Ok(2) => Ok(()),
            Ok(g) => Err(format!("swap installed generation {g}, expected 2")),
            Err(e) => Err(format!("swap failed: {e}")),
        });
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect::<Vec<ConnSamples>>()
    });
    for c in &conns {
        report.attempted += c.attempted;
        report.failed += c.failed;
        report.failures.extend(c.failures.iter().cloned());
    }
    let first_gen2 = conns.iter().filter_map(|c| c.first_gen2).min();
    let swap_ms = swap_started
        .zip(first_gen2)
        .map(|(a, b)| b.saturating_duration_since(a).as_secs_f64() * 1e3);
    Phase {
        conns,
        seconds: window.elapsed_s(),
        swap_ms,
    }
}

/// Everything before the first timed request: solve and save both
/// artifacts, open, verify and serve the first, connect the clients.
/// Also returns the set-up's wall and CPU seconds.
fn set_up(dir: &Path, report: &mut Report) -> (Served, PathBuf, PathBuf, Params, (f64, f64)) {
    let t = Stopwatch::start();
    let (base, drifted, params) = make_artifacts(dir, &RecorderHandle::noop(), report);
    let served = start(
        &base,
        ServeConfig::default(),
        RecorderHandle::noop(),
        CONNECTIONS,
    );
    let (wall, cpu) = t.stop();
    (served, base, drifted, params, (wall / 1e3, cpu / 1e3))
}

pub fn run(args: &Args, report: &mut Report) {
    let dir = artifact_dir("serve");
    if args.trace {
        traced(args, &dir, report);
    } else {
        untraced(args, &dir, report);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn untraced(args: &Args, dir: &Path, report: &mut Report) {
    let mut setups = Vec::new();
    let mut setups_cpu = Vec::new();
    let mut calibration = Calibration::default();
    let mut last: Option<(Served, PathBuf, PathBuf, Params)> = None;
    for _ in 0..SETUPS {
        if let Some((served, ..)) = last.take() {
            served.stop();
        }
        calibration.block(SETUP_CALIBRATIONS);
        let (served, base, drifted, params, (wall, cpu)) = set_up(dir, report);
        setups.push(wall);
        setups_cpu.push(cpu);
        last = Some((served, base, drifted, params));
    }
    let (mut served, base, drifted, params) = last.expect("at least one set-up");
    let reference = Reference::open(&base, &drifted);
    let phase = measure(
        &mut served,
        &drifted,
        &reference,
        &params,
        args.seed,
        args.seconds,
        report,
    );
    served.stop();

    // Gated figures are medians over the run's seconds of each second's
    // statistic; the pooled figures are printed beside them.
    let q = phase.query_ns();
    let (queries, batches) = (phase.queries(), phase.batches());
    let (p50, seconds) = per_second_median(&queries, MIN_PER_SECOND, median);
    let (tail, _) = per_second_median(&queries, MIN_PER_SECOND, |v| percentile(v, QUERY_TAIL));
    let (batch_p50, _) = per_second_median(&batches, MIN_PER_SECOND, median);
    let query_count: u64 = queries.iter().map(|q| q.count()).sum();
    let batch_count: u64 = batches.iter().map(|b| b.count()).sum();
    let batch_ns: f64 = batches.iter().map(|b| b.sum()).sum();
    report.metric(
        "op_ms_p50",
        p50 / 1e6,
        "ms",
        format!(
            "query_us_p50 = {:.2} us: per-point query round trip, median of {seconds} per-second p50s; pooled {:.2} us, n={query_count}",
            p50 / 1e3,
            median(&q) / 1e3
        ),
    );
    report.metric(
        "op_ms_tail",
        tail / 1e6,
        "ms",
        format!(
            "query_us_p{QUERY_TAIL:.0} = {:.2} us: median of {seconds} per-second p{QUERY_TAIL:.0}s; pooled {:.2} us, {} kept samples beyond it",
            tail / 1e3,
            percentile(&q, QUERY_TAIL) / 1e3,
            beyond(&q, QUERY_TAIL)
        ),
    );
    let (p90, _) = per_second_median(&queries, MIN_PER_SECOND, |v| percentile(v, 90.0));
    report.info(
        "query_us_p90",
        p90 / 1e3,
        "us",
        format!(
            "median of {seconds} per-second p90s; pooled {:.2} us",
            percentile(&q, 90.0) / 1e3
        ),
    );
    report.info(
        "query_us_p99",
        percentile(&q, 99.0) / 1e3,
        "us",
        format!("pooled, {} kept samples beyond it", beyond(&q, 99.0)),
    );
    report.info(
        "queries_per_s",
        query_count as f64 / phase.seconds,
        "1/s",
        format!(
            "over {CONNECTIONS} closed-loop connection(s), {:.2} s",
            phase.seconds
        ),
    );
    report.metric(
        "aux_ms_p50",
        batch_p50 / 1e6,
        "ms",
        format!(
            "slot_batch_ms_p50: {BATCH_PAIRS}-pair EvalSlotBatch round trip, median of per-second p50s, n={batch_count}"
        ),
    );
    report.info(
        "slot_batch_points_per_s",
        (batch_count * BATCH_PAIRS as u64) as f64 / (batch_ns / 1e9),
        "1/s",
        format!("{BATCH_PAIRS} pairs per frame over the summed batch round trips"),
    );
    report.metric(
        "setup_s",
        median(&setups_cpu) * calibration.scale(),
        "s",
        format!("median of {SETUPS} set-ups in reference CPU s: solve + save 2 artifacts, open + verify, start server, connect"),
    );
    report.info(
        "calibration_scale",
        calibration.scale(),
        "factor",
        calibration.note(),
    );
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

fn traced(args: &Args, dir: &Path, report: &mut Report) {
    let mut layers = Layers::default();
    let sink = Arc::new(MemorySink::new());
    let recorder = RecorderHandle::new(Arc::clone(&sink));
    // The set-up solves are traced too: they are this workload's solver
    // work.
    let (base, drifted, params) = make_artifacts(dir, &recorder, report);
    layers.fold_solver(&sink.events(), &params, 2, "the set-up");
    let reference = Reference::open(&base, &drifted);

    let serve_sink = Arc::new(MemorySink::new());
    let mut a = start(
        &base,
        ServeConfig::default(),
        RecorderHandle::new(Arc::clone(&serve_sink)),
        CONNECTIONS,
    );
    let pa = measure(
        &mut a,
        &drifted,
        &reference,
        &params,
        args.seed,
        args.seconds * 0.4,
        report,
    );
    a.stop();
    let mut b = start(
        &base,
        ServeConfig::default(),
        RecorderHandle::noop(),
        CONNECTIONS,
    );
    let pb = measure(
        &mut b,
        &drifted,
        &reference,
        &params,
        args.seed,
        args.seconds * 0.3,
        report,
    );
    b.stop();
    let single = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let mut c = start(&base, single, RecorderHandle::noop(), 1);
    let pc = measure(
        &mut c,
        &drifted,
        &reference,
        &params,
        args.seed,
        args.seconds * 0.3,
        report,
    );
    c.stop();

    let (qa, qb, qc) = (
        median(&pa.query_ns()),
        median(&pb.query_ns()),
        median(&pc.query_ns()),
    );
    let inproc_ns = crate::probes::inproc_eval_ns(&base, &params, args.seed);
    layers.set(
        "serve.inproc_eval_ns",
        inproc_ns,
        format!(
            "Equilibrium policy_at + price_at + q_bar_at per point, {} points drawn like the served queries",
            crate::probes::EVAL_POINTS
        ),
    );
    layers.set(
        "serve.wire_share",
        1.0 - inproc_ns / qb,
        format!("base: {inproc_ns:.1} ns in-process lookup of a {qb:.0} ns query round trip (p50)"),
    );
    if let Some(ms) = pa.swap_ms {
        layers.set(
            "serve.swap_ms",
            ms,
            "swap_from_path call to the first reply at generation 2, traced phase",
        );
    }
    layers.phases(qc / 1e6, qb / 1e6, qa / 1e6, "query");
    let replies: u64 = pa.conns.iter().map(|c| c.attempted).sum();
    layers.events_per_op(serve_sink.len(), replies as usize, "reply");
    crate::probes::artifact_open(&base, &mut layers);
    crate::probes::ctl_ping(&mut layers, report);
    layers.emit(report, "serve");
}
