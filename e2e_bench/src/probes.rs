//! Fixed-shape probes of single layers through their public functions:
//! the channel (`net`) and request generation (`workload`) on the
//! `market` topology, run by the traced `market` run; the control plane
//! (`ctl`), the artifact store and the in-process lookup (`serve`), run by
//! the traced `serve` run.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mfgcp::core::{Equilibrium, Params};
use mfgcp::ctl::{CtlClient, CtlReply, CtlRequest, CtlServer};
use mfgcp::net::{ChannelState, MobileRequesters, RandomWaypoint, Topology};
use mfgcp::obs::{BroadcastSink, MemorySink, RecorderHandle};
use mfgcp::sde::seeded_rng;
use mfgcp::serve::ArtifactStore;
use mfgcp::workload::RequestProcess;

use crate::layers::Layers;
use crate::report::Report;
use crate::sim::{SimSpec, MARKET_FLAGS};
use crate::solve::cli_params;
use crate::spans;
use crate::stats::{median, mix, Uniform};

/// Slots the net and workload probes step through.
const PROBE_SLOTS: u64 = 120;
/// Control-plane round trips timed by the ctl probe.
const PINGS: usize = 200;
/// Points looked up by the in-process evaluation probe.
pub const EVAL_POINTS: usize = 20_000;
/// Artifact opens timed by the store probe.
const OPENS: usize = 50;

/// Channel advance, re-association and request generation on the
/// `market` workload's topology.
pub fn market_layers(seed: u64, layers: &mut Layers) {
    let cfg = SimSpec::parse(MARKET_FLAGS).config;
    let mut rng = seeded_rng(mix(seed, 7));
    let mut topo = Topology::random(cfg.num_edps, cfg.num_requesters, &cfg.network, &mut rng);
    let mut channels = ChannelState::init(&topo, &cfg.network, &mut rng);
    let dt = cfg.slot_dt();
    let links = channels.tracked_links();
    let t = Instant::now();
    for _ in 0..PROBE_SLOTS {
        channels.advance(dt);
    }
    let ns = t.elapsed().as_nanos() as f64;
    layers.set(
        "net.advance_ns_per_link",
        ns / (PROBE_SLOTS as f64 * links as f64),
        format!(
            "ChannelState::advance, {PROBE_SLOTS} slots x {links} links (M={}, J={})",
            cfg.num_edps, cfg.num_requesters
        ),
    );
    layers.set(
        "net.links_tracked",
        links as f64,
        "ChannelState::tracked_links on the market topology",
    );

    let weights: Vec<f64> = (0..cfg.num_contents)
        .map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_iota))
        .collect();
    let process = RequestProcess::new(cfg.request_prob, weights, cfg.timeliness)
        .expect("valid request parameters");
    let request_seed = mix(seed, 8);
    let mut requests = 0usize;
    let t = Instant::now();
    for slot in 0..PROBE_SLOTS {
        for i in 0..topo.num_edps() {
            let batch = process.generate_batched(topo.served_by(i), request_seed, slot);
            requests += std::hint::black_box(batch).total();
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    layers.set(
        "workload.generate_ns_per_requester",
        ns / (PROBE_SLOTS as f64 * cfg.num_requesters as f64),
        format!(
            "RequestProcess::generate_batched over every EDP's requesters, {PROBE_SLOTS} slots"
        ),
    );
    layers.set(
        "workload.requests_per_slot",
        requests as f64 / PROBE_SLOTS as f64,
        format!(
            "requests generated per slot by {} requesters",
            cfg.num_requesters
        ),
    );

    // Re-associate after every slot of random-waypoint movement and count
    // the moves from the program's own `net.reassociation` events.
    let sink = Arc::new(MemorySink::new());
    topo.set_recorder(RecorderHandle::new(Arc::clone(&sink)));
    let positions = (0..topo.num_requesters())
        .map(|j| topo.requester(j))
        .collect();
    let mut walkers = MobileRequesters::new(
        positions,
        cfg.network.area_radius,
        RandomWaypoint::default(),
        &mut rng,
    );
    for _ in 0..PROBE_SLOTS {
        walkers.step(dt, &mut rng);
        topo.update_requesters(walkers.positions());
    }
    let moved = spans::field_sum(&sink.events(), "net.reassociation", "moved");
    layers.set(
        "net.reassociations_per_slot",
        moved as f64 / PROBE_SLOTS as f64,
        "requesters changing serving EDP per slot of movement (Topology::update_requesters every slot)",
    );
}

/// Round trips of a `CtlClient` ping against a spawned `CtlServer`.
pub fn ctl_ping(layers: &mut Layers, report: &mut Report) {
    let server = CtlServer::spawn(
        "127.0.0.1:0",
        cli_params(),
        Arc::new(BroadcastSink::new()),
        false,
    )
    .expect("bind control plane");
    let mut client =
        CtlClient::connect(&server.local_addr().to_string()).expect("connect control plane");
    let mut us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let reply = client.request(&CtlRequest::Ping, Duration::from_secs(10));
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        report.check(match reply {
            Ok(CtlReply::Pong) => Ok(()),
            other => Err(format!("ctl ping: unexpected reply {other:?}")),
        });
    }
    drop(client);
    server.shutdown();
    layers.set(
        "ctl.ping_us_p50",
        median(&us),
        format!("CtlClient ping round trip, n={PINGS}"),
    );
}

/// Opens of the artifact at `path` through `ArtifactStore::open`.
pub fn artifact_open(path: &Path, layers: &mut Layers) {
    let mut us = Vec::with_capacity(OPENS);
    for _ in 0..OPENS {
        let t = Instant::now();
        let store = ArtifactStore::open(path).expect("open artifact");
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(store);
    }
    layers.set(
        "serve.artifact_open_us",
        median(&us),
        format!("ArtifactStore::open p50 of the mfgcp-solve artifact, n={OPENS}"),
    );
}

/// Mean in-process cost of answering one query point.
fn eval_ns(eq: &Equilibrium, params: &Params, seed: u64) -> f64 {
    let mut rng = Uniform::new(mix(seed, 9));
    let points: Vec<[f64; 3]> = (0..EVAL_POINTS)
        .map(|_| {
            [
                rng.range(0.0, params.t_horizon),
                rng.range(params.h_min, params.h_max),
                rng.range(0.0, params.q_size),
            ]
        })
        .collect();
    let start = Instant::now();
    let mut acc = 0.0;
    for &[t, h, q] in &points {
        acc += eq.policy_at(t, h, q) + eq.price_at(t) + eq.q_bar_at(t);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / EVAL_POINTS as f64
}

/// [`eval_ns`] on the equilibrium stored at `path`.
pub fn inproc_eval_ns(path: &Path, params: &Params, seed: u64) -> f64 {
    let eq = ArtifactStore::open(path)
        .and_then(|s| s.to_equilibrium())
        .expect("rehydrate artifact");
    eval_ns(&eq, params, seed)
}
