//! Differential suite: the sharded occupancy-local channel against the
//! exact dense oracle.
//!
//! The per-link counter-based fading streams make every link that both
//! representations track **bit-identical** — init, every OU transition,
//! and every distance refresh. The only divergence the sharding is
//! allowed is the *truncation* of the Eq. (2) interference sum to the
//! `k_int` tracked interferers, which these tests bound by the configured
//! [`NetworkConfig::truncation_tol`].

use proptest::prelude::*;

use mfgcp_net::{ChannelState, NetworkConfig, Point, Topology};
use mfgcp_sde::seeded_rng;

fn dense_cfg(cfg: &NetworkConfig) -> NetworkConfig {
    NetworkConfig {
        dense_channel: true,
        ..cfg.clone()
    }
}

/// A mid-sized instance where `k_int = 32 < M − 1`, so truncation is real.
fn instance(seed: u64, m: usize, j: usize) -> (Topology, NetworkConfig) {
    let cfg = NetworkConfig::default();
    let mut rng = seeded_rng(seed);
    (Topology::random(m, j, &cfg, &mut rng), cfg)
}

#[test]
fn serving_links_are_bit_identical_over_time() {
    let (topo, cfg) = instance(301, 200, 80);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 9001);
    let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), 9001);
    assert!(!sharded.is_dense() && dense.is_dense());
    for step in 0..25 {
        for j in 0..topo.num_requesters() {
            let i = topo.serving(j);
            assert_eq!(
                sharded.link_fading(i, j),
                dense.link_fading(i, j),
                "serving fading diverged at step {step}, link ({i}, {j})"
            );
            assert_eq!(
                sharded.gain(i, j),
                dense.gain(i, j),
                "serving gain diverged at step {step}, link ({i}, {j})"
            );
        }
        sharded.advance(0.05);
        dense.advance(0.05);
    }
}

#[test]
fn every_tracked_link_matches_the_dense_oracle() {
    let (topo, cfg) = instance(302, 150, 60);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 77);
    let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), 77);
    for _ in 0..10 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    for j in 0..topo.num_requesters() {
        let mut tracked = sharded.tracked_interferers(j);
        tracked.push(topo.serving(j));
        assert_eq!(tracked.len(), cfg.k_int + 1);
        for i in tracked {
            assert_eq!(sharded.link_fading(i, j), dense.link_fading(i, j));
            assert_eq!(sharded.gain(i, j), dense.gain(i, j));
        }
    }
}

#[test]
fn interference_and_rate_stay_within_the_truncation_bound() {
    let (topo, cfg) = instance(303, 400, 100);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 12);
    let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), 12);
    let mut worst_interference = 0.0_f64;
    let mut worst_rate = 0.0_f64;
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
        for j in 0..topo.num_requesters() {
            let i = topo.serving(j);
            let exact = dense.interference(i, j);
            let truncated = sharded.interference(i, j);
            if exact > 0.0 {
                worst_interference = worst_interference.max((exact - truncated).abs() / exact);
            }
            let r_exact = dense.rate(i, j);
            let r_sharded = sharded.rate(i, j);
            if r_exact > 0.0 {
                worst_rate = worst_rate.max((r_sharded - r_exact).abs() / r_exact);
            }
        }
    }
    assert!(
        worst_interference <= cfg.truncation_tol,
        "interference truncation error {worst_interference:.3e} above \
         configured bound {:.1e}",
        cfg.truncation_tol
    );
    // Truncating interference can only increase SINR, and the rate is a
    // log of it, so the rate error is no worse than the interference one.
    assert!(
        worst_rate <= cfg.truncation_tol,
        "rate truncation error {worst_rate:.3e} above configured bound"
    );
}

#[test]
fn full_tracking_reproduces_dense_rates_to_rounding() {
    // With k_int >= M - 1 nothing is truncated; the only difference left
    // is floating-point summation order in the interference loop.
    let cfg = NetworkConfig {
        k_int: 39,
        ..NetworkConfig::default()
    };
    let mut rng = seeded_rng(304);
    let topo = Topology::random(40, 30, &cfg, &mut rng);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 5);
    let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), 5);
    for _ in 0..8 {
        sharded.advance(0.1);
        dense.advance(0.1);
    }
    for j in 0..topo.num_requesters() {
        for i in 0..topo.num_edps() {
            assert_eq!(sharded.link_fading(i, j), dense.link_fading(i, j));
            let (a, b) = (sharded.rate(i, j), dense.rate(i, j));
            let tol = 1e-12 * b.abs().max(1.0);
            assert!((a - b).abs() <= tol, "rate ({i}, {j}): {a} vs {b}");
        }
    }
}

#[test]
fn mobility_keeps_continuously_tracked_links_bit_identical() {
    // Drive both representations through per-slot position refreshes and
    // an epoch-boundary re-association (handover migration on the sharded
    // side). Links tracked on both sides of the handover must stay bit
    // for bit equal to the dense oracle; links first tracked *at* the
    // handover draw fresh stationary state (they cannot replay the dense
    // link's clamped OU history — the divergence is the documented,
    // deterministic part of the migration, covered by the proptests).
    let (mut topo, cfg) = instance(305, 120, 50);
    let mut sharded = ChannelState::init_with_seed(&topo, &cfg, 42);
    let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), 42);
    let mut rng = seeded_rng(306);
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
    }
    let tracked_before: Vec<Vec<usize>> = (0..topo.num_requesters())
        .map(|j| {
            let mut edps = sharded.tracked_interferers(j);
            edps.push(topo.serving(j));
            edps
        })
        .collect();
    let positions: Vec<Point> = (0..topo.num_requesters())
        .map(|_| mfgcp_net::uniform_in_disc(cfg.area_radius, &mut rng))
        .collect();
    topo.update_requesters(&positions);
    sharded.refresh_distances(&topo);
    dense.refresh_distances(&topo);
    let mut checked = 0usize;
    for _ in 0..5 {
        sharded.advance(0.05);
        dense.advance(0.05);
        sharded.refresh_distances_from_positions(&topo, &positions);
        dense.refresh_distances_from_positions(&topo, &positions);
        for (j, before) in tracked_before.iter().enumerate() {
            let mut now = sharded.tracked_interferers(j);
            now.push(topo.serving(j));
            for i in now {
                if before.contains(&i) {
                    assert_eq!(
                        sharded.link_fading(i, j),
                        dense.link_fading(i, j),
                        "migrated link ({i}, {j}) diverged from the dense oracle"
                    );
                    assert_eq!(sharded.gain(i, j), dense.gain(i, j));
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 100,
        "handover kept too few links to be a real test"
    );
}

/// One step of a random channel-layer interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Advance both states by `DTS[n]`.
    Advance(usize),
    /// Move every requester and refresh distances without re-associating.
    Move,
    /// Re-associate at the current positions (handover migration).
    Reassociate,
    /// Check every tracked link against the dense oracle.
    Read,
}

/// Slot lengths the interleavings switch between, so a `dt` change (and
/// the materialization it forces) happens mid-run.
const DTS: [f64; 3] = [0.05, 0.1, 0.02];

/// Advances weighted 4 : 1 : 1 : 2 against moves, handovers and reads.
fn op() -> impl Strategy<Value = Op> {
    (0_usize..8).prop_map(|n| match n {
        0..=3 => Op::Advance(n % DTS.len()),
        4 => Op::Move,
        5 => Op::Reassociate,
        _ => Op::Read,
    })
}

/// Tracked EDPs of requester `j`: serving link first, then interferers
/// in summation order.
fn tracked(ch: &ChannelState, topo: &Topology, j: usize) -> Vec<usize> {
    std::iter::once(topo.serving(j))
        .chain(ch.tracked_interferers(j))
        .collect()
}

/// Check the lazy sharded state against the eager dense oracle on every
/// link it has tracked continuously since construction (a link first
/// tracked at a handover draws fresh stationary state, which the dense
/// oracle cannot replay). Reads are pure, so each one is taken twice.
/// With every link tracked (no frozen tail), the interference sum must
/// also equal the dense gains summed in the sharded order.
fn check_against_dense(
    sharded: &ChannelState,
    dense: &ChannelState,
    topo: &Topology,
    continuous: &[Vec<usize>],
    full: bool,
    tx_power: f64,
) {
    for (j, kept) in continuous.iter().enumerate() {
        let links = tracked(sharded, topo, j);
        for &i in &links {
            let h = sharded.link_fading(i, j);
            prop_assert!(h.is_some(), "link ({}, {}) not tracked", i, j);
            prop_assert_eq!(
                h.map(f64::to_bits),
                sharded.link_fading(i, j).map(f64::to_bits)
            );
            prop_assert_eq!(sharded.gain(i, j).to_bits(), sharded.gain(i, j).to_bits());
            if kept.contains(&i) {
                prop_assert_eq!(
                    h.map(f64::to_bits),
                    dense.link_fading(i, j).map(f64::to_bits),
                    "fading of link ({}, {})",
                    i,
                    j
                );
                prop_assert_eq!(
                    sharded.gain(i, j).to_bits(),
                    dense.gain(i, j).to_bits(),
                    "gain of link ({}, {})",
                    i,
                    j
                );
            }
            let interference = sharded.interference(i, j);
            prop_assert_eq!(interference.to_bits(), sharded.interference(i, j).to_bits());
            if full {
                let mut expected = 0.0;
                for &other in &links {
                    if other != i {
                        expected += dense.gain(other, j) * tx_power;
                    }
                }
                prop_assert_eq!(
                    interference.to_bits(),
                    (expected + 0.0).to_bits(),
                    "interference at ({}, {})",
                    i,
                    j
                );
            }
        }
    }
}

proptest! {
    /// Lazy catch-up is invisible: under any interleaving of advances
    /// (switching `dt`), per-slot distance refreshes, handovers and
    /// reads, every continuously tracked link's fading and gain equal the
    /// eagerly advanced dense oracle bit for bit, and reads are
    /// repeatable.
    #[test]
    fn lazy_catch_up_matches_the_eager_dense_oracle(
        seed in 0_u64..1_000,
        m in 2_usize..14,
        j in 1_usize..12,
        k_int in 1_usize..16,
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let cfg = NetworkConfig { k_int, ..NetworkConfig::default() };
        let mut rng = seeded_rng(seed);
        let mut topo = Topology::random(m, j, &cfg, &mut rng);
        let mut sharded = ChannelState::init_with_seed(&topo, &cfg, seed);
        let mut dense = ChannelState::init_with_seed(&topo, &dense_cfg(&cfg), seed);
        let full = k_int + 1 >= m;
        let mut continuous: Vec<Vec<usize>> =
            (0..j).map(|jj| tracked(&sharded, &topo, jj)).collect();
        let mut positions: Vec<Point> = (0..j).map(|jj| topo.requester(jj)).collect();
        for op in ops {
            match op {
                Op::Advance(n) => {
                    sharded.advance(DTS[n]);
                    dense.advance(DTS[n]);
                }
                Op::Move => {
                    positions = (0..j)
                        .map(|_| mfgcp_net::uniform_in_disc(cfg.area_radius, &mut rng))
                        .collect();
                    sharded.refresh_distances_from_positions(&topo, &positions);
                    dense.refresh_distances_from_positions(&topo, &positions);
                }
                Op::Reassociate => {
                    topo.update_requesters(&positions);
                    sharded.refresh_distances(&topo);
                    dense.refresh_distances(&topo);
                    for (jj, kept) in continuous.iter_mut().enumerate() {
                        let now = tracked(&sharded, &topo, jj);
                        kept.retain(|i| now.contains(i));
                    }
                }
                Op::Read => check_against_dense(
                    &sharded, &dense, &topo, &continuous, full, cfg.tx_power,
                ),
            }
        }
        check_against_dense(&sharded, &dense, &topo, &continuous, full, cfg.tx_power);
    }

    /// Handover migration never drops or duplicates link state: after any
    /// sequence of moves and re-associations, every requester still
    /// tracks exactly its serving link plus `min(k_int, M − 1)` distinct
    /// non-serving interferers, and any link tracked across the handover
    /// carries its fading value over bit for bit.
    #[test]
    fn handover_migration_preserves_link_state(
        seed in 0_u64..500,
        m in 2_usize..40,
        j in 1_usize..20,
        k_int in 1_usize..6,
        epochs in 1_usize..5,
    ) {
        let cfg = NetworkConfig { k_int, ..NetworkConfig::default() };
        let mut rng = seeded_rng(seed);
        let mut topo = Topology::random(m, j, &cfg, &mut rng);
        let mut ch = ChannelState::init_with_seed(&topo, &cfg, seed ^ 0xABCD);
        let expected_interferers = k_int.min(m - 1);
        for _ in 0..epochs {
            // Snapshot every tracked link before the handover.
            let mut before = Vec::new();
            for jj in 0..j {
                let mut edps = ch.tracked_interferers(jj);
                edps.push(topo.serving(jj));
                for i in edps {
                    before.push((i, jj, ch.link_fading(i, jj).expect("tracked")));
                }
            }
            let positions: Vec<Point> = (0..j)
                .map(|_| mfgcp_net::uniform_in_disc(cfg.area_radius, &mut rng))
                .collect();
            topo.update_requesters(&positions);
            ch.refresh_distances(&topo);
            for jj in 0..j {
                // The serving link always exists (never dropped).
                let serving = topo.serving(jj);
                prop_assert!(ch.link_fading(serving, jj).is_some());
                // Exactly the expected number of distinct interferers,
                // none of them the serving EDP (never duplicated).
                let ints = ch.tracked_interferers(jj);
                prop_assert_eq!(ints.len(), expected_interferers);
                let mut dedup = ints.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), ints.len(), "duplicate interferer");
                prop_assert!(!ints.contains(&serving), "serving EDP duplicated as interferer");
            }
            // Links tracked on both sides migrated their fading intact.
            for (i, jj, h) in before {
                if let Some(now) = ch.link_fading(i, jj) {
                    prop_assert_eq!(now, h, "fading changed across handover on link ({}, {})", i, jj);
                }
            }
            ch.advance(0.05);
        }
    }

    /// A freshly tracked link's fading is a pure function of the link key
    /// and the step — independent of how the requester got there.
    #[test]
    fn fresh_links_draw_from_their_per_link_stream(
        seed in 0_u64..200,
        m in 3_usize..30,
        j in 1_usize..10,
    ) {
        let cfg = NetworkConfig { k_int: 2, ..NetworkConfig::default() };
        let mut rng = seeded_rng(seed);
        let topo = Topology::random(m, j, &cfg, &mut rng);
        // Two independent states over the same seed and the same walk
        // must agree on everything, including links first tracked at a
        // handover.
        let mut a = ChannelState::init_with_seed(&topo, &cfg, seed);
        let mut b = ChannelState::init_with_seed(&topo, &cfg, seed);
        let positions: Vec<Point> = (0..j)
            .map(|_| mfgcp_net::uniform_in_disc(cfg.area_radius, &mut rng))
            .collect();
        let mut t2 = topo.clone();
        t2.update_requesters(&positions);
        a.advance(0.05);
        b.advance(0.05);
        a.refresh_distances(&t2);
        b.refresh_distances(&t2);
        for jj in 0..j {
            let mut edps = a.tracked_interferers(jj);
            edps.push(t2.serving(jj));
            for i in edps {
                prop_assert_eq!(a.link_fading(i, jj), b.link_fading(i, jj));
            }
        }
    }
}
