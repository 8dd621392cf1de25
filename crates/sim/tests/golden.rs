//! Golden bit-identity check for a multi-epoch mobile market run.
//!
//! The thread-count and dense-parity tests compare the simulator only
//! with itself. This test pins the bits of one run against a hash
//! recorded from a reference build, so a refactor of the channel layer
//! (per-slot fading, distance refreshes, handover migration) that moves
//! any link's fading by one ULP fails here. The run uses the
//! most-popular-caching baseline, so no equilibrium solve is involved.
//!
//! The hash depends on the platform's `libm` (`exp`, `log2`, `ln`), so
//! it is checked on x86-64 Linux only, where it was recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use mfgcp_core::Params;
use mfgcp_net::RandomWaypoint;
use mfgcp_sim::baselines::MostPopularCaching;
use mfgcp_sim::{SimConfig, Simulation};

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[test]
fn mobile_multi_epoch_run_matches_the_recorded_bits() {
    let cfg = SimConfig {
        num_edps: 40,
        num_requesters: 2000,
        num_contents: 3,
        epochs: 3,
        slots_per_epoch: 10,
        mobility: Some(RandomWaypoint::default()),
        params: Params {
            num_edps: 40,
            ..Params::default()
        },
        ..SimConfig::default()
    };
    let report = Simulation::new(cfg, Box::new(MostPopularCaching::default()))
        .unwrap()
        .run();
    assert_eq!(report.series.len(), 30);
    let per_edp = report.per_edp.iter().flat_map(|e| {
        [
            e.trading_income.to_bits(),
            e.sharing_benefit.to_bits(),
            e.placement_cost.to_bits(),
            e.staleness_cost.to_bits(),
            e.sharing_cost.to_bits(),
            e.requests_served,
            e.case_counts.0,
            e.case_counts.1,
            e.case_counts.2,
        ]
    });
    let series = report.series.iter().flat_map(|s| {
        [
            s.t,
            s.mean_remaining_space,
            s.mean_caching_rate,
            s.mean_price,
            s.slot_utility,
            s.slot_trading_income,
            s.slot_sharing_benefit,
            s.slot_staleness_cost,
            s.slot_placement_cost,
            s.slot_sharing_cost,
        ]
        .map(f64::to_bits)
    });
    let hash = fnv1a(per_edp.chain(series));
    assert_eq!(
        hash, 0xBD8D_96BE_6949_507C,
        "FNV-1a of the (per_edp, series) bits: {hash:#018x}"
    );
}
