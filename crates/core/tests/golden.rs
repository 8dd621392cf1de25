//! Golden bit-identity check for the Alg. 2 solver.
//!
//! The thread-count and kernel-path tests compare the solver only with
//! itself. This test pins the bits of one cold solve against a hash
//! recorded from a reference build, so a refactor of the HJB/FPK
//! assembly that moves any grid point by one ULP fails here.
//!
//! The hash depends on the platform's `libm` (`exp`, `log2`), so it
//! is checked on x86-64 Linux only, where it was recorded.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use mfgcp_core::{ContentContext, MfgSolver, Params};
use mfgcp_pde::Field2d;

/// FNV-1a over the little-endian bits of every value of every field.
fn fnv1a(fields: &[&[Field2d]]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for series in fields {
        for field in *series {
            for v in field.values() {
                for b in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    hash
}

#[test]
fn default_context_cold_solve_matches_the_recorded_bits() {
    let solver = MfgSolver::new(Params {
        time_steps: 16,
        grid_h: 10,
        grid_q: 36,
        ..Params::default()
    })
    .unwrap();
    let contexts = vec![ContentContext::from_params(solver.params()); solver.params().time_steps];
    let eq = solver.solve_with(&contexts, None);
    assert!(eq.report.converged);
    let hash = fnv1a(&[&eq.policy, &eq.density, &eq.values]);
    assert_eq!(
        (eq.report.iterations, hash),
        (4, 0x1646_ED76_5932_E5D4),
        "iterations and FNV-1a of (policy, density, values) bits: {hash:#018x}"
    );
}
