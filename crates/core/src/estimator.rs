//! The mean-field estimator of §IV-B(1).
//!
//! Given the mean-field density `λ(S_k(t))` and the current policy surface
//! `x*(S)`, the estimator computes everything the generic player needs that
//! would otherwise require querying all `M − 1` competitors:
//!
//! * the dynamic price `p_k(t)` (Eq. (17));
//! * the average peer caching state `q̄₋(t)` (Eq. (18));
//! * the average transfer size `Δq̄(t)` between a sharing and a needing EDP;
//! * the population fractions qualified to share (`M_k/M`, those with
//!   `q ≤ α·Q_k`) and stuck in case 3 (`M'_k/M`);
//! * the average sharing benefit
//!   `Φ̄²_k(t) = p̄_k·Δq̄·((M − M'_k)/M_k − 1)`.
//!
//! All of them derive from eight density sums accumulated in one i-major
//! pass: the mass, `∬ q·λ`, the masses and q-moments of the sharing
//! (`q ≤ α·Q_k`) and needing populations, `∬ σ(q − α·Q_k)·λ` and the
//! supply `∬ λ·x*`. The q-dependent weights, the sigmoid included, are
//! tabulated once per call along the density's own q axis, so a snapshot
//! costs `ny` exponentials rather than one per grid point. Each sum keeps
//! the `w·λ` product and the summation order of its own
//! [`Field2d::weighted_integral`], so every output, NaN and ∞ included,
//! has the bits of the one-integral-per-quantity form the test module
//! keeps as its oracle.

use mfgcp_pde::Field2d;

use crate::params::Params;
use crate::pricing::price_from_supply;
use crate::sigmoid::Sigmoid;

/// The per-time-step quantities produced by the estimator and consumed by
/// the generic player's utility (§IV-B(2)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldSnapshot {
    /// Dynamic trading price `p_k(t)` (Eq. (17)).
    pub price: f64,
    /// Average peer remaining space `q̄₋(t)` (Eq. (18)).
    pub q_bar: f64,
    /// Average transfer size `Δq̄(t)`.
    pub delta_q: f64,
    /// Average sharing benefit `Φ̄²_k(t)` accruing to a qualified sharer.
    pub share_benefit: f64,
    /// Fraction of EDPs qualified to share (`M_k/M`).
    pub sharer_fraction: f64,
    /// Fraction of EDPs in case 3 (`M'_k/M`).
    pub case3_fraction: f64,
}

/// The density sums behind every estimator output, accumulated in one
/// i-major pass over the grid. Each is `Σ w·λ` in the order
/// [`Field2d::weighted_integral`] adds it (for `mass`, [`Field2d::integral`];
/// for `supply`, [`crate::pricing::mean_field_price`]), times the cell area,
/// so every derived quantity carries the bits of its per-integral form.
#[derive(Debug, Clone, Copy, Default)]
struct DensitySums {
    /// `∬ λ`.
    mass: f64,
    /// `∬ q·λ`.
    q: f64,
    /// `∬ 1[q ≤ α·Q_k]·λ`.
    sharers: f64,
    /// `∬ 1[q > α·Q_k]·λ`.
    needers: f64,
    /// `∬ q·1[q ≤ α·Q_k]·λ`.
    q_sharers: f64,
    /// `∬ q·1[q > α·Q_k]·λ`.
    q_needers: f64,
    /// `∬ σ(q − α·Q_k)·λ`.
    own_short: f64,
    /// `∬ λ·x*` (zero when no policy is given).
    supply: f64,
}

/// The per-q weights of [`DensitySums`] at one grid row `q_j`.
#[derive(Debug, Clone, Copy)]
struct RowWeights {
    q: f64,
    sharer: f64,
    needer: f64,
    q_sharer: f64,
    q_needer: f64,
    own_short: f64,
}

impl DensitySums {
    fn q_bar(&self) -> f64 {
        if self.mass <= 0.0 {
            return 0.0;
        }
        self.q / self.mass
    }

    fn sharer_fraction(&self) -> f64 {
        if self.mass <= 0.0 {
            return 0.0;
        }
        self.sharers / self.mass
    }

    fn delta_q(&self) -> f64 {
        let avg_sharers = if self.sharers > 1e-12 {
            self.q_sharers / self.sharers
        } else {
            0.0
        };
        let avg_needers = if self.needers > 1e-12 {
            self.q_needers / self.needers
        } else {
            0.0
        };
        (avg_needers - avg_sharers).abs()
    }

    fn case3_fraction(&self, sigmoid: Sigmoid, thr: f64) -> f64 {
        if self.mass <= 0.0 {
            return 0.0;
        }
        let peer_short = sigmoid.eval(self.q_bar() - thr);
        let own_short = self.own_short / self.mass;
        own_short * peer_short
    }

    fn share_benefit(&self, params: &Params, sigmoid: Sigmoid) -> f64 {
        let m = params.num_edps as f64;
        let m_k = (self.sharer_fraction() * m).max(1.0);
        let m_prime = self.case3_fraction(sigmoid, params.alpha_qk()) * m;
        let buyers_per_sharer = ((m - m_prime) / m_k - 1.0).max(0.0);
        params.p_bar * self.delta_q() * buyers_per_sharer
    }
}

/// Computes [`MeanFieldSnapshot`]s from a density and a policy.
#[derive(Debug, Clone)]
pub struct MeanFieldEstimator {
    params: Params,
    sigmoid: Sigmoid,
}

impl MeanFieldEstimator {
    /// Create an estimator for the given parameters.
    pub fn new(params: Params) -> Self {
        let sigmoid = Sigmoid::new(params.sigmoid_l);
        Self { params, sigmoid }
    }

    /// The parameters in use.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Accumulate the [`DensitySums`] of `density` (and the supply
    /// `∬ λ·x*` when a policy is given) in one i-major pass.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is not on the density's grid.
    fn sums(&self, density: &Field2d, policy: Option<&Field2d>) -> DensitySums {
        let grid = density.grid();
        if let Some(policy) = policy {
            assert_eq!(grid, policy.grid(), "density/policy grid mismatch");
        }
        let thr = self.params.alpha_qk();
        let rows: Vec<RowWeights> = (0..grid.y().len())
            .map(|j| {
                let q = grid.y().at(j);
                RowWeights {
                    q,
                    sharer: f64::from(u8::from(q <= thr)),
                    needer: f64::from(u8::from(q > thr)),
                    q_sharer: if q <= thr { q } else { 0.0 },
                    q_needer: if q > thr { q } else { 0.0 },
                    own_short: self.sigmoid.eval(q - thr),
                }
            })
            .collect();
        // `mass` starts at -0.0 like `f64::sum` in `Field2d::integral`.
        let mut s = DensitySums {
            mass: -0.0,
            ..DensitySums::default()
        };
        let ny = rows.len();
        let policy = policy.map(Field2d::values);
        for (i, lam_col) in density.values().chunks(ny).enumerate() {
            let x_col = policy.map(|x| &x[i * ny..(i + 1) * ny]);
            for (j, (&lam, w)) in lam_col.iter().zip(&rows).enumerate() {
                s.mass += lam;
                s.q += w.q * lam;
                s.sharers += w.sharer * lam;
                s.needers += w.needer * lam;
                s.q_sharers += w.q_sharer * lam;
                s.q_needers += w.q_needer * lam;
                s.own_short += w.own_short * lam;
                if let Some(x_col) = x_col {
                    s.supply += lam * x_col[j];
                }
            }
        }
        let cell = grid.cell_area();
        for acc in [
            &mut s.mass,
            &mut s.q,
            &mut s.sharers,
            &mut s.needers,
            &mut s.q_sharers,
            &mut s.q_needers,
            &mut s.own_short,
            &mut s.supply,
        ] {
            *acc *= cell;
        }
        s
    }

    /// Average remaining space `q̄₋ = ∬ q·λ dh dq` (Eq. (18)).
    ///
    /// The density is renormalized inside the integral so small
    /// mass-clipping at the walls cannot bias the average.
    pub fn q_bar(&self, density: &Field2d) -> f64 {
        self.sums(density, None).q_bar()
    }

    /// Fraction of EDPs with `q ≤ α·Q_k` — those holding enough of the
    /// content to share it (`M_k / M`).
    pub fn sharer_fraction(&self, density: &Field2d) -> f64 {
        self.sums(density, None).sharer_fraction()
    }

    /// Average transfer size `Δq̄`: the gap between the average state of
    /// the needing population (`q > α·Q_k`) and the sharing population
    /// (`q ≤ α·Q_k`).
    pub fn delta_q(&self, density: &Field2d) -> f64 {
        self.sums(density, None).delta_q()
    }

    /// Fraction of the population in case 3: both the EDP and its potential
    /// peer lack the content (`M'_k / M ≈ ∬ P³(q, q̄) λ`).
    pub fn case3_fraction(&self, density: &Field2d) -> f64 {
        self.sums(density, None)
            .case3_fraction(self.sigmoid, self.params.alpha_qk())
    }

    /// Average sharing benefit
    /// `Φ̄²_k = p̄_k·Δq̄·((M − M')/M_k − 1)`, clamped at zero when nobody is
    /// qualified to share. `(M − M')/M_k − 1` counts how many buyers each
    /// qualified sharer serves beyond itself.
    pub fn share_benefit(&self, density: &Field2d) -> f64 {
        self.sums(density, None)
            .share_benefit(&self.params, self.sigmoid)
    }

    /// Assemble the full snapshot from a density and the current policy.
    ///
    /// # Panics
    ///
    /// Panics if `density` and `policy` are not on the same grid.
    pub fn snapshot(&self, density: &Field2d, policy: &Field2d) -> MeanFieldSnapshot {
        let p = &self.params;
        let s = self.sums(density, Some(policy));
        MeanFieldSnapshot {
            price: price_from_supply(p.p_hat, p.eta1, p.q_size, s.supply),
            q_bar: s.q_bar(),
            delta_q: s.delta_q(),
            share_benefit: s.share_benefit(p, self.sigmoid),
            sharer_fraction: s.sharer_fraction(),
            case3_fraction: s.case3_fraction(self.sigmoid, p.alpha_qk()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfgcp_pde::{Axis, Grid2d};
    use proptest::prelude::*;

    /// The per-integral estimator: each quantity straight from its own
    /// `Field2d` integrals, with the sigmoid evaluated at every point. The
    /// differential tests hold [`MeanFieldEstimator`] to it bit for bit.
    mod reference {
        use super::*;
        use crate::pricing::mean_field_price;

        pub fn q_bar(density: &Field2d) -> f64 {
            let mass = density.integral();
            if mass <= 0.0 {
                return 0.0;
            }
            density.weighted_integral(|_h, q| q) / mass
        }

        pub fn sharer_fraction(p: &Params, density: &Field2d) -> f64 {
            let mass = density.integral();
            if mass <= 0.0 {
                return 0.0;
            }
            let thr = p.alpha_qk();
            density.weighted_integral(|_h, q| f64::from(u8::from(q <= thr))) / mass
        }

        pub fn delta_q(p: &Params, density: &Field2d) -> f64 {
            let thr = p.alpha_qk();
            let mass_sharers = density.weighted_integral(|_h, q| f64::from(u8::from(q <= thr)));
            let mass_needers = density.weighted_integral(|_h, q| f64::from(u8::from(q > thr)));
            let q_sharers = density.weighted_integral(|_h, q| if q <= thr { q } else { 0.0 });
            let q_needers = density.weighted_integral(|_h, q| if q > thr { q } else { 0.0 });
            let avg_sharers = if mass_sharers > 1e-12 {
                q_sharers / mass_sharers
            } else {
                0.0
            };
            let avg_needers = if mass_needers > 1e-12 {
                q_needers / mass_needers
            } else {
                0.0
            };
            (avg_needers - avg_sharers).abs()
        }

        pub fn case3_fraction(p: &Params, density: &Field2d) -> f64 {
            let mass = density.integral();
            if mass <= 0.0 {
                return 0.0;
            }
            let sigmoid = Sigmoid::new(p.sigmoid_l);
            let thr = p.alpha_qk();
            let peer_short = sigmoid.eval(q_bar(density) - thr);
            let own_short = density.weighted_integral(|_h, q| sigmoid.eval(q - thr)) / mass;
            own_short * peer_short
        }

        pub fn share_benefit(p: &Params, density: &Field2d) -> f64 {
            let m = p.num_edps as f64;
            let m_k = (sharer_fraction(p, density) * m).max(1.0);
            let m_prime = case3_fraction(p, density) * m;
            let buyers_per_sharer = ((m - m_prime) / m_k - 1.0).max(0.0);
            p.p_bar * delta_q(p, density) * buyers_per_sharer
        }

        pub fn snapshot(p: &Params, density: &Field2d, policy: &Field2d) -> MeanFieldSnapshot {
            MeanFieldSnapshot {
                price: mean_field_price(p.p_hat, p.eta1, p.q_size, density, policy),
                q_bar: q_bar(density),
                delta_q: delta_q(p, density),
                share_benefit: share_benefit(p, density),
                sharer_fraction: sharer_fraction(p, density),
                case3_fraction: case3_fraction(p, density),
            }
        }
    }

    fn bits(s: &MeanFieldSnapshot) -> [u64; 6] {
        [
            s.price.to_bits(),
            s.q_bar.to_bits(),
            s.delta_q.to_bits(),
            s.share_benefit.to_bits(),
            s.sharer_fraction.to_bits(),
            s.case3_fraction.to_bits(),
        ]
    }

    /// The fused snapshot and every public component against the
    /// per-integral reference, compared as bits.
    fn assert_matches_reference(p: &Params, density: &Field2d, policy: &Field2d) {
        let est = MeanFieldEstimator::new(p.clone());
        let fused = est.snapshot(density, policy);
        let oracle = reference::snapshot(p, density, policy);
        assert_eq!(bits(&fused), bits(&oracle), "{fused:?} vs {oracle:?}");
        let components = MeanFieldSnapshot {
            price: fused.price,
            q_bar: est.q_bar(density),
            delta_q: est.delta_q(density),
            share_benefit: est.share_benefit(density),
            sharer_fraction: est.sharer_fraction(density),
            case3_fraction: est.case3_fraction(density),
        };
        assert_eq!(bits(&components), bits(&oracle));
    }

    /// A small grid whose q axis spans `[q_lo, q_lo + q_span]`.
    fn small_grid(nx: usize, ny: usize, q_lo: f64, q_span: f64) -> Grid2d {
        Grid2d::new(
            Axis::new(1.0e-5, 10.0e-5, nx).unwrap(),
            Axis::new(q_lo, q_lo + q_span, ny).unwrap(),
        )
    }

    /// Largest grid [`density_case`] draws (5 × 13 cells).
    const MAX_CELLS: usize = 5 * 13;

    /// Random non-negative fields (about a third of the cells zero) on a
    /// random small grid, with a random population size and sigmoid
    /// sharpness.
    fn density_case() -> impl Strategy<Value = (Params, Field2d, Field2d)> {
        (
            (2_usize..6, 2_usize..14, 0.0_f64..0.4, 0.05_f64..1.0),
            (2_usize..500, 1.0_f64..40.0),
            collection::vec((0_u8..3, 0.0_f64..5.0), MAX_CELLS),
            collection::vec(0.0_f64..=1.0, MAX_CELLS),
        )
            .prop_map(|((nx, ny, q_lo, q_span), (m, l), cells, x)| {
                let n = nx * ny;
                let grid = small_grid(nx, ny, q_lo, q_span);
                let lam = cells[..n]
                    .iter()
                    .map(|&(keep, v)| if keep == 0 { 0.0 } else { v })
                    .collect();
                let params = Params {
                    num_edps: m,
                    sigmoid_l: l,
                    ..Params::default()
                };
                (
                    params,
                    Field2d::from_values(grid.clone(), lam).unwrap(),
                    Field2d::from_values(grid, x[..n].to_vec()).unwrap(),
                )
            })
    }

    proptest! {
        #[test]
        fn fused_snapshot_matches_the_per_integral_reference(
            (params, density, policy) in density_case(),
        ) {
            assert_matches_reference(&params, &density, &policy);
        }
    }

    /// `(params, grid, policy)` for the edge cases: α·Q_k = 0.2 sits
    /// inside the q axis `[0, 1]`.
    fn edge_case_setup() -> (Params, Grid2d, Field2d) {
        let grid = small_grid(3, 11, 0.0, 1.0);
        let policy = Field2d::from_fn(grid.clone(), |h, q| (h * 1.0e4 + q).min(1.0));
        (Params::default(), grid, policy)
    }

    #[test]
    fn all_zero_density_takes_the_empty_mass_branch() {
        let (params, grid, policy) = edge_case_setup();
        let lam = Field2d::zeros(grid);
        assert_matches_reference(&params, &lam, &policy);
        let snap = MeanFieldEstimator::new(params.clone()).snapshot(&lam, &policy);
        assert_eq!(snap.q_bar, 0.0);
        assert_eq!(snap.sharer_fraction, 0.0);
        assert_eq!(snap.case3_fraction, 0.0);
        assert_eq!(snap.price, params.p_hat);
    }

    #[test]
    fn all_mass_at_or_below_the_threshold_guards_the_needer_average() {
        let (params, grid, policy) = edge_case_setup();
        let thr = params.alpha_qk();
        let lam = Field2d::from_fn(grid, |_h, q| if q <= thr { 1.0 + q } else { 0.0 });
        assert_matches_reference(&params, &lam, &policy);
        assert_eq!(
            MeanFieldEstimator::new(params).sharer_fraction(&lam),
            1.0,
            "everyone can share"
        );
    }

    #[test]
    fn all_mass_above_the_threshold_guards_the_sharer_average() {
        let (params, grid, policy) = edge_case_setup();
        let thr = params.alpha_qk();
        let lam = Field2d::from_fn(grid, |_h, q| if q > thr { 2.0 - q } else { 0.0 });
        assert_matches_reference(&params, &lam, &policy);
        assert_eq!(MeanFieldEstimator::new(params).sharer_fraction(&lam), 0.0);
    }

    #[test]
    fn non_finite_density_values_propagate_like_the_reference() {
        let (params, grid, policy) = edge_case_setup();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut lam = Field2d::from_fn(grid.clone(), |_h, q| 1.0 - 0.5 * q);
            lam.set(1, 7, bad);
            assert_matches_reference(&params, &lam, &policy);
        }
    }

    fn grid() -> Grid2d {
        Grid2d::new(
            Axis::new(1.0e-5, 10.0e-5, 8).unwrap(),
            Axis::new(0.0, 1.0, 101).unwrap(),
        )
    }

    fn delta_density(q0: f64) -> Field2d {
        // All mass concentrated near q = q0 (uniform in h).
        let mut f = Field2d::from_fn(grid(), |_h, q| {
            let z = (q - q0) / 0.02;
            (-0.5 * z * z).exp()
        });
        f.normalize();
        f
    }

    fn estimator() -> MeanFieldEstimator {
        MeanFieldEstimator::new(Params::default())
    }

    #[test]
    fn q_bar_of_concentrated_density() {
        let est = estimator();
        let lam = delta_density(0.6);
        assert!((est.q_bar(&lam) - 0.6).abs() < 0.01);
    }

    #[test]
    fn sharer_fraction_tracks_the_threshold() {
        let est = estimator();
        // α·Q_k = 0.2; all mass at q = 0.05 → everyone can share.
        assert!(est.sharer_fraction(&delta_density(0.05)) > 0.95);
        // All mass at q = 0.8 → nobody can share.
        assert!(est.sharer_fraction(&delta_density(0.8)) < 0.05);
    }

    #[test]
    fn delta_q_measures_the_gap() {
        let est = estimator();
        // Half the mass at 0.1 (sharers), half at 0.7 (needers).
        let mut lam = Field2d::from_fn(grid(), |_h, q| {
            let z1 = (q - 0.1) / 0.02;
            let z2 = (q - 0.7) / 0.02;
            (-0.5 * z1 * z1).exp() + (-0.5 * z2 * z2).exp()
        });
        lam.normalize();
        assert!(
            (est.delta_q(&lam) - 0.6).abs() < 0.02,
            "Δq = {}",
            est.delta_q(&lam)
        );
    }

    #[test]
    fn case3_fraction_high_when_everyone_is_short() {
        let est = estimator();
        assert!(est.case3_fraction(&delta_density(0.9)) > 0.9);
        assert!(est.case3_fraction(&delta_density(0.05)) < 0.1);
    }

    #[test]
    fn share_benefit_zero_when_everyone_has_the_content() {
        let est = estimator();
        // Everyone qualified (q = 0.05): no buyers → the (M−M')/M_k − 1
        // factor is ≈ 0.
        let b = est.share_benefit(&delta_density(0.05));
        assert!(b < 0.05, "benefit {b}");
    }

    #[test]
    fn share_benefit_positive_with_mixed_population() {
        // Sharing is active when the population mean sits near the α·Q_k
        // threshold (the paper's mean-field peer is the average EDP):
        // 20% well-stocked sharers, 80% needers just above the threshold.
        let est = estimator();
        let mut lam = Field2d::from_fn(grid(), |_h, q| {
            let z1 = (q - 0.08) / 0.02;
            let z2 = (q - 0.32) / 0.02;
            0.2 * (-0.5 * z1 * z1).exp() + 0.8 * (-0.5 * z2 * z2).exp()
        });
        lam.normalize();
        let b = est.share_benefit(&lam);
        assert!(b > 0.05, "benefit {b}");
    }

    #[test]
    fn snapshot_is_consistent_with_components() {
        let est = estimator();
        let lam = delta_density(0.5);
        let policy = Field2d::from_fn(grid(), |_h, _q| 0.3);
        let snap = est.snapshot(&lam, &policy);
        assert_eq!(snap.q_bar.to_bits(), est.q_bar(&lam).to_bits());
        assert_eq!(snap.delta_q.to_bits(), est.delta_q(&lam).to_bits());
        assert_eq!(
            snap.share_benefit.to_bits(),
            est.share_benefit(&lam).to_bits()
        );
        assert_eq!(
            snap.sharer_fraction.to_bits(),
            est.sharer_fraction(&lam).to_bits()
        );
        assert_eq!(
            snap.case3_fraction.to_bits(),
            est.case3_fraction(&lam).to_bits()
        );
        assert!(
            (snap.price - (5.0 - 1.0 * 0.3)).abs() < 1e-6,
            "price {}",
            snap.price
        );
        assert!(snap.sharer_fraction >= 0.0 && snap.sharer_fraction <= 1.0);
        assert!(snap.case3_fraction >= 0.0 && snap.case3_fraction <= 1.0);
    }
}
