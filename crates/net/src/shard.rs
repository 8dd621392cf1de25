//! Occupancy-local channel storage: per-EDP shards of (serving, requester)
//! links plus each requester's top-`k_int` interferers.
//!
//! # Per-link counter-based fading streams
//!
//! Every fading draw is a pure function of `(channel_seed, edp, requester,
//! draw id)`: the key is hashed through a SplitMix64 chain and seeds a
//! fresh [`mfgcp_sde::SimRng`] for that single Gaussian sample. Draw id
//! `2·n` is the transition noise into step `n`; draw id `2·n + 1` seeds a
//! link freshly tracked *at* step `n` (handover) from the OU stationary
//! law. Consequences, all load-bearing:
//!
//! - **Dense/sharded parity**: both representations evaluate the same
//!   function of the same key, so any link tracked by both carries
//!   bit-identical fading at every step — the sharded truncation changes
//!   *which* links exist, never their values.
//! - **Order independence**: iteration order over links (shard-major,
//!   row-major, or parallel) cannot change any draw, so runs stay
//!   bit-identical for any `--threads` value.
//! - **Deterministic handover migration**: when mobility re-associates a
//!   requester, links tracked on both sides of the handover carry their
//!   fading over unchanged, and newly tracked links draw from a stream
//!   that depends only on the key — never on which thread or in which
//!   order the migration ran.
//! - **Lazy catch-up**: a slot advances only each requester's serving
//!   link, the one the market reads. Every link carries the step its
//!   fading is current at (its *stamp*); a read replays the transitions
//!   it missed, in order, from their keyed draws, so it returns the same
//!   bits as advancing the link every step (what the dense layout does).
//!   Per-slot fading work is O(J), not O(J·k_int), and an interferer
//!   that is never read never pays for its draws.
//!
//! Link distances are not stored: the store keeps the EDP positions and
//! each requester's current position and computes a distance on read
//! with the same expression the topology uses.

use mfgcp_sde::{seeded_rng, OrnsteinUhlenbeck, SimRng, StandardNormal};

use crate::config::NetworkConfig;
use crate::topology::Topology;
use crate::Point;

/// SplitMix64 finalizer: the bijective avalanche mix used to derive
/// per-link stream keys.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh single-use RNG for draw `draw` of link `(edp, requester)` under
/// `seed`. Used for exactly one Gaussian sample (rejection sampling may
/// consume a variable number of words, which is fine — the stream is
/// never shared across draws).
#[inline]
pub(crate) fn link_rng(seed: u64, edp: usize, requester: usize, draw: u64) -> SimRng {
    let a = mix(seed ^ (edp as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let b = mix(a ^ (requester as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    seeded_rng(mix(b ^ draw.wrapping_mul(0x2545_F491_4F6C_DD1D)))
}

/// Run `f` over disjoint chunks of `items` on scoped threads, passing each
/// chunk's base index. Falls back to one inline call when the population
/// is too small to amortize thread spawns. Every caller's per-item work is
/// keyed by counter-based per-link streams (or draws nothing at all), so
/// any chunking — including the sequential fallback — is bit-identical.
fn par_chunks<T: Send, F: Fn(usize, &mut [T]) + Sync>(items: &mut [T], f: F) {
    const MIN_PER_THREAD: usize = 1024;
    // Bound by the population first: `available_parallelism` reads the
    // cgroup quota files, which costs more than a small advance.
    let max_threads = items.len() / MIN_PER_THREAD;
    let threads = if max_threads <= 1 {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(max_threads)
    };
    if threads <= 1 {
        f(0, items);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || f(c * chunk, chunk_items));
        }
    });
}

/// Stationary-law fading for a link first tracked at step `step`
/// (`step = 0` at construction), clamped into the configured band.
#[inline]
pub(crate) fn init_fading(
    seed: u64,
    edp: usize,
    requester: usize,
    step: u64,
    process: &OrnsteinUhlenbeck,
    cfg: &NetworkConfig,
) -> f64 {
    let mut rng = link_rng(seed, edp, requester, 2 * step + 1);
    let z = StandardNormal.sample(&mut rng);
    cfg.clamp_fading(process.stationary_mean() + process.stationary_variance().sqrt() * z)
}

/// One exact OU transition of a link's fading into step `step`, clamped.
///
/// The flat argument list *is* the stream key plus transition inputs —
/// bundling them into a struct would hide which components key the
/// per-link RNG (`seed`/`edp`/`requester`/`step`) versus which feed the
/// OU transition, so the lint is waived.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn advance_fading(
    seed: u64,
    edp: usize,
    requester: usize,
    step: u64,
    h: f64,
    dt: f64,
    transition_sd: f64,
    process: &OrnsteinUhlenbeck,
    cfg: &NetworkConfig,
) -> f64 {
    let mut rng = link_rng(seed, edp, requester, 2 * step);
    let z = StandardNormal.sample(&mut rng);
    cfg.clamp_fading(process.transition_mean(h, dt) + transition_sd * z)
}

/// One tracked (EDP, requester) link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Link {
    /// EDP side of the link.
    pub edp: u32,
    /// Step at which `fading` is current (fills the padding after `edp`).
    pub stamp: u32,
    /// OU fading coefficient `h_{i,j}` at step `stamp`.
    pub fading: f64,
}

// J·(1 + k_int) links are resident; a new field must not re-grow them.
const _: () = assert!(std::mem::size_of::<Link>() == 16);

/// The links tracked for one requester: its serving EDP plus its
/// `k_int` strongest (nearest) interferers, and the frozen mean-field
/// tail of everything farther away.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RequesterLinks {
    /// The serving-EDP link (always tracked).
    pub serving: Link,
    /// Interferer links, ordered by `(distance, EDP index)` at the last
    /// (re)association.
    pub interferers: Vec<Link>,
    /// Summed channel gain of every *untracked* non-serving EDP, taken at
    /// the OU stationary-mean fading — the far-field interference tail.
    /// With `τ = 3` path loss the tail aggregates hundreds of weak links
    /// whose fading fluctuations average out (mean-field §III), so
    /// freezing it at the stationary mean between re-associations keeps
    /// the Eq. (2) denominator within the configured truncation bound
    /// while the per-slot work stays O(k_int).
    pub tail_gain: f64,
}

impl RequesterLinks {
    /// The tracked link to `edp`, if any.
    pub fn link_to(&self, edp: u32) -> Option<&Link> {
        if self.serving.edp == edp {
            return Some(&self.serving);
        }
        self.interferers.iter().find(|l| l.edp == edp)
    }
}

/// Occupancy-local channel storage: one [`RequesterLinks`] record per
/// requester, sharded by serving EDP.
#[derive(Debug, Clone)]
pub(crate) struct ShardedLinks {
    /// Per-requester link records, indexed by requester id.
    pub records: Vec<RequesterLinks>,
    /// `shards[i]` = requesters whose *serving* EDP is `i` (mirrors
    /// `Topology::served_by` at the last association).
    pub shards: Vec<Vec<u32>>,
    /// Interferers tracked per requester.
    pub k_int: usize,
    /// EDP positions (fixed for the run).
    edps: Vec<Point>,
    /// Current requester positions: the topology's at the last
    /// (re)association, the walkers' after a distance refresh.
    positions: Vec<Point>,
    /// The step every link's fading catches up to.
    clock: Clock,
}

/// The target of every link's catch-up: the stream seed, the current
/// step, and the one `(dt, transition sd)` pair every transition since
/// the last materialization used (`None` before the first advance).
#[derive(Debug, Clone, Copy)]
struct Clock {
    seed: u64,
    step: u32,
    transition: Option<(f64, f64)>,
}

impl Clock {
    /// Fading of requester `jj`'s link `link` at step `self.step`: the
    /// transitions it missed since its stamp, replayed in order from
    /// their keyed draws — the same bits as advancing the link every
    /// step.
    fn catch_up(
        &self,
        jj: usize,
        link: &Link,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> f64 {
        let mut h = link.fading;
        if let Some((dt, sd)) = self.transition {
            for t in link.stamp + 1..=self.step {
                h = advance_fading(
                    self.seed,
                    link.edp as usize,
                    jj,
                    u64::from(t),
                    h,
                    dt,
                    sd,
                    process,
                    cfg,
                );
            }
        }
        h
    }
}

impl ShardedLinks {
    /// Track the serving link and `k_int` nearest interferers for every
    /// requester, drawing initial fading from the per-link stationary
    /// streams at step 0.
    pub fn build(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        k_int: usize,
    ) -> Self {
        let m = topo.num_edps();
        let j = topo.num_requesters();
        let mut links = Self {
            records: vec![RequesterLinks::default(); j],
            shards: vec![Vec::new(); m],
            k_int,
            edps: (0..m).map(|i| topo.edp(i)).collect(),
            positions: Vec::new(),
            clock: Clock {
                seed,
                step: 0,
                transition: None,
            },
        };
        links.track_all(topo, cfg, process, false);
        links
    }

    /// Re-associate every requester after mobility, migrating link state
    /// between shards: links tracked both before and after the handover
    /// keep their fading and stamp; links tracked only after draw fresh
    /// stationary state at the current step from their per-link stream;
    /// links no longer tracked are dropped. Positions are refreshed from
    /// `topo`.
    pub fn reassociate(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
    ) {
        self.track_all(topo, cfg, process, true);
    }

    /// Resize the tracked-interferer budget to `k_int` and re-track every
    /// record under the new budget (the adaptive-k controller's lever).
    /// Links tracked under both budgets keep their fading; newly tracked
    /// links draw fresh stationary state, exactly as in
    /// [`ShardedLinks::reassociate`].
    pub fn retrack(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        k_int: usize,
    ) {
        self.k_int = k_int.max(1);
        self.reassociate(topo, cfg, process);
    }

    /// Re-track every record from `topo` (carrying link state over when
    /// `carry` is set) and rebuild the shard index.
    fn track_all(
        &mut self,
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        carry: bool,
    ) {
        // Each record's new state depends only on its own carried links
        // and per-link streams, so the re-tracking runs on record chunks
        // across threads; only the shard index rebuild stays sequential
        // (ascending requester order).
        let (Clock { seed, step, .. }, k_int) = (self.clock, self.k_int);
        par_chunks(&mut self.records, |base, chunk| {
            for (off, rec) in chunk.iter_mut().enumerate() {
                let jj = base + off;
                let prev = carry.then_some(&*rec);
                *rec = Self::track(topo, cfg, process, seed, step, k_int, jj, prev);
            }
        });
        self.positions.clear();
        self.positions
            .extend((0..topo.num_requesters()).map(|jj| topo.requester(jj)));
        for shard in &mut self.shards {
            shard.clear();
        }
        for (jj, rec) in self.records.iter().enumerate() {
            self.shards[rec.serving.edp as usize].push(jj as u32);
        }
    }

    /// Mean share of the interference power (every fading evaluated at
    /// the OU stationary mean, where the geometric split makes fading
    /// cancel in expectation) carried by the frozen tail rather than by
    /// live tracked links, plus how many requesters had any interference
    /// power at all. `None` when nobody did. Pure reads — the
    /// `net.shard.truncated_power` gauge and the adaptive-k controller
    /// both measure through here, so they can never disagree.
    pub fn tail_fraction(
        &self,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> Option<(f64, u64)> {
        let h = process.stationary_mean();
        let mut total = 0.0;
        let mut sampled = 0u64;
        for (jj, record) in self.records.iter().enumerate() {
            let tracked: f64 = record
                .interferers
                .iter()
                .map(|l| {
                    crate::channel_gain(
                        h,
                        self.distance(jj, l),
                        cfg.path_loss_exp,
                        cfg.min_distance,
                    )
                })
                .sum();
            let t = tracked + record.tail_gain;
            if t > 0.0 {
                total += record.tail_gain / t;
                sampled += 1;
            }
        }
        (sampled > 0).then(|| (total / sampled as f64, sampled))
    }

    /// Build the link record for requester `jj`: serving EDP (= nearest,
    /// by the association invariant) plus the next `k_int` nearest EDPs
    /// as interferers. `carry` supplies links already tracked, with their
    /// fading and stamp untouched; a carried link that is behind catches
    /// up on its next read or serving advance. The argument list mirrors
    /// `advance_fading`'s stream-key components plus the tracking inputs;
    /// see the lint waiver there.
    #[allow(clippy::too_many_arguments)]
    fn track(
        topo: &Topology,
        cfg: &NetworkConfig,
        process: &OrnsteinUhlenbeck,
        seed: u64,
        step: u32,
        k_int: usize,
        jj: usize,
        carry: Option<&RequesterLinks>,
    ) -> RequesterLinks {
        let p = topo.requester(jj);
        let serving_edp = topo.serving(jj);
        let link_to = |edp: u32| -> Link {
            if let Some(link) = carry.and_then(|prev| prev.link_to(edp)) {
                return *link;
            }
            Link {
                edp,
                stamp: step,
                fading: init_fading(seed, edp as usize, jj, u64::from(step), process, cfg),
            }
        };
        let serving = link_to(serving_edp as u32);
        // The serving EDP is the nearest by construction, so the k_int + 1
        // nearest minus the serving EDP are exactly the k_int nearest
        // interferers. Guard with a filter anyway: ties at equal distance
        // are broken by index in both queries, but the invariant lives in
        // `Topology`, not here.
        let near = topo.grid().k_nearest(&p, k_int + 1);
        let mut interferers = Vec::with_capacity(k_int.min(near.len()));
        for (edp, _) in near {
            if edp == serving_edp || interferers.len() == k_int {
                continue;
            }
            interferers.push(link_to(edp as u32));
        }
        // Frozen mean-field tail: the untracked far field at the OU
        // stationary-mean fading. One O(M) pass per requester, paid only
        // at (re)association time, never per slot. Computed as
        // (everything − tracked) so the far field needs no membership
        // test; the subtraction uses the same distances, so cancellation
        // error is at the rounding level.
        let h = process.stationary_mean();
        let mut tail_gain = 0.0;
        if interferers.len() == k_int && k_int + 1 < topo.num_edps() {
            let total: f64 = (0..topo.num_edps())
                .filter(|&i| i != serving_edp)
                .map(|i| {
                    crate::channel_gain(
                        h,
                        topo.distance(i, jj),
                        cfg.path_loss_exp,
                        cfg.min_distance,
                    )
                })
                .sum();
            let tracked: f64 = interferers
                .iter()
                .map(|l| {
                    crate::channel_gain(
                        h,
                        topo.distance(l.edp as usize, jj),
                        cfg.path_loss_exp,
                        cfg.min_distance,
                    )
                })
                .sum();
            tail_gain = (total - tracked).max(0.0);
        }
        RequesterLinks {
            serving,
            interferers,
            tail_gain,
        }
    }

    /// Advance one step of length `dt`: only each record's serving link
    /// — the one the market reads — catches up, so the work is O(J)
    /// whatever `k_int` is.
    /// Interferers keep their stamp and replay the missed transitions on
    /// read. A `dt` that differs from the pending transitions' first
    /// materializes every link, so a replay only ever uses one `dt`.
    /// Record chunks run on scoped threads; the counter-based streams make
    /// the result identical for any iteration order and thread count.
    pub fn advance(&mut self, cfg: &NetworkConfig, process: &OrnsteinUhlenbeck, dt: f64) {
        if let Some((pending, _)) = self.clock.transition {
            if pending.to_bits() != dt.to_bits() {
                self.materialize(cfg, process);
            }
        }
        self.clock.step += 1;
        self.clock.transition = Some((dt, process.transition_variance(dt).sqrt()));
        let clock = self.clock;
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                let s = &mut record.serving;
                s.fading = clock.catch_up(base + off, s, process, cfg);
                s.stamp = clock.step;
            }
        });
    }

    /// Bring every tracked link's fading current to the present step.
    fn materialize(&mut self, cfg: &NetworkConfig, process: &OrnsteinUhlenbeck) {
        let clock = self.clock;
        par_chunks(&mut self.records, |base, chunk| {
            for (off, record) in chunk.iter_mut().enumerate() {
                for l in std::iter::once(&mut record.serving).chain(&mut record.interferers) {
                    l.fading = clock.catch_up(base + off, l, process, cfg);
                    l.stamp = clock.step;
                }
            }
        });
    }

    /// Fading of requester `jj`'s tracked link `link` at the current
    /// step (see [`Clock::catch_up`]). Pure.
    pub fn fading(
        &self,
        jj: usize,
        link: &Link,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> f64 {
        self.clock.catch_up(jj, link, process, cfg)
    }

    /// Current distance of requester `jj`'s link `link`, in meters.
    pub fn distance(&self, jj: usize, link: &Link) -> f64 {
        self.edps[link.edp as usize].distance(&self.positions[jj])
    }

    /// Channel gain `|g|²` of requester `jj`'s link `link` at the current
    /// step.
    pub fn gain(
        &self,
        jj: usize,
        link: &Link,
        process: &OrnsteinUhlenbeck,
        cfg: &NetworkConfig,
    ) -> f64 {
        crate::channel_gain(
            self.fading(jj, link, process, cfg),
            self.distance(jj, link),
            cfg.path_loss_exp,
            cfg.min_distance,
        )
    }

    /// Move the requesters to `positions` without re-associating (the
    /// per-slot mobility path): every link distance follows on read.
    pub fn refresh_distances(&mut self, positions: &[Point]) {
        self.positions.copy_from_slice(positions);
    }

    /// Resident bytes of the link store (records, shard index and
    /// positions).
    pub fn memory_bytes(&self) -> usize {
        let records: usize = self
            .records
            .iter()
            .map(|r| {
                std::mem::size_of::<RequesterLinks>()
                    + r.interferers.capacity() * std::mem::size_of::<Link>()
            })
            .sum();
        let shards: usize = self
            .shards
            .iter()
            .map(|s| std::mem::size_of::<Vec<u32>>() + s.capacity() * std::mem::size_of::<u32>())
            .sum();
        let positions =
            (self.edps.capacity() + self.positions.capacity()) * std::mem::size_of::<Point>();
        records + shards + positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_streams_are_reproducible_and_distinct() {
        use rand::RngExt as _;
        let mut a = link_rng(7, 3, 11, 40);
        let mut b = link_rng(7, 3, 11, 40);
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        // Different key components give different streams.
        let base = link_rng(7, 3, 11, 40).random::<u64>();
        assert_ne!(link_rng(8, 3, 11, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 4, 11, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 3, 12, 40).random::<u64>(), base);
        assert_ne!(link_rng(7, 3, 11, 41).random::<u64>(), base);
    }

    #[test]
    fn init_fading_is_clamped_and_deterministic() {
        let cfg = NetworkConfig::default();
        let process = cfg.fading_process();
        for step in [0u64, 1, 17] {
            for edp in 0..5 {
                let h = init_fading(99, edp, 2, step, &process, &cfg);
                assert!(h >= cfg.fading_min && h <= cfg.fading_max);
                assert_eq!(h, init_fading(99, edp, 2, step, &process, &cfg));
            }
        }
    }
}
